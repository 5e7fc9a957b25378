"""Tests for the fault-schedule model and its two backend compilations."""

import pytest

from repro.core.fabric import FabricModel
from repro.errors import FaultInjectionError
from repro.faults import FaultEvent, FaultKind, FaultSchedule, install
from repro.faults.inject import _stall, resolve_channel
from repro.faults.schedule import STALL_FACTOR
from repro.fluid.solver import Channel, FluidFlow, Policy
from repro.fluid.timeseries import DemandSchedule, FluidSimulator
from repro.noc.arbiter import _DirectionServer
from repro.sim.engine import Environment
from repro.transport.path import PathResolver


# --------------------------------------------------------------------------
# event and schedule validation


class TestValidation:
    def test_factor_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent.derate("gmi0:r", start=0.0, end=1.0, factor=0.0)
        with pytest.raises(FaultInjectionError):
            FaultEvent.derate("gmi0:r", start=0.0, end=1.0, factor=1.5)

    def test_interval_must_be_nonempty(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent.derate("gmi0:r", start=5.0, end=5.0, factor=0.5)
        with pytest.raises(FaultInjectionError):
            FaultEvent.stall("gmi0:r", start=5.0, end=2.0)

    def test_negative_start_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent.failure("noc:r", start=-1.0)

    def test_permanent_failure_has_no_end(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(
                FaultKind.PERMANENT_FAILURE, "noc:r", start=0.0, end=10.0
            )

    def test_flapping_needs_period_and_duty(self):
        with pytest.raises(FaultInjectionError):
            FaultEvent(
                FaultKind.FLAPPING, "noc:r", start=0.0, end=10.0,
                flap_period=0.0,
            )
        with pytest.raises(FaultInjectionError):
            FaultEvent.flapping(
                "noc:r", start=0.0, end=10.0, period=2.0, duty=1.0
            )

    def test_severity_bounds(self):
        with pytest.raises(FaultInjectionError):
            FaultSchedule([], severity=1.5)
        with pytest.raises(FaultInjectionError):
            FaultSchedule([]).scaled(-0.1)


# --------------------------------------------------------------------------
# factor queries


class TestFactors:
    def test_factor_timeline(self):
        schedule = FaultSchedule(
            [FaultEvent.derate("gmi0:r", start=10.0, end=20.0, factor=0.4)]
        )
        assert schedule.factor_at("gmi0:r", 5.0) == 1.0
        assert schedule.factor_at("gmi0:r", 10.0) == pytest.approx(0.4)
        assert schedule.factor_at("gmi0:r", 19.9) == pytest.approx(0.4)
        assert schedule.factor_at("gmi0:r", 20.0) == 1.0
        assert schedule.factor_at("unrelated:r", 15.0) == 1.0

    def test_overlapping_faults_multiply(self):
        schedule = FaultSchedule([
            FaultEvent.derate("noc:r", start=0.0, end=10.0, factor=0.5),
            FaultEvent.derate("noc:r", start=5.0, end=15.0, factor=0.5),
        ])
        assert schedule.factor_at("noc:r", 2.0) == pytest.approx(0.5)
        assert schedule.factor_at("noc:r", 7.0) == pytest.approx(0.25)
        assert schedule.factor_at("noc:r", 12.0) == pytest.approx(0.5)

    def test_permanent_failure_never_ends(self):
        schedule = FaultSchedule([FaultEvent.failure("umc0:r", start=3.0)])
        assert schedule.factor_at("umc0:r", 1e12) == pytest.approx(0.05)

    def test_derates_at_and_worst(self):
        schedule = FaultSchedule([
            FaultEvent.derate("gmi0:r", start=0.0, end=10.0, factor=0.6),
            FaultEvent.derate("gmi1:r", start=20.0, end=30.0, factor=0.3),
        ])
        assert schedule.derates_at(5.0) == {"gmi0:r": pytest.approx(0.6)}
        worst = schedule.worst_derates()
        assert worst["gmi0:r"] == pytest.approx(0.6)
        assert worst["gmi1:r"] == pytest.approx(0.3)


# --------------------------------------------------------------------------
# severity scaling


class TestSeverity:
    def test_zero_severity_is_null(self):
        schedule = FaultSchedule([
            FaultEvent.derate("gmi0:r", start=0.0, end=10.0, factor=0.2),
            FaultEvent.stall("noc:r", start=5.0, end=8.0),
        ])
        null = schedule.scaled(0.0)
        assert null.is_null
        assert null.channels == []
        assert null.factor_at("gmi0:r", 5.0) == 1.0
        assert null.worst_derates() == {}
        assert not schedule.is_null

    def test_depth_interpolates(self):
        schedule = FaultSchedule(
            [FaultEvent.derate("gmi0:r", start=0.0, end=10.0, factor=0.2)]
        )
        assert schedule.scaled(0.5).factor_at("gmi0:r", 5.0) == pytest.approx(
            1.0 - 0.5 * 0.8
        )
        assert schedule.scaled(1.0).factor_at("gmi0:r", 5.0) == pytest.approx(
            0.2
        )

    def test_stall_scales_duration_not_depth(self):
        schedule = FaultSchedule(
            [FaultEvent.stall("gmi0:r", start=100.0, end=300.0)]
        )
        half = schedule.scaled(0.5)
        assert half.stall_windows("gmi0:r") == [(100.0, 200.0)]
        # Depth stays the full stall factor at any nonzero severity.
        assert half.factor_at("gmi0:r", 150.0) == pytest.approx(STALL_FACTOR)

    def test_scaled_is_rescalable(self):
        schedule = FaultSchedule(
            [FaultEvent.stall("gmi0:r", start=0.0, end=100.0)]
        )
        # scaled() derives from the original events, so re-scaling up after
        # scaling down restores the full window.
        assert schedule.scaled(0.25).scaled(1.0).stall_windows("gmi0:r") == [
            (0.0, 25.0)
        ]


# --------------------------------------------------------------------------
# flapping determinism


class TestFlapping:
    def test_same_seed_same_curve(self):
        def curve(seed):
            schedule = FaultSchedule(
                [FaultEvent.flapping(
                    "noc:r", start=0.0, end=100.0, period=7.0, factor=0.5
                )],
                seed=seed,
            )
            return [schedule.factor_at("noc:r", t * 0.5) for t in range(200)]

        assert curve(1) == curve(1)
        assert curve(1) != curve(2)

    def test_flap_curve_stable_under_unrelated_edits(self):
        flap = FaultEvent.flapping(
            "noc:r", start=0.0, end=50.0, period=5.0, factor=0.5
        )
        alone = FaultSchedule([flap])
        with_extra = FaultSchedule(
            [flap, FaultEvent.derate("gmi0:r", 0.0, 10.0, 0.5)]
        )
        for t in range(0, 100):
            assert alone.factor_at("noc:r", t * 0.5) == with_extra.factor_at(
                "noc:r", t * 0.5
            )

    def test_duty_cycle_respected(self):
        schedule = FaultSchedule(
            [FaultEvent.flapping(
                "noc:r", start=0.0, end=1000.0, period=10.0,
                factor=0.5, duty=0.3,
            )]
        )
        samples = [schedule.factor_at("noc:r", t * 0.25) for t in range(4000)]
        down = sum(1 for s in samples if s < 1.0) / len(samples)
        assert 0.2 < down < 0.4


# --------------------------------------------------------------------------
# fluid-backend compilation


class TestFluidBackend:
    def test_with_faults_matches_static_derates(self, p7302):
        schedule = FaultSchedule(
            [FaultEvent.derate("gmi0:r", start=0.0, end=10.0, factor=0.5)]
        )
        faulted = FabricModel.with_faults(p7302, schedule)
        static = FabricModel(p7302, derates={"gmi0:r": 0.5})
        assert (
            faulted.channel("gmi0:r").capacity_gbps
            == static.channel("gmi0:r").capacity_gbps
        )

    def test_with_faults_null_schedule_is_healthy(self, p7302):
        null = FaultSchedule([
            FaultEvent.derate("gmi0:r", 0.0, 10.0, 0.5)
        ]).scaled(0.0)
        assert (
            FabricModel.with_faults(p7302, null).channel("gmi0:r").capacity_gbps
            == FabricModel(p7302).channel("gmi0:r").capacity_gbps
        )

    def test_capacity_factors_drive_fluid_simulator(self):
        link = Channel("link", 10.0)
        flow = FluidFlow("f", 10.0, [(link, 1.0)])
        schedule = FaultSchedule(
            [FaultEvent.derate("link", start=0.5, end=1.0, factor=0.4)]
        )
        sim = FluidSimulator(
            [flow],
            {"f": DemandSchedule(10.0)},
            policy=Policy.MAX_MIN,
            dt_s=0.1,
            capacity_schedules=schedule.capacity_factors(),
            strict=True,
        )
        trace = sim.run(1.0)["f"]
        # Samples land at step*dt; index instead of keying on floats.
        assert trace.achieved_gbps[2] == pytest.approx(10.0)   # t=0.2
        assert trace.achieved_gbps[7] == pytest.approx(4.0)    # t=0.7


# --------------------------------------------------------------------------
# DES-backend compilation


def _gmi_read_server(p7302):
    env = Environment()
    resolver = PathResolver(env, p7302, seed=0)
    return env, resolver, resolve_channel(resolver, "gmi0:r")


class TestDesBackend:
    def test_rate_reshape_applies_at_change_points(self, p7302):
        env, resolver, server = _gmi_read_server(p7302)
        base = server.gbps
        schedule = FaultSchedule(
            [FaultEvent.derate("gmi0:r", start=100.0, end=300.0, factor=0.25)]
        )
        assert install(resolver, schedule)
        env.run(until=50.0)
        assert server.gbps == base
        env.run(until=200.0)
        assert server.gbps == pytest.approx(base * 0.25)
        env.run(until=400.0)
        assert server.gbps == pytest.approx(base)

    def test_stall_seizes_all_lanes(self, p7302):
        env, resolver, server = _gmi_read_server(p7302)
        schedule = FaultSchedule(
            [FaultEvent.stall("gmi0:r", start=100.0, end=200.0)]
        )
        install(resolver, schedule)
        env.run(until=150.0)
        assert server.count == server.capacity
        env.run(until=250.0)
        assert server.count == 0

    def test_stall_claims_are_not_transfers(self):
        # Both lanes of a 2-lane direction are busy when the stall starts,
        # so its lane claims queue behind the transfers. The counters read
        # what the two transfers alone set: the claims count in neither
        # transfers nor the backlog.
        env = Environment()
        server = _DirectionServer(env, gbps=6.4, lanes=2)  # 64 B: 20 ns
        done = []

        def transfer():
            yield from server.transfer(64)
            done.append(env.now)

        env.process(transfer())
        env.process(transfer())
        stall = env.process(_stall(env, server, start_ns=5.0, end_ns=50.0))
        env.run()
        # The transfers finish undisturbed; the stall then holds to its end.
        assert done == [20.0, 20.0]
        assert stall.processed and env.now == 50.0
        assert server.transfers == 2
        assert server.max_queue_len == 0
        assert server.busy_ns == 40.0
        assert server.bytes_served == 128

    def test_null_schedule_installs_nothing(self, p7302):
        env, resolver, __ = _gmi_read_server(p7302)
        schedule = FaultSchedule(
            [FaultEvent.stall("gmi0:r", start=0.0, end=100.0)]
        ).scaled(0.0)
        assert install(resolver, schedule) == []
        env.run()
        assert env.now == 0.0

    def test_unknown_channel_rejected_eagerly(self, p7302):
        env, resolver, __ = _gmi_read_server(p7302)
        for channel in ("gmi99:r", "umc99:w", "bogus", "ccx0:r"):
            with pytest.raises(FaultInjectionError):
                install(
                    resolver,
                    FaultSchedule([
                        FaultEvent.derate(channel, 0.0, 10.0, 0.5)
                    ]),
                )

    def test_xgmi_resolves_only_with_remote_socket(self, p7302, p9634):
        assert p7302.has_remote_socket
        env = Environment()
        resolver = PathResolver(env, p7302, seed=0)
        assert resolve_channel(resolver, "xgmi:r") is not None
        assert not p9634.has_remote_socket
        single = PathResolver(Environment(), p9634, seed=0)
        with pytest.raises(FaultInjectionError):
            resolve_channel(single, "xgmi:r")

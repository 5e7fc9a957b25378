"""Tests for the time-stepped fluid simulator."""

import math

import numpy as np
import pytest

from repro.analysis.timeseries import TimeSeries
from repro.errors import ConfigurationError
from repro.experiments import fig5
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.fluid.adaptation import FirstOrderAdaptation, SecondOrderAdaptation
from repro.fluid.solver import Channel, FluidFlow, Policy
from repro.fluid.timeseries import DemandSchedule, FluidSimulator

NON_FINITE = (math.nan, math.inf, -math.inf)


class TestDemandSchedule:
    def test_base_only(self):
        schedule = DemandSchedule(10.0)
        assert schedule.at(0.0) == 10.0
        assert schedule.at(100.0) == 10.0

    def test_delta_window(self):
        schedule = DemandSchedule(10.0, ((2.0, 3.0, -2.0),))
        assert schedule.at(1.99) == 10.0
        assert schedule.at(2.0) == 8.0
        assert schedule.at(2.99) == 8.0
        assert schedule.at(3.0) == 10.0

    def test_overlapping_deltas_sum(self):
        schedule = DemandSchedule(10.0, ((1.0, 3.0, -2.0), (2.0, 4.0, -1.0)))
        assert schedule.at(2.5) == 7.0

    def test_never_negative(self):
        schedule = DemandSchedule(1.0, ((0.0, 1.0, -5.0),))
        assert schedule.at(0.5) == 0.0

    def test_empty_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            DemandSchedule(1.0, ((2.0, 2.0, -1.0),))

    def test_negative_base_rejected(self):
        with pytest.raises(ConfigurationError):
            DemandSchedule(-1.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_base_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            DemandSchedule(value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_delta_rejected(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            DemandSchedule(1.0, ((0.0, 1.0, value),))


class TestFluidSimulator:
    def _build(self, adaptations=None, dt_s=0.01):
        channel = Channel("link", 20.0)
        flows = [
            FluidFlow("paced", 10.0).add(channel),
            FluidFlow("greedy", 80.0, elastic=True).add(channel),
        ]
        schedules = {
            "paced": DemandSchedule(10.0, ((1.0, 2.0, -4.0),)),
            "greedy": DemandSchedule(80.0),
        }
        return FluidSimulator(flows, schedules, adaptations, dt_s=dt_s)

    def test_missing_schedule_rejected(self):
        channel = Channel("link", 20.0)
        with pytest.raises(ConfigurationError):
            FluidSimulator([FluidFlow("f", 1.0).add(channel)], {})

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            self._build(dt_s=0.0)

    def test_bad_duration_rejected(self):
        sim = self._build()
        with pytest.raises(ConfigurationError):
            sim.run(0.0)

    def test_instant_adaptation_tracks_allocation(self):
        traces = self._build().run(3.0)
        greedy = traces["greedy"].achieved_series()
        # Before the throttle: residual 10; during [1,2): residual 14.
        assert greedy.mean_between(0.5, 1.0) == pytest.approx(10.0)
        assert greedy.mean_between(1.5, 2.0) == pytest.approx(14.0)
        assert greedy.mean_between(2.5, 3.0) == pytest.approx(10.0)

    def test_capacity_never_exceeded_with_instant_adaptation(self):
        traces = self._build().run(3.0)
        total = (
            traces["paced"].achieved_series().values
            + traces["greedy"].achieved_series().values
        )
        assert total.max() <= 20.0 + 1e-6

    def test_first_order_lags_the_step(self):
        adaptations = {"greedy": FirstOrderAdaptation.from_settling_time(0.2)}
        traces = self._build(adaptations).run(3.0)
        greedy = traces["greedy"].achieved_series()
        # Right after the throttle begins the slow flow has not yet ramped.
        just_after = greedy.mean_between(1.0, 1.05)
        assert just_after < 12.0
        # By the end of the window it has.
        assert greedy.mean_between(1.8, 2.0) == pytest.approx(14.0, abs=0.3)

    def test_settling_time_measurement(self):
        adaptations = {"greedy": FirstOrderAdaptation.from_settling_time(0.2)}
        traces = self._build(adaptations).run(3.0)
        settle = traces["greedy"].achieved_series().settling_time_s(
            1.0, target=14.0, tolerance=0.4, end_s=2.0
        )
        assert settle == pytest.approx(0.2, abs=0.05)

    def test_traces_record_demand(self):
        traces = self._build().run(3.0)
        paced = traces["paced"]
        demand = TimeSeries(
            np.asarray(paced.times_s), np.asarray(paced.demand_gbps)
        )
        assert demand.mean_between(1.2, 1.8) == pytest.approx(6.0)
        assert demand.mean_between(0.0, 1.0) == pytest.approx(10.0)

    def test_trace_times_cover_duration(self):
        traces = self._build().run(3.0)
        times = traces["paced"].achieved_series().times_s
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(3.0 - 0.01)


class TestRunMatchesReference:
    """``run`` (precomputed schedules + memoized solves) must reproduce
    ``_run_reference`` (re-solve every step) bit for bit."""

    @staticmethod
    def _simulator(policy):
        shared = Channel("shared", 30.0)
        left = Channel("left", 18.0)
        right = Channel("right", 25.0)
        flows = [
            FluidFlow("paced", 12.0, weight=2.0).add(left).add(shared),
            FluidFlow("greedy", 60.0, elastic=True).add(shared),
            FluidFlow("side", 20.0, weight=0.5).add(right).add(shared, 1.0625),
        ]
        schedules = {
            "paced": DemandSchedule(12.0, ((0.3, 0.6, -7.0),)),
            "greedy": DemandSchedule(60.0),
            "side": DemandSchedule(
                20.0, ((0.1, 0.8, 15.0), (0.5, 0.9, -30.0))
            ),
        }
        adaptations = {
            "paced": FirstOrderAdaptation.from_settling_time(0.1),
            "greedy": SecondOrderAdaptation(omega_rad_s=40.0, zeta=0.3),
        }
        flapping = FaultSchedule(
            [FaultEvent.flapping("right", 0.2, 0.9, period=0.08, factor=0.3)]
        )
        return FluidSimulator(
            flows,
            schedules,
            adaptations,
            policy=policy,
            dt_s=0.01,
            capacity_schedules={
                # A step: the shared channel loses 40% in [0.4, 0.7).
                "shared": DemandSchedule(1.0, ((0.4, 0.7, -0.4),)),
                "right": flapping.capacity_factors()["right"],
            },
            strict=True,
        )

    @pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
    def test_every_policy_with_capacity_schedules(self, policy):
        fast = self._simulator(policy).run(1.0)
        reference = self._simulator(policy)._run_reference(1.0)
        assert list(fast) == list(reference)
        for name, ref_trace in reference.items():
            assert fast[name].times_s == ref_trace.times_s
            assert fast[name].achieved_gbps == ref_trace.achieved_gbps
            assert fast[name].demand_gbps == ref_trace.demand_gbps

    def test_fig5_traces_identical(self, p9634, monkeypatch):
        # The full Figure 5 panel: adaptation dynamics, fault-free capacity
        # schedule, thousands of steps.
        fast = fig5.run(p9634, "if", duration_s=1.0, dt_s=0.005)
        monkeypatch.setattr(
            FluidSimulator, "run", FluidSimulator._run_reference
        )
        reference = fig5.run(p9634, "if", duration_s=1.0, dt_s=0.005)
        assert set(reference.traces) == set(fast.traces)
        for name, ref_trace in reference.traces.items():
            fast_trace = fast.traces[name]
            assert fast_trace.times_s == ref_trace.times_s
            assert fast_trace.achieved_gbps == ref_trace.achieved_gbps

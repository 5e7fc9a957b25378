"""Cross-backend conformance suite (tier-2; run with ``-m conformance``).

Two agreement contracts, with their tolerances stated where they are
asserted:

* **DES vs fluid** — the netstack contention cell run on both backends
  must tell the same story on every platform preset: victim shares within
  ``0.35`` absolute (the DES sees queueing transients the steady-state
  fluid model abstracts away — on the 7302 the observed gap is ~0.33),
  with the stack arms improving the victim monotonically on both;
* **traced vs untraced** — tracing must be bit-identical (exact float
  equality) on every preset and under a fault schedule, including the
  null-schedule case.

The fluid solver's own invariants (no allocation below zero or above its
demand, no channel above capacity) are checked on four flow-set shapes,
one of them derated by a fault schedule, under every policy.

Excluded from tier-1 by the ``conformance`` marker (see pyproject.toml);
CI runs it as a separate job via ``make conformance``.
"""

import pytest

from repro.experiments import netstack
from repro.fluid.solver import Channel, FluidFlow, Policy, solve
from repro.platform.presets import epyc_7302, epyc_9634, synthetic_ucie

pytestmark = pytest.mark.conformance

#: Documented DES-vs-fluid tolerance on the victim's share of its demand.
DES_FLUID_SHARE_TOL = 0.35

_PRESETS = {
    "7302": epyc_7302,
    "9634": epyc_9634,
    "synthetic": synthetic_ucie,
}


@pytest.fixture(scope="module", params=sorted(_PRESETS))
def preset(request):
    """Every platform preset, including the synthetic UCIe design."""
    return _PRESETS[request.param]()


# --------------------------------------------------- fluid solver invariants


def _scenario_shared_bottleneck():
    """Many flows over one bottleneck plus private feeders."""
    shared = Channel("shared", 40.0)
    flows = []
    for index in range(16):
        feeder = Channel(f"feeder{index}", 10.0)
        flows.append(
            FluidFlow(f"f{index}", 4.0 + index * 0.5, weight=1 + index % 3)
            .add(feeder)
            .add(shared, weight=1.0 + (index % 2) * 0.0625)
        )
    return flows


def _scenario_chain():
    """A chain of channels with flows entering and leaving along it."""
    chain = [Channel(f"hop{i}", 25.0 - i) for i in range(6)]
    flows = []
    for index in range(14):
        flow = FluidFlow(f"c{index}", 3.0 + (index % 5))
        for channel in chain[index % 3 : 3 + index % 4]:
            flow.add(channel)
        if not flow.path:
            flow.add(chain[0])
        flows.append(flow)
    return flows


def _scenario_elastic_mix():
    """Paced and elastic flows sharing endpoints (the Figure 5 shape)."""
    endpoints = [Channel(f"umc{i}", 21.3) for i in range(4)]
    flows = []
    for index in range(12):
        flows.append(
            FluidFlow(
                f"m{index}",
                30.0 if index % 3 == 0 else 8.0,
                elastic=index % 3 == 0,
            ).add(endpoints[index % 4])
        )
    return flows


def _scenario_fault_derated():
    """The shared-bottleneck set with fault-derated capacities.

    Capacities are scaled by a :class:`FaultSchedule`'s worst-case derate
    factors — the same reduction the fluid chaos experiments apply — so
    the invariants are checked on the capacity sets faults produce.
    """
    from repro.faults.schedule import FaultEvent, FaultSchedule

    schedule = FaultSchedule([
        FaultEvent.derate("shared", 0.0, 1000.0, 0.4),
        FaultEvent.derate("feeder3", 0.0, 1000.0, 0.75),
        FaultEvent.flapping("feeder7", 0.0, 1000.0, period=100.0, factor=0.5),
    ])
    factors = schedule.worst_derates()
    flows = _scenario_shared_bottleneck()
    derated = {}
    for flow in flows:
        for index, (channel, weight) in enumerate(flow.path):
            factor = factors.get(channel.name, 1.0)
            if channel.name not in derated:
                derated[channel.name] = Channel(
                    channel.name, channel.capacity_gbps * factor
                )
            flow.path[index] = (derated[channel.name], weight)
    return flows


_SCENARIOS = {
    "shared-bottleneck": _scenario_shared_bottleneck,
    "chain": _scenario_chain,
    "elastic-mix": _scenario_elastic_mix,
    "fault-derated": _scenario_fault_derated,
}


class TestFluidSolverInvariants:
    @pytest.mark.parametrize("scenario", sorted(_SCENARIOS))
    @pytest.mark.parametrize("policy", list(Policy))
    def test_invariants_hold(self, scenario, policy):
        flows = _SCENARIOS[scenario]()
        alloc = solve(flows, policy=policy)
        loads: dict = {}
        for flow in flows:
            assert alloc[flow.name] >= 0.0, flow.name
            assert alloc[flow.name] <= flow.demand_gbps + 1e-9, flow.name
            for channel, weight in flow.path:
                loads.setdefault(channel, 0.0)
                loads[channel] += alloc[flow.name] * weight
        for channel, load in loads.items():
            assert load <= channel.capacity_gbps + 1e-6, channel.name


class TestFluidFaultMonotonicity:
    def test_victim_share_never_rises_with_severity(self):
        """Scaling a derate's severity up never helps the derated flow."""
        from repro.faults.schedule import FaultEvent, FaultSchedule

        base = FaultSchedule([
            FaultEvent.derate("shared", 0.0, 1000.0, 0.8),
        ])
        previous = None
        for severity in (0.0, 0.25, 0.5, 0.75, 1.0):
            factors = base.scaled(severity).worst_derates()
            factor = factors.get("shared", 1.0)
            shared = Channel("shared", 40.0 * factor)
            flows = [
                FluidFlow("victim", 24.0).add(shared),
                FluidFlow("hog", 64.0).add(shared),
            ]
            share = solve(flows)["victim"] / 24.0
            if previous is not None:
                assert share <= previous + 1e-12
            previous = share


# --------------------------------------------------------- DES vs fluid


class TestDesVsFluid:
    @pytest.fixture(scope="class")
    def points(self, request):
        cache = {}

        def compute(platform):
            key = platform.name
            if key not in cache:
                cache[key] = {
                    (arm, backend): netstack.run_point(
                        platform, arm, backend, transactions_per_core=150
                    )
                    for arm in netstack.ARMS
                    for backend in netstack.BACKENDS
                }
            return cache[key]

        return compute

    @pytest.mark.parametrize("arm", netstack.ARMS)
    def test_victim_share_within_tolerance(self, preset, points, arm):
        cell = points(preset)
        fluid = cell[(arm, "fluid")]
        des = cell[(arm, "des")]
        assert abs(fluid.victim_share - des.victim_share) <= DES_FLUID_SHARE_TOL
        assert 0.0 < des.victim_share <= 1.0 + 1e-9
        assert 0.0 < fluid.victim_share <= 1.0 + 1e-9

    @pytest.mark.parametrize("backend", netstack.BACKENDS)
    def test_arms_improve_victim_monotonically(self, preset, points, backend):
        cell = points(preset)
        shares = [cell[(arm, backend)].victim_share for arm in netstack.ARMS]
        assert shares == sorted(shares)  # off <= credits <= credits+qos

    def test_des_credits_improve_jain_everywhere(self, preset, points):
        cell = points(preset)
        assert (
            cell[("credits", "des")].jain >= cell[("off", "des")].jain
        )


# ------------------------------------------------- traced == untraced


class TestTracedBitIdentity:
    def test_netstack_point_identical_on_every_preset(self, preset):
        traced, __, __p = netstack.run_point_traced(
            preset, "credits", transactions_per_core=40
        )
        untraced = netstack.run_point(
            preset, "credits", "des", transactions_per_core=40
        )
        assert traced == untraced

    def test_pointer_chase_identical_on_every_preset(self, preset):
        from repro.core.microbench import MicroBench
        from repro.trace import Tracer

        base = MicroBench(preset, seed=2).pointer_chase(
            64 << 20, iterations=120
        )
        traced = MicroBench(preset, seed=2).pointer_chase(
            64 << 20, iterations=120, tracer=Tracer()
        )
        assert base == traced

    def test_null_fault_schedule_stays_identical(self, p7302):
        """The fault-schedule dimension: a null schedule changes nothing."""
        from repro.core.microbench import MicroBench
        from repro.faults.schedule import FaultSchedule
        from repro.transport.message import OpKind

        healthy = MicroBench(p7302, seed=0).loaded_latency(
            core_ids=[0, 1], op=OpKind.READ,
            offered_gbps=8.0, transactions_per_core=120,
        )
        null = MicroBench(p7302, seed=0).loaded_latency(
            core_ids=[0, 1], op=OpKind.READ,
            offered_gbps=8.0, transactions_per_core=120,
            fault_schedule=FaultSchedule([]),
        )
        assert healthy.stats == null.stats


# --------------------------------------------------------- recovery agreement

#: Acceptance criterion of the recovery loop: after a permanent cross-die
#: link failure, the victim's post-failure steady-state throughput must
#: return to at least this fraction of pre-failure — on both backends, on
#: every preset.
RECOVERED_FLOOR = 0.8

#: Cross-backend agreement window (ns) on the DEAD detection time: the
#: fluid monitor samples the schedule's capacity factors, the DES waits
#: out real in-service deadlines first, so the DES trails by up to a
#: couple of service timeouts.
DETECT_AGREEMENT_NS = 700.0


class TestRecoveryConformance:
    """Both backends must tell the same collapse-then-recovery story."""

    def test_recovery_restores_the_victim_on_every_preset(self, preset):
        from repro.experiments import chaos

        for backend in ("fluid", "des"):
            collapsed = chaos.run_recovery_point(preset, backend, False)
            recovered = chaos.run_recovery_point(preset, backend, True)
            # Same scenario, same pre-failure throughput.
            assert recovered.pre_gbps == pytest.approx(
                collapsed.pre_gbps, rel=1e-9
            )
            # Without recovery the failure sticks; with it, the victim
            # returns to >= 80% of pre-failure steady state.
            assert collapsed.recovered < RECOVERED_FLOOR, (
                preset.name, backend, collapsed.recovered
            )
            assert recovered.recovered >= RECOVERED_FLOOR, (
                preset.name, backend, recovered.recovered
            )

    def test_detection_times_agree_across_backends(self, preset):
        from repro.experiments import chaos

        fluid = chaos.run_recovery_point(preset, "fluid", True)
        des = chaos.run_recovery_point(preset, "des", True)
        assert fluid.detect_ns == fluid.detect_ns  # not NaN
        assert des.detect_ns == des.detect_ns
        # The fluid verdict (schedule telemetry) leads; the DES (real
        # in-service deadlines) follows within the documented window.
        assert fluid.detect_ns <= des.detect_ns
        assert des.detect_ns - fluid.detect_ns <= DETECT_AGREEMENT_NS

    def test_only_the_des_reclaims_real_credits(self, preset):
        from repro.experiments import chaos

        fluid = chaos.run_recovery_point(preset, "fluid", True)
        des = chaos.run_recovery_point(preset, "des", True)
        assert fluid.reclaimed == 0  # no event loop, no stranded leases
        assert des.reclaimed > 0  # real stranded credits went home
        assert des.retries > 0 and des.failovers > 0

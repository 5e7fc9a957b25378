"""Cross-backend agreement and warm-start tests for the vectorized solver.

The NumPy fast path must agree with the pure-Python reference within 1e-9
on every allocation (the figure pipelines then round well above that, so
their outputs stay byte-identical). These tests pin that contract on the
real experiment topologies, on random topologies (hypothesis), and on the
warm-start shortcuts a capacity sweep exercises.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fabric import FabricModel
from repro.core.flows import Scope, StreamSpec
from repro.errors import ConfigurationError
from repro.experiments import fig5
from repro.experiments.contention import contention_streams, shared_umc_ids
from repro.fluid import solver, vectorized
from repro.fluid.solver import Channel, FluidFlow, Policy, solve
from repro.fluid.vectorized import CompiledProblem, solve_vectorized
from repro.net.qos import QosClass
from repro.net.stack import NetStackConfig, fluid_allocation
from repro.platform.presets import epyc_7302, epyc_9634
from repro.transport.message import OpKind

POLICIES = (Policy.DEMAND_PROPORTIONAL, Policy.MAX_MIN, Policy.WEIGHTED)

#: The cross-backend agreement bound the module contract promises.
TOL = 1e-9


def assert_backends_agree(pin_fluid, flows_factory, policy):
    """Both implementations solve the same problem to within TOL."""
    pin_fluid("python")
    reference = solve(flows_factory(), policy)
    pin_fluid("numpy")
    fast = solve(flows_factory(), policy)
    assert set(reference) == set(fast)
    for name in reference:
        assert fast[name] == pytest.approx(reference[name], abs=TOL), name


class TestSizeSwitch:
    """``solve`` picks its implementation from the flow count alone;
    ``pin_fluid`` overrides that choice, which the agreement tests rely on."""

    @staticmethod
    def _flows(count):
        channel = Channel("link", 20.0)
        return [FluidFlow(f"f{j}", 1.0 + j).add(channel) for j in range(count)]

    @pytest.mark.parametrize(
        "pin, count, vectorized_calls",
        [
            (None, solver._AUTO_MIN_FLOWS - 1, 0),
            (None, solver._AUTO_MIN_FLOWS, 1),
            ("python", solver._AUTO_MIN_FLOWS, 0),
            ("numpy", 1, 1),
        ],
    )
    def test_vectorized_from_threshold(
        self, monkeypatch, pin_fluid, pin, count, vectorized_calls
    ):
        if pin is not None:
            pin_fluid(pin)
        calls = []

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return solve_vectorized(*args, **kwargs)

        monkeypatch.setattr(vectorized, "solve_vectorized", spy)
        alloc = solve(self._flows(count))
        assert len(alloc) == count
        assert calls == [count] * vectorized_calls


class TestExperimentTopologies:
    """Agreement on the topologies the real experiments actually solve."""

    @pytest.mark.parametrize("preset", [epyc_7302, epyc_9634])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_cpu_streaming_read(self, preset, policy, pin_fluid):
        platform = preset()
        fabric = FabricModel(platform)
        cores = StreamSpec.cores_for_scope(platform, Scope.CPU)
        spec = StreamSpec("scan", OpKind.READ, cores)
        pin_fluid("python")
        reference = fabric.achieved_gbps([spec], policy=policy)
        pin_fluid("numpy")
        fast = fabric.achieved_gbps([spec], policy=policy)
        assert fast["scan"] == pytest.approx(reference["scan"], abs=TOL)

    @pytest.mark.parametrize("preset", [epyc_7302, epyc_9634])
    def test_contention_cell(self, preset, pin_fluid):
        platform = preset()
        fabric = FabricModel(platform)
        for policy in POLICIES:
            pin_fluid("python")
            reference = fabric.achieved_gbps(
                list(contention_streams(platform)), policy=policy
            )
            pin_fluid("numpy")
            fast = fabric.achieved_gbps(
                list(contention_streams(platform)), policy=policy
            )
            for name in reference:
                assert fast[name] == pytest.approx(
                    reference[name], abs=TOL
                ), (policy, name)

    @pytest.mark.parametrize(
        "config",
        [
            NetStackConfig.off(),
            NetStackConfig.with_credits(),
            NetStackConfig.with_qos(
                {"victim": QosClass.LATENCY, "hog": QosClass.BULK}
            ),
        ],
        ids=lambda config: config.label,
    )
    def test_netstack_arms(self, config, pin_fluid):
        platform = epyc_9634()
        fabric = FabricModel(platform)
        streams = list(contention_streams(platform))
        shared = shared_umc_ids(platform)
        pin_fluid("python")
        reference = fluid_allocation(fabric, streams, config, umc_ids=shared)
        pin_fluid("numpy")
        fast = fluid_allocation(fabric, streams, config, umc_ids=shared)
        for name in reference:
            assert fast[name] == pytest.approx(reference[name], abs=TOL), name

    def test_fig5_traces_identical(self, pin_fluid):
        # The full Figure 5 panel — adaptation dynamics, fault-free capacity
        # schedule, thousands of solves. The fast path must reproduce the
        # reference traces bit-for-bit (same FP op order per element).
        platform = epyc_9634()
        pin_fluid("python")
        reference = fig5.run(platform, "if", duration_s=1.0, dt_s=0.005)
        pin_fluid("numpy")
        fast = fig5.run(platform, "if", duration_s=1.0, dt_s=0.005)
        assert set(reference.traces) == set(fast.traces)
        for name, ref_trace in reference.traces.items():
            fast_trace = fast.traces[name]
            assert fast_trace.times_s == ref_trace.times_s
            assert fast_trace.achieved_gbps == ref_trace.achieved_gbps


class TestRandomTopologies:
    # pin_fluid sets both sides explicitly on every example, so sharing
    # the function-scoped fixture across examples leaks no state.
    @given(data=st.data())
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_backends_agree(self, pin_fluid, data):
        n_flows = data.draw(st.integers(1, 6), label="n_flows")
        n_channels = data.draw(st.integers(1, 5), label="n_channels")
        capacities = data.draw(
            st.lists(
                st.floats(0.5, 200.0, allow_nan=False),
                min_size=n_channels, max_size=n_channels,
            ),
            label="capacities",
        )
        rows = []
        for j in range(n_flows):
            demand = data.draw(st.floats(0.0, 300.0), label=f"demand{j}")
            elastic = data.draw(st.booleans(), label=f"elastic{j}")
            weight = data.draw(st.floats(0.25, 4.0), label=f"weight{j}")
            # Distinct channels per path, like every real topology: the
            # reference solver's scale-down pass can oscillate forever on a
            # channel duplicated within one path, so duplicate entries have
            # no well-defined allocation to agree on.
            path = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, n_channels - 1),
                        st.floats(0.5, 2.0),
                    ),
                    min_size=0, max_size=n_channels,
                    unique_by=lambda entry: entry[0],
                ),
                label=f"path{j}",
            )
            rows.append((demand, elastic, weight, path))
        policy = data.draw(st.sampled_from(POLICIES), label="policy")

        def build():
            channels = [
                Channel(f"ch{k}", capacities[k]) for k in range(n_channels)
            ]
            flows = []
            for j, (demand, elastic, weight, path) in enumerate(rows):
                flow = FluidFlow(
                    f"f{j}", demand, elastic=elastic, weight=weight
                )
                for channel_index, link_weight in path:
                    flow.add(channels[channel_index], weight=link_weight)
                flows.append(flow)
            return flows

        assert_backends_agree(pin_fluid, build, policy)


class TestWarmStarts:
    def _problem(self):
        a = Channel("a", 30.0)
        b = Channel("b", 18.0)
        flows = [
            FluidFlow("f0", 20.0).add(a).add(b),
            FluidFlow("f1", 20.0).add(b),
            FluidFlow("f2", 9.0).add(a),
        ]
        return CompiledProblem(flows)

    def test_exact_reuse_returns_same_array(self):
        problem = self._problem()
        first = problem.solve_array(Policy.MAX_MIN)
        second = problem.solve_array(Policy.MAX_MIN)
        assert second is first
        assert not first.flags.writeable

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_sweep_matches_cold(self, policy):
        # A fault-timeline-style sweep: capacities scale up and down while
        # demands stay fixed. Warm solves must match cold solves within TOL
        # at every point — including the warm path's verified reuses.
        problem = self._problem()
        cold = self._problem()
        base = problem.base_capacities.copy()
        for factor in (1.0, 0.85, 0.85, 0.4, 1.0, 1.2, 0.4, 1.0):
            caps = base * factor
            warm_alloc = problem.solve_array(policy, capacities=caps)
            cold_alloc = cold.solve_array(
                policy, capacities=caps, warm=False
            )
            np.testing.assert_allclose(
                warm_alloc, cold_alloc, rtol=0.0, atol=TOL
            )

    def test_verify_rejects_wrong_allocation(self):
        problem = self._problem()
        demands = problem.base_demands
        caps = problem.base_capacities
        good = problem.solve_array(Policy.MAX_MIN, warm=False)
        assert problem.verify_max_min(good, demands, caps, use_weights=False)
        bad = np.array(good)
        bad[0] = 0.0  # starved flow with no bottleneck
        assert not problem.verify_max_min(
            bad, demands, caps, use_weights=False
        )
        infeasible = np.array(good) * 10.0
        assert not problem.verify_max_min(
            infeasible, demands, caps, use_weights=False
        )

    def test_shape_validation(self):
        problem = self._problem()
        with pytest.raises(ConfigurationError, match="demands"):
            problem.solve_array(Policy.MAX_MIN, demands=np.zeros(7))
        with pytest.raises(ConfigurationError, match="capacities"):
            problem.solve_array(Policy.MAX_MIN, capacities=np.zeros(7))

    def test_duplicate_flow_names_rejected(self):
        channel = Channel("x", 10.0)
        flows = [
            FluidFlow("f", 1.0).add(channel),
            FluidFlow("f", 2.0).add(channel),
        ]
        with pytest.raises(ConfigurationError, match="duplicate"):
            CompiledProblem(flows)


class TestSolveVectorizedDirect:
    def test_matches_reference_on_figure4_case2(self):
        def build():
            channel = Channel("link", 20.0)
            return [
                FluidFlow("f0", 4.0).add(channel),
                FluidFlow("f1", 18.0).add(channel),
            ]

        alloc = solve_vectorized(build())
        assert alloc["f0"] == pytest.approx(20.0 * 4 / 22)
        assert alloc["f1"] == pytest.approx(20.0 * 18 / 22)

    def test_zero_weight_flow_rejected_by_both_backends(self, pin_fluid):
        def build():
            channel = Channel("link", 20.0)
            return [FluidFlow("f", 5.0, weight=0.0).add(channel)]

        for implementation in ("python", "numpy"):
            pin_fluid(implementation)
            with pytest.raises(
                ConfigurationError, match="weight must be positive"
            ):
                solve(build(), Policy.WEIGHTED)

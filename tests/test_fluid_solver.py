"""Tests for the fluid bandwidth allocation solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fluid.solver import Channel, FluidFlow, Policy, solve

POLICIES = (Policy.DEMAND_PROPORTIONAL, Policy.MAX_MIN, Policy.WEIGHTED)

#: Where a caller's values come from: plain Python, or read out of NumPy
#: arrays.
SOURCES = ("python", "numpy")
NUMBER = {"python": float, "numpy": np.float64}

NON_FINITE = (math.nan, math.inf, -math.inf)


def two_flows(capacity, d0, d1, policy=Policy.DEMAND_PROPORTIONAL, **kwargs):
    channel = Channel("link", capacity)
    flows = [
        FluidFlow("f0", d0, **kwargs).add(channel),
        FluidFlow("f1", d1, **kwargs).add(channel),
    ]
    return solve(flows, policy)


class TestValidation:
    def test_zero_capacity_channel(self):
        with pytest.raises(ConfigurationError):
            Channel("x", 0.0)

    def test_negative_demand(self):
        with pytest.raises(ConfigurationError):
            FluidFlow("f", -1.0)

    def test_bad_weight(self):
        channel = Channel("x", 10.0)
        with pytest.raises(ConfigurationError):
            FluidFlow("f", 1.0).add(channel, weight=0.0)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_capacity(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            Channel("x", value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_demand(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            FluidFlow("f", value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_path_weight(self, value):
        channel = Channel("x", 10.0)
        with pytest.raises(ConfigurationError, match="finite"):
            FluidFlow("f", 1.0, [(channel, value)])
        with pytest.raises(ConfigurationError, match="finite"):
            FluidFlow("f", 1.0).add(channel, weight=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_share_weight(self, value):
        with pytest.raises(ConfigurationError, match="finite"):
            FluidFlow("f", 1.0, weight=value)

    def test_duplicate_flow_names(self):
        channel = Channel("x", 10.0)
        flows = [FluidFlow("f", 1.0).add(channel), FluidFlow("f", 2.0).add(channel)]
        with pytest.raises(ConfigurationError):
            solve(flows)

    def test_conflicting_channel_objects(self):
        a = Channel("same", 10.0)
        b = Channel("same", 20.0)
        flows = [FluidFlow("f0", 1.0).add(a), FluidFlow("f1", 1.0).add(b)]
        with pytest.raises(ConfigurationError):
            solve(flows)


class TestEdgeCases:
    """Degenerate problems the solver must handle.

    Each case runs twice: with plain Python values, and with the values a
    caller reads out of NumPy arrays (``numpy.float64`` numbers, a NumPy
    object array of flows), where a division by zero yields NaN instead of
    raising.
    """

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_single_flow_single_channel(self, source, policy):
        number = NUMBER[source]
        # Undersubscribed: the flow gets its demand.
        flow = FluidFlow("only", number(6.0)).add(Channel("link", number(10.0)))
        assert solve([flow], policy)["only"] == pytest.approx(6.0)
        # Oversubscribed: the flow gets the capacity.
        flow = FluidFlow("only", number(60.0)).add(Channel("link", number(10.0)))
        assert solve([flow], policy)["only"] == pytest.approx(10.0)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_zero_demand_flow(self, source, policy):
        number = NUMBER[source]
        channel = Channel("link", number(10.0))
        flows = [
            FluidFlow("idle", number(0.0)).add(channel),
            FluidFlow("busy", number(25.0)).add(channel),
        ]
        alloc = solve(flows, policy)
        assert alloc["idle"] == pytest.approx(0.0)
        assert alloc["busy"] == pytest.approx(10.0)

    @pytest.mark.parametrize("source", SOURCES)
    def test_zero_weight_flow_rejected_under_weighted(self, source):
        number = NUMBER[source]
        flow = FluidFlow("f", number(5.0), weight=number(0.0)).add(
            Channel("link", number(10.0))
        )
        with pytest.raises(ConfigurationError, match="weight must be positive"):
            solve([flow], Policy.WEIGHTED)

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_empty_flow_list(self, source, policy):
        no_flows = [] if source == "python" else np.empty(0, dtype=object)
        assert solve(no_flows, policy) == {}


class TestFigure4Cases:
    """The paper's four partitioning cases (§3.5)."""

    def test_case1_undersubscribed(self):
        alloc = two_flows(20.0, 6.0, 10.0)
        assert alloc["f0"] == pytest.approx(6.0)
        assert alloc["f1"] == pytest.approx(10.0)

    def test_case2_aggressive_beats_equal_share(self):
        alloc = two_flows(20.0, 4.0, 18.0)
        assert alloc["f1"] > 10.0  # more than the equal share
        assert alloc["f0"] == pytest.approx(20.0 * 4 / 22)
        assert alloc["f1"] == pytest.approx(20.0 * 18 / 22)

    def test_case3_equal_demands_split_equally(self):
        alloc = two_flows(20.0, 16.0, 16.0)
        assert alloc["f0"] == pytest.approx(10.0)
        assert alloc["f1"] == pytest.approx(10.0)

    def test_case4_proportional_to_demand(self):
        alloc = two_flows(20.0, 14.0, 20.0)
        assert alloc["f1"] > alloc["f0"]
        assert alloc["f0"] + alloc["f1"] == pytest.approx(20.0)
        assert alloc["f1"] / alloc["f0"] == pytest.approx(20.0 / 14.0)


class TestMaxMin:
    def test_case2_small_flow_protected(self):
        alloc = two_flows(20.0, 4.0, 18.0, policy=Policy.MAX_MIN)
        assert alloc["f0"] == pytest.approx(4.0)
        assert alloc["f1"] == pytest.approx(16.0)

    def test_case4_equalized(self):
        alloc = two_flows(20.0, 14.0, 20.0, policy=Policy.MAX_MIN)
        assert alloc["f0"] == pytest.approx(10.0)
        assert alloc["f1"] == pytest.approx(10.0)

    def test_three_flows_progressive(self):
        channel = Channel("link", 30.0)
        flows = [
            FluidFlow("small", 5.0).add(channel),
            FluidFlow("mid", 12.0).add(channel),
            FluidFlow("big", 40.0).add(channel),
        ]
        alloc = solve(flows, Policy.MAX_MIN)
        assert alloc["small"] == pytest.approx(5.0)
        assert alloc["mid"] == pytest.approx(12.0)
        assert alloc["big"] == pytest.approx(13.0)

    def test_pathless_flow_gets_demand(self):
        alloc = solve([FluidFlow("free", 7.0)], Policy.MAX_MIN)
        assert alloc["free"] == pytest.approx(7.0)


class TestElasticSemantics:
    def test_paced_flow_keeps_rate_against_elastic(self):
        # Figure 5: the throttled (paced) flow keeps its rate; the
        # unthrottled (elastic) flow absorbs exactly the residual.
        channel = Channel("link", 20.0)
        flows = [
            FluidFlow("paced", 8.0).add(channel),
            FluidFlow("greedy", 100.0, elastic=True).add(channel),
        ]
        alloc = solve(flows)
        assert alloc["paced"] == pytest.approx(8.0)
        assert alloc["greedy"] == pytest.approx(12.0)

    def test_elastic_flows_share_residual_proportionally(self):
        channel = Channel("link", 20.0)
        flows = [
            FluidFlow("paced", 5.0).add(channel),
            FluidFlow("e1", 30.0, elastic=True).add(channel),
            FluidFlow("e2", 15.0, elastic=True).add(channel),
        ]
        alloc = solve(flows)
        assert alloc["paced"] == pytest.approx(5.0)
        assert alloc["e1"] + alloc["e2"] == pytest.approx(15.0)
        assert alloc["e1"] / alloc["e2"] == pytest.approx(2.0)

    def test_all_elastic_equal_windows(self):
        alloc = two_flows(20.0, 50.0, 50.0, elastic=True)
        assert alloc["f0"] == pytest.approx(10.0)
        assert alloc["f1"] == pytest.approx(10.0)

    def test_paced_oversubscription_leaves_nothing(self):
        channel = Channel("link", 20.0)
        flows = [
            FluidFlow("p0", 15.0).add(channel),
            FluidFlow("p1", 15.0).add(channel),
            FluidFlow("greedy", 100.0, elastic=True).add(channel),
        ]
        alloc = solve(flows)
        assert alloc["greedy"] == pytest.approx(0.0, abs=1e-6)


class TestMultiChannel:
    def test_flow_bound_by_tightest_channel(self):
        wide = Channel("wide", 100.0)
        narrow = Channel("narrow", 10.0)
        flow = FluidFlow("f", 50.0).add(wide).add(narrow)
        assert solve([flow])["f"] == pytest.approx(10.0)

    def test_weights_scale_load(self):
        channel = Channel("wire", 34.0)
        # CXL framing: 68 wire bytes per 64 payload bytes.
        flow = FluidFlow("f", 100.0).add(channel, weight=68 / 64)
        assert solve([flow])["f"] == pytest.approx(32.0)

    def test_upstream_throttle_feeds_fifo_share(self):
        # f0 is clipped to 5 by its private upstream channel, so it arrives
        # at the shared FIFO at 5 against f1's 50: departures divide 5:50
        # (open-loop FIFO semantics — an aggressive arrival rate wins, §3.5).
        private = Channel("private", 5.0)
        shared = Channel("shared", 20.0)
        flows = [
            FluidFlow("f0", 50.0).add(private).add(shared),
            FluidFlow("f1", 50.0).add(shared),
        ]
        alloc = solve(flows)
        assert alloc["f0"] == pytest.approx(20.0 * 5 / 55)
        assert alloc["f1"] == pytest.approx(20.0 * 50 / 55)

    def test_max_min_protects_upstream_throttled_flow(self):
        private = Channel("private", 5.0)
        shared = Channel("shared", 20.0)
        flows = [
            FluidFlow("f0", 50.0).add(private).add(shared),
            FluidFlow("f1", 50.0).add(shared),
        ]
        alloc = solve(flows, Policy.MAX_MIN)
        assert alloc["f0"] == pytest.approx(5.0)
        assert alloc["f1"] == pytest.approx(15.0)

    def test_chain_of_bottlenecks(self):
        a = Channel("a", 30.0)
        b = Channel("b", 18.0)
        c = Channel("c", 25.0)
        flows = [
            FluidFlow("f0", 20.0).add(a).add(b),
            FluidFlow("f1", 20.0).add(b).add(c),
        ]
        alloc = solve(flows)
        assert alloc["f0"] + alloc["f1"] == pytest.approx(18.0)

    def test_disjoint_paths_independent(self):
        a = Channel("a", 10.0)
        b = Channel("b", 7.0)
        flows = [FluidFlow("f0", 50.0).add(a), FluidFlow("f1", 50.0).add(b)]
        alloc = solve(flows)
        assert alloc["f0"] == pytest.approx(10.0)
        assert alloc["f1"] == pytest.approx(7.0)


class TestRandomTopologies:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_allocation_invariants(self, data):
        """No allocation below zero or above its demand, and no channel
        above its capacity, on random multi-channel topologies mixing
        paced and elastic flows under every policy."""
        n_flows = data.draw(st.integers(1, 6), label="n_flows")
        n_channels = data.draw(st.integers(1, 5), label="n_channels")
        capacities = data.draw(
            st.lists(
                st.floats(0.5, 200.0),
                min_size=n_channels, max_size=n_channels,
            ),
            label="capacities",
        )
        channels = [
            Channel(f"ch{k}", capacity)
            for k, capacity in enumerate(capacities)
        ]
        flows = []
        for j in range(n_flows):
            flow = FluidFlow(
                f"f{j}",
                data.draw(st.floats(0.0, 300.0), label=f"demand{j}"),
                elastic=data.draw(st.booleans(), label=f"elastic{j}"),
                weight=data.draw(st.floats(0.25, 4.0), label=f"weight{j}"),
            )
            # Distinct channels per path, like every real topology: the
            # scale-down pass can oscillate forever on a channel
            # duplicated within one path.
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
            for channel_index, link_weight in path:
                flow.add(channels[channel_index], weight=link_weight)
            flows.append(flow)
        policy = data.draw(st.sampled_from(POLICIES), label="policy")

        alloc = solve(flows, policy)
        loads = {channel.name: 0.0 for channel in channels}
        for flow in flows:
            assert alloc[flow.name] >= 0.0, flow.name
            assert alloc[flow.name] <= flow.demand_gbps + 1e-9, flow.name
            for channel, weight in flow.path:
                loads[channel.name] += alloc[flow.name] * weight
        for channel in channels:
            assert loads[channel.name] <= channel.capacity_gbps + 1e-6, (
                channel.name
            )

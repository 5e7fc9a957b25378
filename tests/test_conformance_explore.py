"""Conformance tier for the generated design space (``-m conformance``).

Two contracts over the generator + adaptive-routing stack:

* **idiosyncrasy shapes** — on the generator-re-derived EPYC 9634 (and its
  catalog siblings), adaptive routing reproduces the *shapes* of the
  paper's four idiosyncrasies: latency grows with mesh hop count (§3.2),
  bandwidth domains stay heterogeneous (§3.3), credit budgets track each
  link's bandwidth-delay product rather than a constant (§3.4), and the
  contention cell partitions bandwidth toward the aggressor (§3.5) — with
  the fluid and DES backends agreeing on the victim's share within the
  documented ``DES_FLUID_SHARE_TOL`` (same tolerance as
  ``tests/test_conformance.py``: the DES sees queueing transients the
  steady-state fluid model abstracts away);
* **adaptive vs XY** — on the Figure 4–6 contention cell, adaptive
  routing is never worse than XY on victim share (both backends) and on
  Jain fairness, and strictly better on the ``squeeze-3x2`` topology
  whose geometry forces the two streams onto shared XY links.
"""

import math

import pytest

from repro.platform.generator import EPYC_9634_GEN, catalog_names, from_catalog

pytestmark = pytest.mark.conformance

#: Documented DES-vs-fluid tolerance on the victim's share of its demand.
DES_FLUID_SHARE_TOL = 0.35


@pytest.fixture(scope="module")
def contention_points():
    """Every catalog topology's contention cell, per routing policy."""
    from repro.experiments.explore import run_point

    return {
        (name, routing): run_point(
            name, from_catalog(name), routing, "contention"
        )
        for name in catalog_names()
        for routing in ("xy", "adaptive")
    }


# ------------------------------------------------------ idiosyncrasy shapes


class TestIdiosyncrasyShapes:
    def test_latency_grows_with_hop_count(self):
        """§3.2 extended data paths: more mesh hops, more DES latency."""
        from repro.noc.router import AdaptiveMeshNetwork
        from repro.noc.routing import RoutingPolicy
        from repro.sim.engine import Environment

        routing = EPYC_9634_GEN.noc_routing(RoutingPolicy.ADAPTIVE)
        grid = routing.grid
        src = routing.ccd_coords3[0]
        by_hops = {}
        for dst in sorted(set(routing.umc_coords3)):
            if dst == src:
                continue
            by_hops[grid.hop_distance(src, dst)] = dst
        assert len(by_hops) >= 2, "need at least two distinct hop counts"

        def one_packet_latency(dst) -> float:
            env = Environment()
            net = AdaptiveMeshNetwork(
                env, grid,
                port_gbps=routing.link_read_gbps,
                x_hop_ns=routing.x_hop_ns,
                y_hop_ns=routing.y_hop_ns,
                z_hop_ns=routing.z_hop_ns,
            )
            seen = []

            def probe():
                latency = yield from net.send(src, dst, 4096)
                seen.append(latency)

            env.process(probe())
            env.run()
            return seen[0]

        latencies = [
            one_packet_latency(by_hops[hops]) for hops in sorted(by_hops)
        ]
        assert latencies == sorted(latencies)
        assert latencies[-1] > latencies[0]

    def test_bandwidth_domains_stay_heterogeneous(self):
        """§3.3: the generated mesh keeps distinct per-domain capacities."""
        bw = EPYC_9634_GEN.base.bandwidth
        routing = EPYC_9634_GEN.noc_routing()
        assert routing.link_read_gbps < bw.gmi_read_gbps < bw.noc_read_gbps
        assert routing.link_write_gbps < bw.gmi_write_gbps

    def test_mesh_utilization_is_unequal_under_contention(self):
        """§3.3 corollary: routed links load unevenly, not uniformly."""
        from repro.core.fabric import FabricModel
        from repro.experiments.explore import _workload_streams
        from repro.noc.routing import RoutingPolicy

        gen = EPYC_9634_GEN
        platform = gen.platform()
        fabric = FabricModel(
            platform, routing=gen.noc_routing(RoutingPolicy.ADAPTIVE)
        )
        specs = _workload_streams(platform, "contention")
        utils = {
            name: value
            for name, value in fabric.utilizations(specs).items()
            if name.startswith("mesh:") and name.endswith(":r")
        }
        assert utils, "routed fabric must expose per-mesh-link channels"
        # ``utilizations`` reports only channels on some flow's path; every
        # other mesh link idles at zero — the unevenness the paper's
        # heterogeneous-domain story rests on.
        total_links = len(fabric.routing.grid.links())
        assert len(utils) < total_links
        loads = list(utils.values()) + [0.0] * (total_links - len(utils))
        assert max(loads) > min(loads)

    def test_credit_budgets_track_link_bdp(self):
        """§3.4 inconsistent BDPs: credits follow rate x RTT, not a constant."""
        from repro.net.credits import link_credit_budget

        routing = from_catalog("stacked-3d").noc_routing()
        x_budget = link_credit_budget(
            routing.link_read_gbps, 2.0 * routing.x_hop_ns
        )
        z_budget = link_credit_budget(
            routing.link_read_gbps, 2.0 * routing.z_hop_ns
        )
        assert routing.z_hop_ns > routing.x_hop_ns
        assert z_budget >= x_budget
        # Away from the floor the budget scales with both factors.
        assert link_credit_budget(200.0, 40.0) > link_credit_budget(
            200.0, 20.0
        ) > link_credit_budget(100.0, 20.0)

    def test_partitioning_shape_within_backend_tolerance(
        self, contention_points
    ):
        """§3.5: both backends agree on how hard the victim is squeezed."""
        for (name, routing), point in contention_points.items():
            assert 0.0 <= point.des_victim_share <= 1.0, (name, routing)
            assert (
                abs(point.victim_share - point.des_victim_share)
                <= DES_FLUID_SHARE_TOL
            ), (name, routing, point.victim_share, point.des_victim_share)
        # The squeezed topology shows aggressive partitioning on both
        # backends under XY; the uncontended 9634 near set shows none.
        squeezed = contention_points[("squeeze-3x2", "xy")]
        assert squeezed.victim_share < 0.5
        assert squeezed.des_victim_share < 0.5
        healthy = contention_points[("epyc-9634", "adaptive")]
        assert healthy.victim_share > 0.9
        assert healthy.des_victim_share > 0.9


# ----------------------------------------------------------- adaptive vs XY


class TestAdaptiveVsXY:
    def test_adaptive_never_worse_on_victim_share(self, contention_points):
        for name in catalog_names():
            xy = contention_points[(name, "xy")]
            adaptive = contention_points[(name, "adaptive")]
            assert adaptive.victim_share >= xy.victim_share - 1e-9, name
            assert (
                adaptive.des_victim_share >= xy.des_victim_share - 1e-9
            ), name
            assert adaptive.jain >= xy.jain - 1e-9, name

    def test_adaptive_strictly_beats_xy_on_squeeze(self, contention_points):
        xy = contention_points[("squeeze-3x2", "xy")]
        adaptive = contention_points[("squeeze-3x2", "adaptive")]
        assert adaptive.victim_share > xy.victim_share
        assert adaptive.des_victim_share > xy.des_victim_share
        assert adaptive.jain > xy.jain
        assert adaptive.p99_ns < xy.p99_ns

    def test_presets_are_unaffected_by_the_policy_switch(
        self, contention_points
    ):
        # On the calibrated presets the minimal-quadrant sets are narrow
        # enough that adaptive degenerates to XY — the policy is a strict
        # generalization, not a recalibration.
        for name in ("epyc-7302", "epyc-9634"):
            xy = contention_points[(name, "xy")]
            adaptive = contention_points[(name, "adaptive")]
            assert adaptive.victim_share == pytest.approx(xy.victim_share)
            assert adaptive.jain == pytest.approx(xy.jain)

    def test_scores_are_finite(self, contention_points):
        for point in contention_points.values():
            assert math.isfinite(point.score) and point.score > 0.0

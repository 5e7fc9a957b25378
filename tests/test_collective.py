"""Tests for chiplet-level collective cost models (§4 #6)."""

import pytest

from repro.collective import (
    Algorithm,
    CollectiveCost,
    allreduce_time_ns,
    crossover_bytes,
)
from repro.errors import ConfigurationError


def _cheapest(platform, n_bytes):
    return min(
        Algorithm, key=lambda a: allreduce_time_ns(platform, n_bytes, a)
    )


class TestCost:
    def test_validation(self, p7302):
        with pytest.raises(ConfigurationError):
            CollectiveCost(1, 100.0, 10.0)
        with pytest.raises(ConfigurationError):
            CollectiveCost.for_platform(p7302, chiplets=99)
        with pytest.raises(ConfigurationError):
            allreduce_time_ns(p7302, 0, Algorithm.RING)

    def test_alpha_derives_from_platform(self, p7302):
        cost = CollectiveCost.for_platform(p7302)
        lat = p7302.spec.latency
        # At least two IF crossings, at most plus the mesh diameter.
        assert cost.alpha_ns >= 2 * (lat.if_link_ns + lat.ccm_ns)

    def test_beta_is_if_write_capacity(self, p9634):
        cost = CollectiveCost.for_platform(p9634)
        assert cost.beta_gbps == p9634.spec.bandwidth.gmi_write_gbps


class TestAlgorithms:
    def test_small_payloads_avoid_ring(self, platform):
        assert _cheapest(platform, 128) in (Algorithm.FLAT, Algorithm.TREE)

    def test_large_payloads_prefer_ring(self, platform):
        assert _cheapest(platform, 64 * 1024 * 1024) is Algorithm.RING

    def test_ring_is_bandwidth_optimal_asymptotically(self, p9634):
        n = 256 * 1024 * 1024
        ring = allreduce_time_ns(p9634, n, Algorithm.RING)
        tree = allreduce_time_ns(p9634, n, Algorithm.TREE)
        flat = allreduce_time_ns(p9634, n, Algorithm.FLAT)
        assert ring < tree < flat

    def test_costs_monotone_in_payload(self, p7302):
        for algorithm in Algorithm:
            small = allreduce_time_ns(p7302, 1024, algorithm)
            large = allreduce_time_ns(p7302, 4096, algorithm)
            assert large > small

    def test_flat_scales_worst_with_chiplets(self, p9634):
        n = 1 << 20
        flat_4 = allreduce_time_ns(p9634, n, Algorithm.FLAT, chiplets=4)
        flat_12 = allreduce_time_ns(p9634, n, Algorithm.FLAT, chiplets=12)
        ring_4 = allreduce_time_ns(p9634, n, Algorithm.RING, chiplets=4)
        ring_12 = allreduce_time_ns(p9634, n, Algorithm.RING, chiplets=12)
        assert flat_12 / flat_4 > ring_12 / ring_4

    def test_ring_per_chiplet_traffic_shrinks(self, p9634):
        # Ring moves n/k per step: more chiplets, less per-link payload —
        # the asymptotic time approaches 2·n/beta regardless of k.
        n = 1 << 24
        ring_4 = allreduce_time_ns(p9634, n, Algorithm.RING, chiplets=4)
        ring_12 = allreduce_time_ns(p9634, n, Algorithm.RING, chiplets=12)
        assert ring_12 < 1.5 * ring_4


class TestCrossover:
    def test_crossover_exists(self, platform):
        crossover = crossover_bytes(platform)
        assert crossover is not None
        assert 64 <= crossover <= 1 << 20

    def test_crossover_is_the_boundary(self, p7302):
        crossover = crossover_bytes(p7302)
        below = allreduce_time_ns(p7302, crossover * 0.5, Algorithm.RING)
        below_tree = allreduce_time_ns(p7302, crossover * 0.5, Algorithm.TREE)
        above = allreduce_time_ns(p7302, crossover * 2.0, Algorithm.RING)
        above_tree = allreduce_time_ns(p7302, crossover * 2.0, Algorithm.TREE)
        assert below >= below_tree
        assert above < above_tree

    def test_twelve_chiplet_preset_crosses_later(self, p7302, p9634):
        assert crossover_bytes(p9634) > crossover_bytes(p7302)

    def test_regimes_at_the_sweep_ends(self, platform):
        # 16 MiB is bandwidth-bound: ring < tree < flat. 256 B is
        # latency-bound: flat or tree beats ring.
        big = [
            allreduce_time_ns(platform, 16 << 20, a)
            for a in (Algorithm.RING, Algorithm.TREE, Algorithm.FLAT)
        ]
        assert big == sorted(big) and len(set(big)) == 3
        assert allreduce_time_ns(platform, 256, Algorithm.RING) > min(
            allreduce_time_ns(platform, 256, Algorithm.FLAT),
            allreduce_time_ns(platform, 256, Algorithm.TREE),
        )

    def test_more_chiplets_push_crossover_later(self, p9634):
        # Ring pays 2(k−1) alphas: at 12 chiplets it needs a bigger payload
        # to win than at 4 — §4 #6's "multi-tier communication hierarchy"
        # pressure on collective design.
        early = crossover_bytes(p9634, chiplets=4)
        late = crossover_bytes(p9634, chiplets=12)
        assert late > early

"""Tests for the OS-structure cost models (§4 #2)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import os_scaling
from repro.osdesign.model import (
    MultikernelDesign,
    SharedMemoryDesign,
    cacheline_transfer_ns,
)


class TestCachelineTransfer:
    def test_same_chiplet_is_l3(self, platform):
        assert cacheline_transfer_ns(platform, 0, 0) == pytest.approx(
            platform.spec.latency.l3_ns
        )

    def test_cross_chiplet_is_extended(self, platform):
        local = cacheline_transfer_ns(platform, 0, 0)
        remote = cacheline_transfer_ns(platform, 0, 1)
        assert remote > 2 * local

    def test_symmetry(self, platform):
        assert cacheline_transfer_ns(platform, 0, 2) == pytest.approx(
            cacheline_transfer_ns(platform, 2, 0)
        )


class TestSharedMemoryDesign:
    def test_validation(self, p7302):
        with pytest.raises(ConfigurationError):
            SharedMemoryDesign(p7302, writer_ccds=0)
        with pytest.raises(ConfigurationError):
            SharedMemoryDesign(p7302).evaluate(-1.0)

    def test_max_is_inverse_transfer(self, p7302):
        design = SharedMemoryDesign(p7302)
        assert design.max_mops() == pytest.approx(
            1e3 / design.mean_transfer_ns()
        )

    def test_latency_explodes_at_saturation(self, p7302):
        design = SharedMemoryDesign(p7302)
        low = design.evaluate(0.2 * design.max_mops())
        near = design.evaluate(0.98 * design.max_mops())
        over = design.evaluate(1.1 * design.max_mops())
        assert low.visibility_ns < near.visibility_ns
        assert over.visibility_ns == float("inf")
        assert not over.sustainable

    def test_fewer_writers_faster(self, p7302):
        wide = SharedMemoryDesign(p7302, writer_ccds=4)
        narrow = SharedMemoryDesign(p7302, writer_ccds=1)
        assert narrow.max_mops() > wide.max_mops()


class TestMultikernelDesign:
    def test_validation(self, p7302):
        with pytest.raises(ConfigurationError):
            MultikernelDesign(p7302, replica_ccds=1)

    def test_local_latency_is_l3(self, p7302):
        point = MultikernelDesign(p7302).evaluate(1.0)
        assert point.local_ns == pytest.approx(p7302.spec.latency.l3_ns)

    def test_visibility_includes_message_path(self, p7302):
        design = MultikernelDesign(p7302)
        point = design.evaluate(1.0)
        assert point.visibility_ns > design.message_path_ns()

    def test_more_replicas_cost_throughput(self, p9634):
        few = MultikernelDesign(p9634, replica_ccds=4)
        many = MultikernelDesign(p9634, replica_ccds=12)
        # The broadcast-apply tax grows with the replica count.
        assert few.max_mops() > many.max_mops()

    def test_saturation(self, p7302):
        design = MultikernelDesign(p7302)
        over = design.evaluate(1.2 * design.max_mops())
        assert not over.sustainable


class TestOsScalingExperiment:
    @pytest.fixture(scope="class")
    def results(self, p7302, p9634):
        return {
            p.name: os_scaling.run(p) for p in (p7302, p9634)
        }

    def test_multikernel_scales_further(self, results):
        for result in results.values():
            assert result.multikernel_scales_further

    def test_crossover_exists(self, results):
        for result in results.values():
            assert result.crossover_mops < result.shared_max_mops

    def test_multikernel_peak_several_times_shared(self, results):
        for result in results.values():
            assert result.multikernel_max_mops > 3 * result.shared_max_mops

    def test_more_replicas_lower_the_multikernel_peak(self, results):
        # More chiplets, more broadcast-apply tax: the 12-replica 9634
        # peaks lower than the 4-replica 7302 despite newer silicon.
        assert (
            results["EPYC 9634"].multikernel_max_mops
            < results["EPYC 7302"].multikernel_max_mops
        )

    def test_shared_memory_wins_at_low_rates(self, results):
        # Below the crossover, the single shared line is cheaper than a
        # broadcast — the regime where the multikernel structure does NOT
        # pay off on a chiplet server.
        for result in results.values():
            low = [
                p for p in result.points
                if p.design == "shared-memory"
                and p.offered_mops < result.crossover_mops
            ]
            if not low:
                continue
            multi = min(
                (
                    p for p in result.points
                    if p.design == "multikernel"
                    and p.offered_mops == low[0].offered_mops
                ),
                key=lambda p: p.offered_mops,
            )
            assert low[0].visibility_ns < float("inf")

    def test_render(self, results):
        text = os_scaling.render(results)
        assert "multikernel" in text
        assert "EPYC 9634" in text

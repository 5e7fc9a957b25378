"""Tests for the KV-server application study."""

import math

import pytest

from repro.apps import KvServerModel, KvWorkload
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def server(p9634):
    return KvServerModel(p9634, workers=4)


def _workload(**kwargs):
    defaults = dict(qps=2_000_000, requests=200)
    defaults.update(kwargs)
    return KvWorkload(**defaults)


class TestValidation:
    def test_workload_validation(self):
        for qps in (0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                KvWorkload(qps=qps)
        with pytest.raises(ConfigurationError):
            KvWorkload(qps=1e6, requests=5)
        with pytest.raises(ConfigurationError):
            KvWorkload(qps=1e6, index_depth=0)
        with pytest.raises(ConfigurationError):
            KvWorkload(qps=1e6, value_tier="tape")

    def test_server_validation(self, p9634):
        with pytest.raises(ConfigurationError):
            KvServerModel(p9634, server_ccd=99)
        with pytest.raises(ConfigurationError):
            KvServerModel(p9634, workers=0)

    def test_cxl_tier_requires_cxl(self, p7302):
        server = KvServerModel(p7302, workers=2)
        with pytest.raises(ConfigurationError):
            server.serve(_workload(value_tier="cxl"))


class TestLatency:
    def test_baseline_latency_is_fabric_shaped(self, server, p9634):
        from repro.platform.numa import Position

        report = server.serve(_workload())
        # Two dependent index reads + a value read + NIC crossings: several
        # hundred ns, clearly sub-microsecond at this load.
        floor = 2 * p9634.dram_latency_at(0, Position.NEAR)
        assert report.latency.mean > floor
        assert report.latency.p99 < 2000.0

    def test_deeper_index_costs_a_dram_round_trip(self, server):
        shallow = server.serve(_workload(index_depth=1))
        deep = server.serve(_workload(index_depth=3))
        delta = deep.latency.mean - shallow.latency.mean
        assert delta == pytest.approx(2 * 141.0, rel=0.25)

    def test_cxl_values_cost_the_latency_premium(self, server):
        dram = server.serve(_workload())
        cxl = server.serve(_workload(value_tier="cxl"))
        assert cxl.latency.mean > dram.latency.mean + 80.0

    def test_overload_inflates_latency(self, server):
        light = server.serve(_workload(qps=500_000))
        # Far beyond what 4 workers can serve: queueing at the worker pool.
        heavy = server.serve(_workload(qps=8_000_000))
        assert heavy.latency.mean > 1.5 * light.latency.mean

    def test_slo_helper(self, server):
        report = server.serve(_workload(qps=500_000))
        assert report.meets_slo(p99_us=5.0)
        assert not report.meets_slo(p99_us=0.1)


class TestColocation:
    def test_noisy_neighbor_inflates_tail(self, p9634):
        server = KvServerModel(p9634, workers=3)
        background = [c.core_id for c in p9634.cores_of_ccd(0)[3:]]
        quiet = server.serve(_workload())
        noisy = server.serve(_workload(), background_cores=background)
        assert noisy.latency.p99 > quiet.latency.p99

    def test_pacing_the_background_restores_latency(self, p9634):
        server = KvServerModel(p9634, workers=3)
        background = [c.core_id for c in p9634.cores_of_ccd(0)[3:]]
        noisy = server.serve(_workload(), background_cores=background)
        paced = server.serve(
            _workload(), background_cores=background,
            background_rate_gbps=8.0,
        )
        assert paced.latency.mean < noisy.latency.mean


class TestAchievedQps:
    def test_tracks_offered_rate(self, server):
        # Open-loop achieved QPS is count over the first-arrival→last-
        # completion span, so a stable server approximates the offered
        # rate (dividing by absolute completion time would understate it
        # by the first request's arrival offset).
        report = server.serve(_workload(qps=500_000, requests=400))
        assert report.achieved_qps == pytest.approx(500_000, rel=0.10)

    def test_overload_caps_achieved_below_offered(self, server):
        report = server.serve(_workload(qps=8_000_000, requests=400))
        assert report.achieved_qps < 8_000_000 * 0.95

"""Tests for the global traffic manager and rate limiter."""

import pytest

from repro.core.fabric import FabricModel
from repro.core.flows import Scope, StreamSpec
from repro.errors import ConfigurationError
from repro.fluid.solver import Channel, Policy
from repro.manager.manager import ManagedAllocation, TrafficManager
from repro.manager.ratelimit import TokenBucket
from repro.transport.message import OpKind


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(0.0, 64.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(1.0, 0.0)

    def test_burst_passes_without_wait(self):
        bucket = TokenBucket(rate_gbps=1.0, burst_bytes=128.0)
        assert bucket.consume(0.0, 64) == 0.0
        assert bucket.consume(0.0, 64) == 0.0

    def test_wait_after_burst(self):
        bucket = TokenBucket(rate_gbps=1.0, burst_bytes=64.0)
        bucket.consume(0.0, 64)
        wait = bucket.consume(0.0, 64)
        assert wait == pytest.approx(64.0)  # 64 bytes at 1 byte/ns

    def test_refill_over_time(self):
        bucket = TokenBucket(rate_gbps=2.0, burst_bytes=64.0)
        bucket.consume(0.0, 64)
        assert bucket.available_bytes(32.0) == pytest.approx(64.0)

    def test_refill_capped_at_burst(self):
        bucket = TokenBucket(rate_gbps=10.0, burst_bytes=64.0)
        assert bucket.available_bytes(1e9) == pytest.approx(64.0)

    def test_long_run_rate_enforced(self):
        bucket = TokenBucket(rate_gbps=4.0, burst_bytes=64.0)
        now = 0.0
        total = 0
        for __ in range(1000):
            wait = bucket.consume(now, 64)
            now += wait
            total += 64
        assert total / now == pytest.approx(4.0, rel=0.01)

    def test_time_going_backwards_rejected(self):
        bucket = TokenBucket(1.0, 64.0)
        bucket.consume(10.0, 8)
        with pytest.raises(ConfigurationError):
            bucket.consume(5.0, 8)

    def test_set_rate(self):
        bucket = TokenBucket(1.0, 64.0)
        bucket.set_rate(8.0)
        assert bucket.rate_gbps == 8.0
        with pytest.raises(ConfigurationError):
            bucket.set_rate(0.0)

    def test_invalid_consume_size(self):
        bucket = TokenBucket(1.0, 64.0)
        with pytest.raises(ConfigurationError):
            bucket.consume(0.0, 0)


class TestManagedAllocation:
    def test_jain_equal(self):
        alloc = ManagedAllocation({"a": 5.0, "b": 5.0}, Policy.MAX_MIN)
        assert alloc.jain_fairness() == pytest.approx(1.0)

    def test_jain_skewed(self):
        alloc = ManagedAllocation({"a": 1.0, "b": 9.0}, Policy.MAX_MIN)
        assert alloc.jain_fairness() < 0.7

    def test_jain_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ManagedAllocation({}, Policy.MAX_MIN).jain_fairness()

    def test_jain_all_zero(self):
        alloc = ManagedAllocation({"a": 0.0, "b": 0.0}, Policy.MAX_MIN)
        assert alloc.jain_fairness() == 1.0

    def test_jain_single_flow_is_perfect(self):
        alloc = ManagedAllocation({"only": 7.0}, Policy.MAX_MIN)
        assert alloc.jain_fairness() == pytest.approx(1.0)


class TestChannelEdges:
    def test_zero_capacity_link_rejected(self):
        with pytest.raises(ConfigurationError):
            Channel("dead", 0.0)

    def test_negative_capacity_link_rejected(self):
        with pytest.raises(ConfigurationError):
            Channel("dead", -1.0)


class TestTrafficManager:
    def _manager(self, platform):
        return TrafficManager(FabricModel(platform))

    def test_duplicate_registration_rejected(self, p7302):
        manager = self._manager(p7302)
        manager.register(StreamSpec("s", OpKind.READ, (0,)))
        with pytest.raises(ConfigurationError):
            manager.register(StreamSpec("s", OpKind.READ, (1,)))

    def test_allocate_without_streams_rejected(self, p7302):
        with pytest.raises(ConfigurationError):
            self._manager(p7302).allocate()

    def test_empty_registry_rejected_downstream_too(self, p7302):
        # shaped_streams/limiters allocate implicitly; an empty registry
        # must fail there just as loudly as in allocate() itself.
        manager = self._manager(p7302)
        with pytest.raises(ConfigurationError):
            manager.shaped_streams()
        with pytest.raises(ConfigurationError):
            manager.limiters()

    def test_fair_allocation_equalizes_contenders(self, p7302):
        manager = self._manager(p7302)
        cores = StreamSpec.cores_for_scope(p7302, Scope.CCX)
        # Two streams from the same CCX contending for the CCX pool.
        manager.register(StreamSpec("a", OpKind.READ, (cores[0],)))
        manager.register(StreamSpec("b", OpKind.READ, (cores[1],)))
        allocation = manager.allocate()
        grants = allocation.grants_gbps
        assert grants["a"] == pytest.approx(grants["b"], rel=0.01)

    def test_shaped_streams_are_paced(self, p7302):
        manager = self._manager(p7302)
        manager.register(StreamSpec("a", OpKind.READ, (0,)))
        shaped = manager.shaped_streams()
        assert all(spec.demand_gbps is not None for spec in shaped)

    def test_manager_protects_small_flow(self, p7302):
        # The headline ablation: under max-min, an aggressive sender cannot
        # push a small paced flow below its request.
        manager = self._manager(p7302)
        cores = StreamSpec.cores_for_scope(p7302, Scope.CCX)
        manager.register(
            StreamSpec("small", OpKind.READ, (cores[0],), demand_gbps=4.0)
        )
        manager.register(StreamSpec("big", OpKind.READ, (cores[1],)))
        grants = manager.allocate().grants_gbps
        assert grants["small"] == pytest.approx(4.0, abs=0.1)

    def test_limiters_match_grants(self, p7302):
        manager = self._manager(p7302)
        manager.register(StreamSpec("a", OpKind.READ, (0,)))
        allocation = manager.allocate()
        limiters = manager.limiters(allocation)
        assert limiters["a"].rate_gbps == pytest.approx(
            allocation.grants_gbps["a"]
        )

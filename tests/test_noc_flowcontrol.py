"""Tests for the token-based traffic-control module."""

import pytest

from repro.errors import SimulationError
from repro.noc.flowcontrol import TokenPool, ccd_token_pool, ccx_token_pool
from repro.sim.engine import Environment


class TestTokenPool:
    def test_requires_positive_tokens(self):
        env = Environment()
        with pytest.raises(SimulationError):
            TokenPool(env, 0)

    def test_grants_until_exhausted(self):
        env = Environment()
        pool = TokenPool(env, 2)
        assert pool.acquire().triggered
        assert pool.acquire().triggered
        third = pool.acquire()
        assert not third.triggered
        assert pool.available == 0
        assert pool.queue_length == 1

    def test_release_grants_oldest_waiter(self):
        env = Environment()
        pool = TokenPool(env, 1)
        pool.acquire()
        first_waiter = pool.acquire()
        second_waiter = pool.acquire()
        pool.release()
        assert first_waiter.triggered
        assert not second_waiter.triggered

    def test_over_release_rejected(self):
        env = Environment()
        pool = TokenPool(env, 1)
        pool.acquire()
        pool.release()
        with pytest.raises(SimulationError):
            pool.release()

    def test_wait_time_statistics(self):
        env = Environment()
        pool = TokenPool(env, 1)

        def holder():
            yield pool.acquire()
            yield env.timeout(12.0)
            pool.release()

        def waiter():
            yield env.timeout(2.0)
            yield pool.acquire()
            pool.release()

        env.process(holder())
        env.process(waiter())
        env.run()
        assert pool.max_wait_ns == pytest.approx(10.0)
        assert pool.acquired_count == 2

    def test_reset_stats(self):
        env = Environment()
        pool = TokenPool(env, 1)
        pool.acquire()
        pool.release()
        pool.reset_stats()
        assert pool.max_wait_ns == 0.0
        assert pool.acquired_count == 0

    def test_in_use_accounting(self):
        env = Environment()
        pool = TokenPool(env, 3)
        pool.acquire()
        pool.acquire()
        assert pool.in_use == 2
        pool.release()
        assert pool.in_use == 1

    def test_fifo_no_overtaking_when_queue_nonempty(self):
        # A release must go to the waiter, not refill the free pool.
        env = Environment()
        pool = TokenPool(env, 1)
        pool.acquire()
        waiter = pool.acquire()
        pool.release()
        assert waiter.triggered
        assert pool.available == 0


class TestFactories:
    def test_ccx_pool_uses_calibrated_tokens(self, p7302, p9634):
        env = Environment()
        assert ccx_token_pool(env, p7302).capacity == 50
        assert ccx_token_pool(env, p9634).capacity == 213

    def test_ccd_pool_only_on_7302(self, p7302, p9634):
        env = Environment()
        assert ccd_token_pool(env, p7302).capacity == 94
        assert ccd_token_pool(env, p9634) is None

    def test_derived_sizing_fallback(self, p7302):
        # With explicit token counts removed, the sizing formula applies.
        from dataclasses import replace

        from repro.platform.topology import Platform

        spec = replace(
            p7302.spec,
            bandwidth=replace(
                p7302.spec.bandwidth, ccx_tokens=None, ccd_tokens=None
            ),
        )
        platform = Platform(spec)
        env = Environment()
        pool = ccx_token_pool(env, platform)
        issue = spec.cores_per_ccx * spec.bandwidth.mlp_read
        assert 1 <= pool.capacity < issue
        ccd = ccd_token_pool(env, platform)
        assert ccd is not None and ccd.capacity >= 1

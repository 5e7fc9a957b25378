"""Tests for the load generators: closed-loop DES issue, open-loop arrays."""

import numpy as np
import pytest

from repro.core.loadgen import (
    ClosedLoopIssuer,
    diurnal_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)
from repro.errors import ConfigurationError
from repro.platform.numa import Position
from repro.sim.engine import Environment
from repro.sim.rng import SplitRng
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor


def build_issuer(platform, workers=1, **kwargs):
    env = Environment()
    resolver = PathResolver(env, platform, with_dram_jitter=False)
    executor = TransactionExecutor(env)
    near = platform.umcs_at(0, Position.NEAR)[0].umc_id
    path = resolver.dram_path(0, near)
    defaults = dict(op=OpKind.READ, window=4, count_per_worker=100)
    defaults.update(kwargs)
    return ClosedLoopIssuer(env, executor, (path,) * workers, **defaults)


class TestValidation:
    def test_bad_counts(self, p7302):
        with pytest.raises(ConfigurationError):
            build_issuer(p7302, workers=0)
        with pytest.raises(ConfigurationError):
            build_issuer(p7302, window=0)

    def test_bad_rate(self, p7302):
        with pytest.raises(ConfigurationError):
            build_issuer(p7302, rate_gbps=0.0)

    def test_bad_warmup(self, p7302):
        with pytest.raises(ConfigurationError):
            build_issuer(p7302, warmup_fraction=1.0)


class TestBehaviour:
    def test_unpaced_run_collects_samples(self, p7302):
        result = build_issuer(p7302).run()
        # ~10% warmup discarded (rounded per issue lane).
        assert 85 <= result.stats.count <= 95
        assert result.offered_gbps is None
        assert result.achieved_gbps > 0

    def test_pacing_bounds_achieved_rate(self, p7302):
        result = build_issuer(
            p7302, rate_gbps=2.0, count_per_worker=400
        ).run()
        assert result.achieved_gbps == pytest.approx(2.0, rel=0.05)

    def test_window_one_is_pointer_chase(self, p7302):
        result = build_issuer(p7302, window=1).run()
        near = p7302.umcs_at(0, Position.NEAR)[0].umc_id
        assert result.stats.mean == pytest.approx(
            p7302.dram_latency_ns(0, near), rel=0.01
        )
        assert result.stats.std == pytest.approx(0.0, abs=1e-6)

    def test_larger_window_raises_throughput(self, p7302):
        slow = build_issuer(p7302, window=1).run()
        fast = build_issuer(p7302, window=8).run()
        assert fast.achieved_gbps > 2 * slow.achieved_gbps

    def test_low_offered_load_keeps_latency_unloaded(self, p7302):
        result = build_issuer(
            p7302, window=8, rate_gbps=1.0, count_per_worker=200
        ).run()
        near = p7302.umcs_at(0, Position.NEAR)[0].umc_id
        assert result.stats.mean == pytest.approx(
            p7302.dram_latency_ns(0, near), rel=0.02
        )

    def test_multiple_workers_share_pacing(self, p7302):
        result = build_issuer(
            p7302, workers=2, rate_gbps=4.0, count_per_worker=300
        ).run()
        # Aggregate rate (not per worker) must match the offered rate.
        assert result.achieved_gbps == pytest.approx(4.0, rel=0.05)


class TestOpenLoopArrivals:
    """The open-loop arrival-array generators the hybrid engine consumes."""

    @staticmethod
    def _rng(seed=3):
        return SplitRng(seed).stream("arrivals")

    def test_poisson_is_deterministic_and_sorted(self):
        first = poisson_arrivals(self._rng(), 1e6, 5000)
        again = poisson_arrivals(self._rng(), 1e6, 5000)
        np.testing.assert_array_equal(first, again)
        assert np.all(np.diff(first) >= 0)

    def test_poisson_matches_scalar_draws(self):
        # The batched draw must consume the generator exactly like the
        # DES's scalar-by-scalar arrival process — that identity is what
        # makes hybrid and DES arrival times bit-identical.
        batched = poisson_arrivals(self._rng(), 2e6, 200)
        rng = self._rng()
        scalar = np.cumsum([rng.exponential(1e9 / 2e6) for _ in range(200)])
        np.testing.assert_array_equal(batched, scalar)

    def test_poisson_mean_rate(self):
        arrivals = poisson_arrivals(self._rng(), 5e6, 100_000)
        rate = arrivals.size / (arrivals[-1] - arrivals[0]) * 1e9
        assert rate == pytest.approx(5e6, rel=0.02)

    def test_onoff_bursts_fill_the_on_windows(self):
        # Hard silences: every arrival must land inside an on-window.
        on_ns, off_ns = 1000.0, 3000.0
        arrivals = onoff_arrivals(
            self._rng(), 4e6, 0.0, on_ns, off_ns, 10_000
        )
        phase = np.mod(arrivals, on_ns + off_ns)
        assert np.all(phase <= on_ns)
        assert np.all(np.diff(arrivals) >= 0)

    def test_diurnal_levels_shape_the_rate(self):
        period = 1e6
        arrivals = diurnal_arrivals(
            self._rng(), 4e6, [2.0, 1.0], period, 200_000
        )
        phase = np.mod(arrivals, period)
        busy = int(np.count_nonzero(phase < period / 2))
        # The 2.0 level should carry ~2/3 of the arrivals.
        assert busy / arrivals.size == pytest.approx(2 / 3, rel=0.05)

    def test_validation(self):
        rng = self._rng()
        with pytest.raises(ConfigurationError):
            poisson_arrivals(rng, 0.0, 10)
        with pytest.raises(ConfigurationError):
            poisson_arrivals(rng, 1e6, 0)
        with pytest.raises(ConfigurationError):
            onoff_arrivals(rng, 0.0, 1.0, 10.0, 10.0, 10)
        with pytest.raises(ConfigurationError):
            onoff_arrivals(rng, 1e6, -1.0, 10.0, 10.0, 10)
        with pytest.raises(ConfigurationError):
            onoff_arrivals(rng, 1e6, 0.0, 0.0, 10.0, 10)
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(rng, 1e6, [], 1e6, 10)

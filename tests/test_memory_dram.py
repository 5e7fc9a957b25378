"""Tests for the DRAM timing jitter model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.memory.dram import DramTimingModel
from repro.sim.rng import make_rng


@pytest.fixture
def model():
    return DramTimingModel.for_platform("EPYC 7302")


class TestValidation:
    def test_bad_probability(self):
        with pytest.raises(ConfigurationError):
            DramTimingModel(1.5, 0, 1, 0.001, 0, 1)

    def test_inverted_conflict_range(self):
        with pytest.raises(ConfigurationError):
            DramTimingModel(0.1, 10, 5, 0.001, 0, 1)

    def test_inverted_refresh_range(self):
        with pytest.raises(ConfigurationError):
            DramTimingModel(0.1, 5, 10, 0.001, 100, 50)

    def test_unknown_platform_gets_generic_profile(self):
        # Uncalibrated platforms (e.g. the synthetic UCIe preset) fall back
        # to a generic modern-DDR jitter profile.
        model = DramTimingModel.for_platform("Xeon 8380")
        assert 0 < model.refresh_prob < 0.01
        assert model.refresh_max_ns <= 300.0


class TestSampling:
    def test_samples_within_bounds(self, model):
        rng = make_rng(1)
        for __ in range(3000):
            extra = model.sample_extra_ns(rng)
            assert extra >= 0.0
            if extra > 0:
                assert (
                    model.bank_conflict_min_ns <= extra <= model.bank_conflict_max_ns
                    or model.refresh_min_ns <= extra <= model.refresh_max_ns
                )

    def test_most_samples_are_zero(self, model):
        rng = make_rng(2)
        samples = [model.sample_extra_ns(rng) for __ in range(5000)]
        zero_fraction = sum(1 for s in samples if s == 0.0) / len(samples)
        expected = 1.0 - model.refresh_prob - model.bank_conflict_prob
        assert zero_fraction == pytest.approx(expected, abs=0.02)

    def test_refresh_events_are_rare_and_large(self, model):
        rng = make_rng(3)
        samples = np.array([model.sample_extra_ns(rng) for __ in range(20000)])
        refreshes = samples[samples >= model.refresh_min_ns]
        assert 0 < len(refreshes) / len(samples) < 0.01

    def test_mean_extra_is_small(self, model):
        # The jitter must not perturb Table 2's mean latencies.
        rng = make_rng(5)
        samples = [model.sample_extra_ns(rng) for __ in range(20000)]
        assert np.mean(samples) < 2.0


class TestCalibration:
    def test_7302_unloaded_p999_target(self):
        # Analytic: P999 extra = b - (b-a)·(0.001/p); plus base 124 → ≈457.
        model = DramTimingModel.for_platform("EPYC 7302")
        span = model.refresh_max_ns - model.refresh_min_ns
        q = model.refresh_max_ns - span * (0.001 / model.refresh_prob)
        assert 124 + q == pytest.approx(470, abs=25)

    def test_9634_unloaded_p999_target(self):
        model = DramTimingModel.for_platform("EPYC 9634")
        span = model.refresh_max_ns - model.refresh_min_ns
        q = model.refresh_max_ns - span * (0.001 / model.refresh_prob)
        assert 141 + q == pytest.approx(370, abs=25)

    def test_ddr4_stalls_longer_than_ddr5(self):
        ddr4 = DramTimingModel.for_platform("EPYC 7302")
        ddr5 = DramTimingModel.for_platform("EPYC 9634")
        assert ddr4.refresh_max_ns > ddr5.refresh_max_ns

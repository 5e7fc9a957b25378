"""Tests for analysis helpers: stats, time series, table rendering."""

import numpy as np
import pytest

from repro.analysis.report import format_pair, render_table
from repro.analysis.stats import LatencyStats, percentile
from repro.analysis.timeseries import TimeSeries
from repro.errors import MeasurementError


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3.0

    def test_extremes(self):
        data = list(range(100))
        assert percentile(data, 0) == 0.0
        assert percentile(data, 100) == 99.0

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(MeasurementError):
            percentile([1.0], 101)


class TestLatencyStats:
    def test_from_samples(self):
        stats = LatencyStats.from_samples([10.0] * 99 + [100.0])
        assert stats.count == 100
        assert stats.mean == pytest.approx(10.9)
        assert stats.p50 == pytest.approx(10.0)
        assert stats.maximum == 100.0
        assert stats.minimum == 10.0

    def test_p999_catches_rare_spikes(self):
        samples = [100.0] * 9980 + [500.0] * 20
        stats = LatencyStats.from_samples(samples)
        assert stats.p999 > 400.0
        assert stats.p99 == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            LatencyStats.from_samples([])

    def test_str_contains_key_stats(self):
        text = str(LatencyStats.from_samples([1.0, 2.0, 3.0]))
        assert "mean=2.0ns" in text
        assert "p999" in text


class TestTimeSeries:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(MeasurementError):
            TimeSeries(np.array([0.0, 1.0]), np.array([1.0]))

    def test_non_increasing_rejected(self):
        with pytest.raises(MeasurementError):
            TimeSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))

    def test_mean_between(self):
        series = TimeSeries(
            np.arange(10, dtype=float), np.arange(10, dtype=float)
        )
        assert series.mean_between(2.0, 5.0) == pytest.approx(3.0)

    def test_mean_between_empty_window(self):
        series = TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(MeasurementError):
            series.mean_between(5.0, 6.0)

    def test_settling_time_step_response(self):
        times = np.linspace(0, 2, 201)
        values = np.where(times < 1.3, 0.0, 10.0)
        series = TimeSeries(times, values)
        settle = series.settling_time_s(1.0, target=10.0, tolerance=0.5)
        assert settle == pytest.approx(0.3, abs=0.02)

    def test_settling_never_returns_none(self):
        times = np.linspace(0, 1, 101)
        series = TimeSeries(times, np.sin(times * 50) * 5)
        assert series.settling_time_s(0.0, target=10.0, tolerance=0.1) is None

    def test_settling_requires_staying_in_band(self):
        # Touches the band then leaves: the excursion postpones settling.
        times = np.linspace(0, 1, 11)
        values = np.array([0, 10, 0, 10, 10, 10, 10, 10, 10, 10, 10.0])
        series = TimeSeries(times, values)
        settle = series.settling_time_s(0.0, target=10.0, tolerance=0.5)
        assert settle == pytest.approx(0.3)


class TestReport:
    def test_format_pair(self):
        assert format_pair(106.7, 55.1) == "106.7/55.1"
        assert format_pair(1.0, 2.0, digits=2) == "1.00/2.00"

    def test_render_alignment(self):
        table = render_table(["a", "bb"], [["xxx", 1], ["y", 22]])
        lines = table.splitlines()
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_render_title(self):
        table = render_table(["h"], [["v"]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_render_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])


class TestBoundedMemoryStats:
    """The bounded-memory path: from_sorted and merge."""

    def test_from_sorted_matches_from_samples(self):
        rng = np.random.default_rng(5)
        data = rng.exponential(100.0, size=2500)
        direct = LatencyStats.from_samples(data)
        sorted_ = LatencyStats.from_sorted(np.sort(data))
        assert sorted_.count == direct.count
        assert sorted_.mean == pytest.approx(direct.mean)
        assert sorted_.p50 == pytest.approx(direct.p50)
        assert sorted_.p99 == pytest.approx(direct.p99)
        assert sorted_.p999 == pytest.approx(direct.p999)
        assert sorted_.minimum == direct.minimum
        assert sorted_.maximum == direct.maximum

    def test_from_sorted_rejects_unsorted_and_empty(self):
        with pytest.raises(MeasurementError):
            LatencyStats.from_sorted(np.array([2.0, 1.0]))
        with pytest.raises(MeasurementError):
            LatencyStats.from_sorted(np.array([]))
        with pytest.raises(MeasurementError):
            LatencyStats.from_sorted(np.ones((2, 2)))

    def test_merge_is_exact_over_shards(self):
        # Merging per-shard sorted arrays must reproduce the percentiles
        # of the concatenation exactly — including when the total is
        # large enough to take the pivot-and-narrow selection path.
        rng = np.random.default_rng(6)
        parts = [np.sort(rng.exponential(100.0, size=n))
                 for n in (3000, 2500, 1)]
        merged = LatencyStats.merge(parts)
        whole = LatencyStats.from_samples(np.concatenate(parts))
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean)
        assert merged.std == pytest.approx(whole.std)
        assert merged.p50 == pytest.approx(whole.p50)
        assert merged.p99 == pytest.approx(whole.p99)
        assert merged.p999 == pytest.approx(whole.p999)
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum

    def test_merge_rejects_empty(self):
        with pytest.raises(MeasurementError):
            LatencyStats.merge([])

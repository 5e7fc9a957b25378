"""Measurement analysis: latency statistics, time series, report rendering."""

from repro.analysis.export import curves_to_csv, rows_to_csv, timeseries_to_csv
from repro.analysis.report import format_pair, render_table
from repro.analysis.stats import LatencyStats, jain_index, percentile
from repro.analysis.timeseries import TimeSeries

__all__ = [
    "LatencyStats",
    "jain_index",
    "percentile",
    "TimeSeries",
    "render_table",
    "format_pair",
    "rows_to_csv",
    "timeseries_to_csv",
    "curves_to_csv",
]

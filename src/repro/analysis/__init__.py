"""Measurement analysis: latency statistics, time series, report rendering."""

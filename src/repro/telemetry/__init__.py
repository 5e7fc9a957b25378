"""Observability for server chiplet networking (§4 directions #1 and #5).

* :mod:`~repro.telemetry.counters` — per-link byte/transaction counters;
* :mod:`~repro.telemetry.sketch` — count-min sketch for compact per-flow
  accounting (the paper's proposed PMU + sketch profiler);
* :mod:`~repro.telemetry.matrix` — the intra-server traffic matrix the paper
  argues is "essential for maximizing the data transmission performance";
* :mod:`~repro.telemetry.devtree` — the `/sys/firmware/chiplet-net`-style
  hardware description and `/proc/chiplet-net`-style runtime report;
* :mod:`~repro.telemetry.profiler` — a perf-like per-flow profiler.
"""

"""Span-based tracing with per-hop latency attribution.

The observability layer over the DES: :class:`Tracer` records spans on
the simulated clock (:mod:`repro.trace.tracer`), the exporter emits
Chrome trace-event / Perfetto JSON (:mod:`repro.trace.export`), and the
breakdown module decomposes end-to-end latencies into per-hop queueing
and service time (:mod:`repro.trace.breakdown`). See ``docs/TRACING.md``
for the walkthrough and ``repro trace`` for the CLI entry point.
"""

from repro.trace.breakdown import (
    HopStat,
    assert_tiles,
    fill_counters,
    hop_stats,
    render_breakdown,
    txn_latency_stats,
)
from repro.trace.export import chrome_trace, dumps, event_count
from repro.trace.tracer import Span, TraceRecording, Tracer

__all__ = [
    "Tracer",
    "Span",
    "TraceRecording",
    "chrome_trace",
    "dumps",
    "event_count",
    "HopStat",
    "hop_stats",
    "txn_latency_stats",
    "assert_tiles",
    "render_breakdown",
    "fill_counters",
]

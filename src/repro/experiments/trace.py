"""``repro trace`` — record a cell with span tracing and attribute latency.

Two traceable cells cover the paper's two latency stories:

* ``netstack`` — the Figure 4–6 style contention cell (one traced DES run
  per stack arm): the per-hop breakdown separates each channel's queueing
  from its service time, showing *where* the hog's pressure lands and how
  receiver-driven credits move it out of the shared fabric;
* ``table2`` — the Table 2 DRAM/CXL pointer chases (one traced run per
  mesh position): the breakdown decomposes each end-to-end row into its
  constituent IOD/CCD/xGMI hops, exactly (hop spans tile the measured
  latency; see :func:`repro.trace.breakdown.assert_tiles`).

Every traced cell is one hardened-runner :class:`~repro.runner.Cell`, so
``--jobs`` fan-out and the content-addressed result cache apply: a
recording is a pure function of the cell's arguments, workers return it
by pickle, and the merge (submission order, deterministic serialization)
keeps both the stdout report and the exported Perfetto JSON byte-identical
for any ``--jobs`` value and for cache hits vs. misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.platform.topology import Platform
from repro.runner import Cell, CellResult
from repro.telemetry.counters import CounterRegistry
from repro.trace import (
    TraceRecording,
    chrome_trace,
    dumps,
    event_count,
    fill_counters,
    render_breakdown,
    txn_latency_stats,
)

__all__ = [
    "CELLS",
    "TracedCell",
    "default_samples",
    "default_out_path",
    "cells",
    "render",
    "export_json",
]

#: The traceable cells.
CELLS: Tuple[str, ...] = ("netstack", "table2")

#: Default sample counts per cell kind (transactions per core for the
#: netstack contention run; chase iterations per position for table2).
#: Deliberately smaller than the untraced experiments' defaults: a traced
#: transaction costs ~8 span dicts, and the default trace should stay a
#: few MB of JSON.
_DEFAULT_SAMPLES = {"netstack": 40, "table2": 200}


@dataclass(frozen=True)
class TracedCell:
    """One traced cell: a headline summary plus the span recording."""

    label: str
    headline: Tuple[Tuple[str, str], ...]
    profile: str
    recording: TraceRecording


def default_samples(cell: str) -> int:
    """The default sample count for one cell kind."""
    try:
        return _DEFAULT_SAMPLES[cell]
    except KeyError:
        raise ConfigurationError(
            f"unknown trace cell {cell!r} (choose from {', '.join(CELLS)})"
        ) from None


def default_out_path(cell: str, platform: Platform) -> str:
    """Default trace JSON path, e.g. ``trace-netstack-epyc-7302.json``."""
    slug = platform.name.lower().replace(" ", "-")
    return f"trace-{cell}-{slug}.json"


# ------------------------------------------------------------------ cells


def _netstack_cell(
    platform: Platform, arm: str, seed: int, samples: int
) -> TracedCell:
    from repro.experiments import netstack

    point, recording, profile = netstack.run_point_traced(
        platform, arm, seed=seed, transactions_per_core=samples
    )
    headline = (
        ("victim GB/s", f"{point.victim_gbps:.2f}"),
        ("hog GB/s", f"{point.hog_gbps:.2f}"),
        ("victim share", f"{point.victim_share:.3f}"),
        ("Jain", f"{point.jain:.4f}"),
        ("victim p50 ns", f"{point.p50_ns:.1f}"),
        ("victim p99 ns", f"{point.p99_ns:.1f}"),
    )
    return TracedCell(f"netstack/{arm}", headline, profile, recording)


def _table2_cell(
    platform: Platform, position: str, seed: int, samples: int
) -> TracedCell:
    from repro.core.microbench import MicroBench
    from repro.experiments.table2 import PAPER_TABLE2
    from repro.platform.numa import Position
    from repro.telemetry.profiler import FlowProfiler
    from repro.trace import Tracer

    bench = MicroBench(platform, seed=seed)
    profiler = FlowProfiler(top_k=4)
    tracer = Tracer(profiler=profiler)
    working_set = 4 * platform.spec.l3_per_ccx_bytes
    if position == "cxl":
        __, stats = bench.pointer_chase(
            working_set, target="cxl", iterations=samples, tracer=tracer
        )
    else:
        __, stats = bench.pointer_chase(
            working_set, position=Position(position),
            iterations=samples, tracer=tracer,
        )
    recording = tracer.recording(position=position)
    # The issuer discards its warmup transactions from the measured
    # statistics; skip the same per-track prefix so the trace-derived
    # mean is computed over the identical sample set.
    warmup = int(samples * 0.1)
    count, trace_mean = txn_latency_stats(recording, skip_per_track=warmup)
    paper = PAPER_TABLE2.get(platform.name, {}).get(position)
    headline = (
        ("measured mean ns", f"{stats.mean:.2f}"),
        ("trace mean ns", f"{trace_mean:.2f}"),
        ("paper ns", "N/A" if paper is None else f"{paper:.2f}"),
        ("samples", str(count)),
    )
    return TracedCell(f"table2/{position}", headline, profiler.report(), recording)


def _positions(platform: Platform) -> List[str]:
    positions = ["near", "vertical", "horizontal", "diagonal"]
    if platform.cxl_devices:
        positions.append("cxl")
    return positions


def cells(
    platform: Platform,
    cell: str,
    seed: int = 0,
    samples: Optional[int] = None,
) -> List[Cell]:
    """All traced sub-cells of one cell kind, one runner cell each."""
    if samples is None:
        samples = default_samples(cell)
    elif cell not in CELLS:
        raise ConfigurationError(
            f"unknown trace cell {cell!r} (choose from {', '.join(CELLS)})"
        )
    if samples < 10:
        raise ConfigurationError(f"need at least 10 samples, got {samples}")
    if cell == "netstack":
        from repro.experiments.netstack import ARMS

        return [
            Cell(_netstack_cell, (platform, arm, seed, samples))
            for arm in ARMS
        ]
    return [
        Cell(_table2_cell, (platform, position, seed, samples))
        for position in _positions(platform)
    ]


# ----------------------------------------------------------------- output


def _utilization_lines(platform: Platform, recording: TraceRecording) -> str:
    """The busiest fabric channels, replayed through CounterRegistry."""
    registry = CounterRegistry()
    recorded = fill_counters(registry, platform, recording)
    elapsed = recording.elapsed_ns()
    if not recorded or elapsed <= 0:
        return "channel utilization: no link transfers recorded"
    utils = []
    for name, counters in registry.snapshot().items():
        read_util = counters.utilization(False, elapsed)
        write_util = counters.utilization(True, elapsed)
        utils.append((max(read_util, write_util), name, counters))
    utils.sort(key=lambda item: (-item[0], item[1]))
    parts = [
        f"{name} {util:.2f} ({counters.read_txns + counters.write_txns} txns)"
        for util, name, counters in utils[:3]
    ]
    return "channel utilization (top 3): " + ", ".join(parts)


def render(
    platform: Platform, cell: str, results: Sequence[CellResult]
) -> str:
    """The per-cell breakdown report (deterministic for any ``--jobs``)."""
    blocks: List[str] = []
    for result in results:
        if not result.ok:
            blocks.append(
                f"cell {result.index}: FAILED ({result.failure.kind}): "
                f"{result.failure.error!r}"
            )
            continue
        traced: TracedCell = result.value
        headline = "  ".join(
            f"{key}={value}" for key, value in traced.headline
        )
        blocks.append("\n".join([
            f"=== {traced.label} [{platform.name}] ===",
            headline,
            render_breakdown(
                f"per-hop latency attribution ({traced.label})",
                traced.recording,
            ),
            _utilization_lines(platform, traced.recording),
            traced.profile,
        ]))
    return "\n\n".join(blocks)


def export_json(results: Sequence[CellResult]) -> Tuple[str, int]:
    """Merge successful cells into Perfetto JSON text: ``(text, events)``.

    Cells keep runner submission order, which is independent of
    ``--jobs`` and cache state, so the bytes are reproducible.
    """
    cells = [
        (result.value.label, result.value.recording)
        for result in results
        if result.ok
    ]
    trace = chrome_trace(cells)
    return dumps(trace), event_count(trace)

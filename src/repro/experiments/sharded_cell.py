"""``repro sharded`` — serial vs sharded engine on the contention cell.

Runs the canonical multi-CCD contention cell (a paced single-CCX victim
against one whole-CCD hog per remaining chiplet, all forced onto the
victim's NPS4 endpoints — :func:`repro.core.shardexec.contention_flows`)
on the serial reference engine and on the sharded engine
(:mod:`repro.sim.sharded`), and renders the agreement: delivered
bandwidth, victim share, Jain fairness, loaded-latency percentiles, and
the sharded engine's synchronization telemetry (windows, cross-shard
messages, lookahead).

The shard count resolves — explicit argument, else one shard per CCD —
*before* cells are submitted to the runner, so the resolved count is part
of the cell's arguments and therefore of its cache key: a sharded result
can never satisfy a serial lookup or one for a different shard count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.core.shardexec import ShardCellOutcome, run_cell
from repro.errors import ConfigurationError
from repro.platform.topology import Platform
from repro.runner import Cell, CellResult

__all__ = ["ENGINES", "resolve_shards", "run_engine_cell", "cells", "render"]

#: The engines, in presentation order.
ENGINES: Tuple[str, ...] = ("serial", "sharded")


def resolve_shards(platform: Platform, shards: Optional[int] = None) -> int:
    """The shard count a sharded run of ``platform`` will use.

    The explicit argument, else one shard per CCD. Resolution happens
    here — before any cell is built — so the count rides in the cell
    arguments and therefore in the cache key, never as hidden state a
    cached result could ignore.
    """
    if shards is None:
        shards = len(platform.ccds)
    if not 1 <= shards <= len(platform.ccds):
        raise ConfigurationError(
            f"shard count must be in [1, {len(platform.ccds)}] for "
            f"{platform.name}, got {shards}"
        )
    return shards


def run_engine_cell(
    platform: Platform,
    engine: str,
    shards: int,
    transactions_per_core: int = 150,
    seed: int = 0,
) -> ShardCellOutcome:
    """One (engine, shards) cell (independent, hardened-runner friendly)."""
    return run_cell(
        platform,
        engine=engine,
        shards=shards if engine == "sharded" else None,
        transactions_per_core=transactions_per_core,
        seed=seed,
    )


def cells(
    platform: Platform,
    engines: Sequence[str] = ENGINES,
    shards: Optional[int] = None,
    seed: int = 0,
    transactions_per_core: int = 150,
) -> List[Cell]:
    """Every requested engine as one hardened-runner cell each.

    An out-of-range shard count raises :class:`ConfigurationError` here,
    before any cell runs.
    """
    resolved = resolve_shards(platform, shards)
    return [
        Cell(
            run_engine_cell,
            (platform, engine, resolved),
            dict(transactions_per_core=transactions_per_core, seed=seed),
        )
        for engine in engines
    ]


def render(platform_name: str, results: Sequence[CellResult]) -> str:
    """The engine-comparison table plus a sync-telemetry line per engine."""
    headers = [
        "engine", "shards", "victim GB/s", "total GB/s", "victim share",
        "Jain", "victim p50 ns", "victim p99 ns", "txns",
    ]
    rows = []
    notes = []
    for result in results:
        if not result.ok:
            rows.append([
                f"cell {result.index}", f"FAILED ({result.failure.kind})",
                "-", "-", "-", "-", "-", "-", "-",
            ])
            continue
        outcome: ShardCellOutcome = result.value
        victim = outcome.flows[0]
        rows.append([
            outcome.engine,
            str(outcome.shards),
            f"{victim.achieved_gbps:.2f}",
            f"{sum(f.achieved_gbps for f in outcome.flows):.2f}",
            f"{outcome.victim_share:.3f}",
            f"{outcome.jain:.4f}",
            f"{victim.p50_ns:.1f}",
            f"{victim.p99_ns:.1f}",
            str(outcome.transactions),
        ])
        if outcome.sync is not None:
            sync = outcome.sync
            notes.append(
                f"{outcome.engine}({outcome.shards}): "
                f"lookahead {sync['lookahead_ns']:.1f} ns, "
                f"{sync['windows']} windows, "
                f"{sync['cross_messages']} cross-shard messages"
            )
    table = render_table(
        headers, rows,
        title=f"Sharded vs serial DES on the contention cell ({platform_name})",
    )
    if notes:
        table += "\n" + "\n".join(notes)
    return table

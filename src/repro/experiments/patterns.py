"""Access-pattern bandwidth matrix — the §3.1 utility's remaining axes.

The paper's utility generates "random/sequential read/write access patterns,
and temporal or non-temporal writes". Tables 2-3 only publish the
sequential/NT corner; this experiment fills in the whole matrix so the
pattern costs are first-class measured artifacts:

* sequential reads reach the full MLP ceiling (prefetchers keep it full);
* random reads halve it (demand misses only);
* pointer chasing collapses to one line per round trip;
* temporal (RFO) stores pay a read for every write;
* non-temporal stores stream through the write-combining buffers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.core.flows import Pattern, Scope
from repro.core.microbench import MicroBench
from repro.platform.topology import Platform
from repro.runner import Cell
from repro.transport.message import OpKind

__all__ = ["PatternMatrix", "run", "cells", "render"]

#: The (label, op, pattern) combinations measured per scope.
_COMBOS: Tuple[Tuple[str, OpKind, Pattern], ...] = (
    ("sequential-read", OpKind.READ, Pattern.SEQUENTIAL),
    ("random-read", OpKind.READ, Pattern.RANDOM),
    ("pointer-chase", OpKind.READ, Pattern.POINTER_CHASE),
    ("temporal-write", OpKind.WRITE, Pattern.SEQUENTIAL),
    ("nt-write", OpKind.NT_WRITE, Pattern.SEQUENTIAL),
)


@dataclass(frozen=True)
class PatternMatrix:
    """Measured bandwidth (GB/s) per (combo label, scope)."""

    platform: str
    cells: Dict[Tuple[str, str], float]


def run(platform: Platform, seed: int = 0) -> PatternMatrix:
    """Measure the full pattern × scope bandwidth matrix."""
    bench = MicroBench(platform, seed=seed)
    cells: Dict[Tuple[str, str], float] = {}
    for scope in (Scope.CORE, Scope.CCX, Scope.CPU):
        for label, op, pattern in _COMBOS:
            cells[(label, scope.value)] = bench.stream_bandwidth(
                scope, op, pattern=pattern
            )
    return PatternMatrix(platform.name, cells)


def cells(platform: Platform, seed: int = 0) -> List[Cell]:
    """The platform's pattern matrix as one runner cell."""
    return [Cell(run, (platform,), {"seed": seed})]


def render(results: Dict[str, PatternMatrix]) -> str:
    """Render the result as an aligned paper-style text table."""
    blocks = []
    for name, matrix in results.items():
        rows = []
        for label, __, __p in _COMBOS:
            rows.append([
                label,
                *(
                    f"{matrix.cells[(label, scope.value)]:.2f}"
                    for scope in (Scope.CORE, Scope.CCX, Scope.CPU)
                ),
            ])
        blocks.append(render_table(
            ["pattern", "core GB/s", "ccx GB/s", "cpu GB/s"],
            rows,
            title=f"Access-pattern bandwidth matrix ({name})",
        ))
    return "\n\n".join(blocks)

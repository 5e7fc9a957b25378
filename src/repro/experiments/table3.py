"""Table 3 — maximum achieved bandwidth per sender scope.

Streams of AVX-512-style reads and non-temporal writes at core / CCX / CCD /
CPU scope, toward DIMMs and (on the 9634) CXL memory. Which bandwidth domain
binds at each scope is emergent from the fluid solve over the platform's
channels — the per-core MLP, the CCX token pool, the GMI port, the NoC
routing capacity, and the P-Link/CXL chain respectively (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import format_pair, render_table
from repro.core.flows import Scope
from repro.core.microbench import MicroBench
from repro.platform.topology import Platform
from repro.runner import Cell
from repro.transport.message import OpKind

__all__ = ["Table3Result", "run", "cells", "render", "PAPER_TABLE3"]

#: The paper's Table 3: {platform: {(scope, target): (read, write) GB/s}}.
PAPER_TABLE3: Dict[str, Dict[Tuple[str, str], Tuple[float, float]]] = {
    "EPYC 7302": {
        ("core", "dram"): (14.9, 3.6),
        ("ccx", "dram"): (25.1, 7.1),
        ("ccd", "dram"): (32.5, 14.3),
        ("cpu", "dram"): (106.7, 55.1),
    },
    "EPYC 9634": {
        ("core", "dram"): (14.6, 3.3),
        ("ccx", "dram"): (35.2, 23.8),
        ("ccd", "dram"): (33.2, 23.6),
        ("cpu", "dram"): (366.2, 270.6),
        ("core", "cxl"): (5.4, 2.8),
        ("ccx", "cxl"): (23.6, 15.8),
        ("ccd", "cxl"): (25.0, 15.0),
        ("cpu", "cxl"): (88.1, 87.7),
    },
}


@dataclass(frozen=True)
class Table3Result:
    """Measured bandwidth: {(scope, target): (read GB/s, write GB/s)}."""

    platform: str
    cells: Dict[Tuple[str, str], Tuple[float, float]]

    def read_gbps(self, scope: str, target: str = "dram") -> float:
        """Measured read bandwidth of one (scope, target) cell."""
        return self.cells[(scope, target)][0]

    def write_gbps(self, scope: str, target: str = "dram") -> float:
        """Measured write bandwidth of one (scope, target) cell."""
        return self.cells[(scope, target)][1]


def run(platform: Platform, seed: int = 0) -> Table3Result:
    """Measure every Table 3 cell available on ``platform``."""
    bench = MicroBench(platform, seed=seed)
    targets = ["dram"] + (["cxl"] if platform.cxl_devices else [])
    cells: Dict[Tuple[str, str], Tuple[float, float]] = {}
    for target in targets:
        for scope in Scope:
            read = bench.stream_bandwidth(scope, OpKind.READ, target=target)
            write = bench.stream_bandwidth(scope, OpKind.NT_WRITE, target=target)
            cells[(scope.value, target)] = (read, write)
    return Table3Result(platform.name, cells)


def cells(platform: Platform, seed: int = 0) -> List[Cell]:
    """The platform's Table 3 columns as one runner cell."""
    return [Cell(run, (platform,), {"seed": seed})]


def umc_channel_bandwidth(platform: Platform, seed: int = 0) -> Tuple[float, float]:
    """Single-UMC ceiling (the §3.3 "a UMC can deliver at most…" aside).

    The whole CPU streams to exactly one memory channel, so the channel's
    service rate is the only binding constraint (a single chiplet cannot
    expose it — its own CCX/GMI ceilings bind first).
    """
    bench = MicroBench(platform, seed=seed)
    umc = min(platform.umcs)
    read = bench.stream_bandwidth(Scope.CPU, OpKind.READ, umc_ids=[umc])
    write = bench.stream_bandwidth(Scope.CPU, OpKind.NT_WRITE, umc_ids=[umc])
    return read, write


def render(results: Dict[str, Table3Result]) -> str:
    """Render the result as an aligned paper-style text table."""
    scopes = ["core", "ccx", "ccd", "cpu"]
    headers = ["From \\ To"]
    for name in results:
        for target in ("dram", "cxl"):
            if any((scope, target) in results[name].cells for scope in scopes):
                headers.append(f"{name} {target.upper()} sim")
                headers.append(f"{name} {target.upper()} paper")
    rows = []
    for scope in scopes:
        row = [f"From {scope.upper()}"]
        for name, result in results.items():
            for target in ("dram", "cxl"):
                if not any(
                    (s, target) in result.cells for s in scopes
                ):
                    continue
                cell = result.cells.get((scope, target))
                paper = PAPER_TABLE3.get(name, {}).get((scope, target))
                row.append("N/A" if cell is None else format_pair(*cell))
                row.append("N/A" if paper is None else format_pair(*paper))
        rows.append(row)
    return render_table(
        headers, rows,
        title="Table 3: max bandwidth (read/write GB/s) by sender scope",
    )

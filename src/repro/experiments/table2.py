"""Table 2 — the data-path latency breakdown.

Method (as in §3.1): pointer chasing with a growing working set resolves the
cache levels; saturation probes read back the traffic-control queueing
bounds; per-position DRAM accesses and the CXL DIMM access exercise the full
routed path. Every value is *measured* from the simulation — the platform
presets only hold per-stage constants, and the sums/queueing emerge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.report import render_table
from repro.core.flows import Scope
from repro.core.microbench import MicroBench
from repro.platform.numa import Position
from repro.platform.topology import Platform
from repro.runner import Cell

__all__ = ["Table2Row", "run", "cells", "render", "PAPER_TABLE2"]

#: The paper's Table 2 (ns) for comparison. None = N/A on that platform.
PAPER_TABLE2: Dict[str, Dict[str, Optional[float]]] = {
    "EPYC 7302": {
        "l1": 1.24, "l2": 5.66, "l3": 34.3,
        "max_ccx_q": 30.0, "max_ccd_q": 20.0,
        "switching_hop": 8.0, "io_hub": 15.0,
        "near": 124.0, "vertical": 131.0, "horizontal": 141.0,
        "diagonal": 145.0, "cxl": None,
    },
    "EPYC 9634": {
        "l1": 1.19, "l2": 7.51, "l3": 40.8,
        "max_ccx_q": 20.0, "max_ccd_q": None,
        "switching_hop": 4.0, "io_hub": 15.0,
        "near": 141.0, "vertical": 145.0, "horizontal": 150.0,
        "diagonal": 149.0, "cxl": 243.0,
    },
}


@dataclass(frozen=True)
class Table2Row:
    """Measured latency breakdown for one platform (ns; None = N/A)."""

    platform: str
    l1: float
    l2: float
    l3: float
    max_ccx_q: float
    max_ccd_q: Optional[float]
    switching_hop: float
    io_hub: float
    near: float
    vertical: float
    horizontal: float
    diagonal: float
    cxl: Optional[float]

    def as_dict(self) -> Dict[str, Optional[float]]:
        """The row as a plain {field: value} mapping."""
        return {
            "l1": self.l1, "l2": self.l2, "l3": self.l3,
            "max_ccx_q": self.max_ccx_q, "max_ccd_q": self.max_ccd_q,
            "switching_hop": self.switching_hop, "io_hub": self.io_hub,
            "near": self.near, "vertical": self.vertical,
            "horizontal": self.horizontal, "diagonal": self.diagonal,
            "cxl": self.cxl,
        }


def run(platform: Platform, iterations: int = 2000, seed: int = 0) -> Table2Row:
    """Measure the full Table 2 column for one platform."""
    bench = MicroBench(platform, seed=seed)
    spec = platform.spec

    # Cache levels: pointer chase with working sets at half of each capacity.
    results = {}
    for label, working_set in (
        ("l1", spec.l1_bytes // 2),
        ("l2", spec.l2_bytes // 2),
        ("l3", spec.l3_per_ccx_bytes // 2),
    ):
        __, stats = bench.pointer_chase(working_set, iterations=iterations)
        results[label] = stats.mean

    # Traffic-control queueing: saturate one CCX, then one whole CCD.
    ccx_probe = bench.queueing_probe(Scope.CCX)
    results["max_ccx_q"] = ccx_probe["ccx_max_wait_ns"]
    if spec.latency.ccd_queue_max_ns > 0:
        ccd_probe = bench.queueing_probe(Scope.CCD)
        results["max_ccd_q"] = ccd_probe["ccd_max_wait_ns"]
    else:
        results["max_ccd_q"] = None

    # DRAM by mesh position; use a working set far beyond the L3 slice.
    dram_ws = 4 * spec.l3_per_ccx_bytes
    for position in Position:
        __, stats = bench.pointer_chase(
            dram_ws, position=position, iterations=iterations
        )
        results[position.value] = stats.mean

    # CXL DIMM (9634 only).
    if platform.cxl_devices:
        __, stats = bench.pointer_chase(
            dram_ws, target="cxl", iterations=iterations
        )
        results["cxl"] = stats.mean
    else:
        results["cxl"] = None

    return Table2Row(
        platform=platform.name,
        l1=results["l1"],
        l2=results["l2"],
        l3=results["l3"],
        max_ccx_q=results["max_ccx_q"],
        max_ccd_q=results["max_ccd_q"],
        switching_hop=spec.latency.switching_hop_ns,
        io_hub=spec.latency.io_hub_ns,
        near=results["near"],
        vertical=results["vertical"],
        horizontal=results["horizontal"],
        diagonal=results["diagonal"],
        cxl=results["cxl"],
    )


def cells(
    platform: Platform, iterations: int = 2000, seed: int = 0
) -> List[Cell]:
    """The platform's Table 2 column as one runner cell."""
    return [Cell(run, (platform,), {"iterations": iterations, "seed": seed})]


def render(rows: Dict[str, Table2Row]) -> str:
    """Render measured columns side by side with the paper's values.

    A preset the paper did not measure gets N/A paper cells.
    """
    labels = {
        "l1": "L1",
        "l2": "L2",
        "l3": "L3",
        "max_ccx_q": "Max CCX Q",
        "max_ccd_q": "Max CCD Q",
        "switching_hop": "Switching hop",
        "io_hub": "I/O hub",
        "near": "DRAM near",
        "vertical": "DRAM vertical",
        "horizontal": "DRAM horizontal",
        "diagonal": "DRAM diagonal",
        "cxl": "CXL DIMM",
    }
    names = list(rows)
    headers = ["Latency (ns)"]
    for name in names:
        headers += [f"{name} (sim)", f"{name} (paper)"]
    table_rows = []
    for key, label in labels.items():
        row = [label]
        for name in names:
            measured = rows[name].as_dict()[key]
            paper = PAPER_TABLE2.get(name, {}).get(key)
            row.append("N/A" if measured is None else f"{measured:.2f}")
            row.append("N/A" if paper is None else f"{paper:.2f}")
        table_rows.append(row)
    return render_table(
        headers, table_rows, title="Table 2: data path latency breakdown"
    )

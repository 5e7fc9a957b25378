"""Table 1 — hardware specifications of the two evaluated processors.

Static by construction (the specs *are* the platform presets); regenerating
it verifies the presets encode what the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.report import render_table
from repro.platform.presets import epyc_7302, epyc_9634
from repro.platform.topology import Platform
from repro.runner import Cell
from repro.units import KIB, MIB

__all__ = ["Table1Result", "run", "cells", "render", "PAPER_TABLE1"]

#: The paper's Table 1, for comparison in tests and EXPERIMENTS.md.
PAPER_TABLE1 = {
    "EPYC 7302": {
        "microarchitecture": "Zen 2",
        "l1_kib": 32, "l2_kib": 512, "l3_mib": 128,
        "cores": 16, "ccx": 8, "ccd": 4,
        "compute_nm": 7, "io_nm": 12,
        "pcie_gen": 4, "pcie_lanes": 128,
        "base_ghz": 3.0, "turbo_ghz": 3.3,
    },
    "EPYC 9634": {
        "microarchitecture": "Zen 4",
        "l1_kib": 64, "l2_kib": 1024, "l3_mib": 384,
        "cores": 84, "ccx": 12, "ccd": 12,
        "compute_nm": 5, "io_nm": 6,
        "pcie_gen": 5, "pcie_lanes": 128,
        "base_ghz": 2.25, "turbo_ghz": 3.7,
    },
}


@dataclass(frozen=True)
class Table1Result:
    rows: Dict[str, Dict[str, object]]

    def row(self, platform_name: str) -> Dict[str, object]:
        """The described spec fields for one platform."""
        return self.rows[platform_name]


def _describe(platform: Platform) -> Dict[str, object]:
    spec = platform.spec
    return {
        "microarchitecture": spec.microarchitecture,
        "l1_kib": spec.l1_bytes // KIB,
        "l2_kib": spec.l2_bytes // KIB,
        "l3_mib": spec.l3_total_bytes // MIB,
        "cores": spec.cores,
        "ccx": spec.ccx_count,
        "ccd": spec.ccd_count,
        "compute_nm": spec.compute_process_nm,
        "io_nm": spec.io_process_nm,
        "pcie_gen": spec.pcie_gen,
        "pcie_lanes": spec.pcie_lanes,
        "base_ghz": spec.base_ghz,
        "turbo_ghz": spec.turbo_ghz,
    }


def run() -> Table1Result:
    """Describe both preset platforms."""
    return Table1Result(
        {plat.name: _describe(plat) for plat in (epyc_7302(), epyc_9634())}
    )


def cells() -> List[Cell]:
    """Table 1's one runner cell (it describes both presets at once)."""
    return [Cell(run)]


def render(result: Table1Result) -> str:
    """Render the result as an aligned paper-style text table."""
    names = list(result.rows)
    header = ["Parameters"] + names
    rows: List[List[object]] = []
    labels = {
        "microarchitecture": "Microarchitecture",
        "l1_kib": "L1 (per core, KiB)",
        "l2_kib": "L2 (per core, KiB)",
        "l3_mib": "L3 (per CPU, MiB)",
        "cores": "Core # (per CPU)",
        "ccx": "CCX # (per CPU)",
        "ccd": "Compute chiplets # (per CPU)",
        "compute_nm": "Process (compute die, nm)",
        "io_nm": "Process (I/O die, nm)",
        "pcie_gen": "PCIe Gen",
        "pcie_lanes": "PCIe lanes",
        "base_ghz": "Base frequency (GHz)",
        "turbo_ghz": "Turbo frequency (GHz)",
    }
    for key, label in labels.items():
        rows.append([label] + [result.rows[name][key] for name in names])
    return render_table(header, rows, title="Table 1: HW specifications")

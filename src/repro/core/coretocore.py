"""Core-to-core communication latency — the LLC snooping path.

"A cacheline-sized LLC snooping request mostly traverses the Infinity
Fabric" (§2.3). This module measures the classic producer→consumer
cacheline-handoff matrix: a consumer loads a line that is dirty in the
producer's cache, and the transfer cost depends entirely on where the two
cores sit in the chiplet hierarchy:

* same CCX — served from the shared L3 slice;
* different CCX — the snoop crosses the Infinity Fabric to the I/O die and
  back, *even on the same CCD* (Zen 2's two CCXs per die have no direct
  path — the reason the 7302's "on-die" handoffs cost the same as
  cross-die ones);
* different CCD — additionally pays the mesh hops between the two
  chiplets' ports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import TopologyError
from repro.platform.topology import Platform
from repro.runner import Cell

__all__ = [
    "HandoffClass", "core_to_core_ns", "CoreToCoreMatrix", "measure_matrix",
    "ccx_sample", "cells", "render",
]


@dataclass(frozen=True)
class HandoffClass:
    """One tier of the core-to-core latency hierarchy."""

    name: str
    latency_ns: float
    pair_count: int


def core_to_core_ns(platform: Platform, src_core: int, dst_core: int) -> float:
    """Unloaded dirty-cacheline handoff latency between two cores."""
    src = platform.core(src_core)
    dst = platform.core(dst_core)
    lat = platform.spec.latency
    if src.core_id == dst.core_id:
        return lat.l1_ns
    if src.ccx_id == dst.ccx_id:
        return lat.l3_ns
    # Cross-CCX: request to the I/O die, snoop to the owner, data response
    # back — two IF crossings each way plus the inter-port mesh distance.
    dx, dy = platform.mesh_offset(
        platform.ccds[src.ccd_id].coord, platform.ccds[dst.ccd_id].coord
    )
    return (
        lat.l3_ns                                   # local slice miss
        + 2.0 * (lat.if_link_ns + lat.ccm_ns)       # out and back
        + 2.0 * lat.mesh_cost_ns(dx, dy)            # to the owner port and back
        + lat.l3_ns                                 # owner slice lookup
    )


@dataclass(frozen=True)
class CoreToCoreMatrix:
    """The full pairwise handoff-latency matrix for one platform."""

    platform: str
    core_ids: List[int]
    latencies_ns: np.ndarray

    def classes(self, platform: Platform) -> List[HandoffClass]:
        """Group pairs into hierarchy tiers (same CCX / same CCD / cross)."""
        same_ccx: List[float] = []
        same_ccd: List[float] = []
        cross: List[float] = []
        for i, a in enumerate(self.core_ids):
            for j, b in enumerate(self.core_ids):
                if i >= j:
                    continue
                core_a, core_b = platform.core(a), platform.core(b)
                value = float(self.latencies_ns[i, j])
                if core_a.ccx_id == core_b.ccx_id:
                    same_ccx.append(value)
                elif core_a.ccd_id == core_b.ccd_id:
                    same_ccd.append(value)
                else:
                    cross.append(value)
        tiers = []
        for name, values in (
            ("same-ccx", same_ccx),
            ("same-ccd-cross-ccx", same_ccd),
            ("cross-ccd", cross),
        ):
            if values:
                tiers.append(
                    HandoffClass(name, float(np.mean(values)), len(values))
                )
        return tiers

    def heatmap(self, cell_width: int = 6) -> str:
        """Render the matrix as a text heatmap (ns)."""
        header = " " * 7 + "".join(
            f"c{core:<{cell_width - 1}}" for core in self.core_ids
        )
        lines = [header]
        for i, core in enumerate(self.core_ids):
            row = "".join(
                f"{self.latencies_ns[i, j]:>{cell_width}.0f}"
                for j in range(len(self.core_ids))
            )
            lines.append(f"c{core:<5} {row}")
        return "\n".join(lines)


def measure_matrix(
    platform: Platform, core_ids: List[int] | None = None
) -> CoreToCoreMatrix:
    """Pairwise handoff latencies for ``core_ids`` (default: all cores)."""
    cores = core_ids if core_ids is not None else sorted(platform.cores)
    for core in cores:
        if core not in platform.cores:
            raise TopologyError(f"unknown core {core}")
    n = len(cores)
    matrix = np.zeros((n, n))
    for i, a in enumerate(cores):
        for j, b in enumerate(cores):
            matrix[i, j] = core_to_core_ns(platform, a, b)
    return CoreToCoreMatrix(platform.name, list(cores), matrix)


def ccx_sample(platform: Platform) -> List[int]:
    """One core per CCX (each CCX's first), in core order."""
    return sorted(
        {platform.cores_of_ccx(ccx_id)[0].core_id for ccx_id in platform.ccxs}
    )


def cells(platform: Platform) -> List[Cell]:
    """The first 12 cores of :func:`ccx_sample` as one matrix cell."""
    return [
        Cell(measure_matrix, (platform,), {"core_ids": ccx_sample(platform)[:12]})
    ]


def render(matrix: CoreToCoreMatrix) -> str:
    """A one-core-per-CCX matrix as the titled heatmap ``repro`` prints."""
    return (
        f"core-to-core handoff latency (ns), {matrix.platform} "
        f"(one core per CCX):\n" + matrix.heatmap()
    )

"""OS-structure scaling on the chiplet network — the §4 #2 exploration.

Sweeps a shared-kernel-object update rate and evaluates both OS structures
on both platforms. The questions the paper poses, answered with numbers:

* where does line-bouncing shared memory saturate (it serializes on the
  average cross-chiplet transfer, which §3.2's extended paths stretch)?
* what does multikernel message passing cost in visibility latency, and
  when do its IF-link broadcasts become the wall (§3.3's bandwidth
  domains)?
* does the answer change between 4 chiplets (7302) and 12 (9634)?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.osdesign.model import (
    DesignPoint,
    MultikernelDesign,
    SharedMemoryDesign,
)
from repro.platform.topology import Platform
from repro.runner import Cell

__all__ = ["OsScalingResult", "run", "cells", "render"]


@dataclass(frozen=True)
class OsScalingResult:
    platform: str
    shared_max_mops: float
    multikernel_max_mops: float
    #: Offered rate (Mops) above which multikernel's visibility latency
    #: beats shared memory's update latency; None if it never does within
    #: the sweep.
    crossover_mops: float
    points: Tuple[DesignPoint, ...]

    @property
    def multikernel_scales_further(self) -> bool:
        return self.multikernel_max_mops > self.shared_max_mops


def run(platform: Platform, sweep_points: int = 24) -> OsScalingResult:
    """Evaluate both designs across an update-rate sweep."""
    shared = SharedMemoryDesign(platform)
    multikernel = MultikernelDesign(platform)
    shared_max = shared.max_mops()
    multi_max = multikernel.max_mops()
    top = max(shared_max, multi_max) * 1.05
    rates = [top * (i + 1) / sweep_points for i in range(sweep_points)]
    points: List[DesignPoint] = []
    crossover = float("inf")
    for rate in rates:
        shared_point = shared.evaluate(rate)
        multi_point = multikernel.evaluate(rate)
        points.extend((shared_point, multi_point))
        if (
            crossover == float("inf")
            and multi_point.sustainable
            and multi_point.visibility_ns < shared_point.visibility_ns
        ):
            crossover = rate
    return OsScalingResult(
        platform=platform.name,
        shared_max_mops=shared_max,
        multikernel_max_mops=multi_max,
        crossover_mops=crossover,
        points=tuple(points),
    )


def cells(platform: Platform) -> List[Cell]:
    """The platform's design sweep as one runner cell."""
    return [Cell(run, (platform,))]


def render(results: Dict[str, OsScalingResult]) -> str:
    """Render the result as an aligned paper-style text table."""
    rows = []
    for result in results.values():
        rows.append([
            result.platform,
            f"{result.shared_max_mops:.1f}",
            f"{result.multikernel_max_mops:.1f}",
            "never"
            if result.crossover_mops == float("inf")
            else f"{result.crossover_mops:.1f}",
            "multikernel"
            if result.multikernel_scales_further
            else "shared memory",
        ])
    header = [
        "platform", "shared-mem max (Mops)", "multikernel max (Mops)",
        "crossover (Mops)", "scales further",
    ]
    lines = [render_table(
        header, rows,
        title="OS structure scaling on the chiplet network (§4 #2)",
    )]
    # A few representative latency points per platform.
    lines.append("")
    lines.append("visibility latency (ns) at fractions of shared-memory peak:")
    for result in results.values():
        shared = [p for p in result.points if p.design == "shared-memory"]
        multi = [p for p in result.points if p.design == "multikernel"]
        samples = []
        for fraction in (0.25, 0.5, 0.9):
            target = fraction * result.shared_max_mops
            nearest_shared = min(
                shared, key=lambda p: abs(p.offered_mops - target)
            )
            nearest_multi = min(
                multi, key=lambda p: abs(p.offered_mops - target)
            )
            samples.append(
                f"{fraction:.0%}: sm={nearest_shared.visibility_ns:.0f} "
                f"mk={nearest_multi.visibility_ns:.0f}"
            )
        lines.append(f"  {result.platform}: " + "; ".join(samples))
    return "\n".join(lines)

"""Figure 6 — read/write interference on the EPYC 9634.

A frontend stream X runs at max rate while a background stream Y sweeps its
load; the figure reports X's achieved bandwidth per (X, Y) ∈ {read, write}².
The paper's finding: "interference occurs only when a particular link in one
direction is saturated", with the knees below.

Mechanism in the model: each link scenario has separate read/write data
capacities plus (within a compute chiplet) a shared transaction-slot budget
that reads and non-temporal writes draw from with different weights — that
budget is how a saturating read stream throttles writes that never touch the
read direction. X is elastic (window-limited), Y is NOP-paced, so X holds
its own ceiling until a shared resource saturates and then yields exactly
the saturated residual.

Scenario constants are calibrated to the paper's knees (all GB/s):

* IF intra-CC — writes/reads affected when background reads reach 32.8/27.7;
* IF inter-CC — writes rarely affected; reads degrade past 55.7 aggregate;
* GMI — interference once aggregate read (write) reaches 31.8 (29.1);
* P Link/CXL — 62.8 (44.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.report import render_table
from repro.core.partition import InterferenceLink
from repro.errors import ConfigurationError
from repro.platform.topology import Platform
from repro.runner import Cell
from repro.transport.message import OpKind

__all__ = [
    "Fig6Scenario",
    "Fig6Curve",
    "Fig6Result",
    "scenarios_for",
    "run",
    "cells",
    "render",
    "PAPER_KNEES",
]

#: The paper's interference thresholds: {(scenario, X op, Y op): Y GB/s or
#: aggregate GB/s as the text quotes them}. None = "rarely affected".
PAPER_KNEES: Dict[Tuple[str, str, str], Optional[float]] = {
    ("if-intra-cc", "write", "read"): 32.8,
    ("if-intra-cc", "read", "read"): 27.7,
    ("if-intra-cc", "read", "write"): None,
    ("if-inter-cc", "write", "read"): None,
    ("if-inter-cc", "write", "write"): None,
}


@dataclass(frozen=True)
class Fig6Scenario:
    """One panel: the shared link and X's own ceilings per direction."""

    name: str
    link: InterferenceLink
    x_read_ceiling: float
    x_write_ceiling: float
    y_max_read: float
    y_max_write: float


def scenarios_for(platform: Platform) -> List[Fig6Scenario]:
    """The four Figure 6 panels, calibrated for the EPYC 9634."""
    if not platform.cxl_devices:
        raise ConfigurationError(
            "Figure 6 is measured on the CXL-equipped EPYC 9634"
        )
    bw = platform.spec.bandwidth
    per_core_read = bw.mlp_read * 64.0 / 141.0
    per_core_write = bw.wcb_write * 64.0 / 141.0
    scenarios = [
        # Within one compute chiplet: X(read) on one core, X(write) on the
        # whole CCX; both share the chiplet's ~42 GB/s transaction-slot
        # budget, where NT writes weigh 0.42 of a read.
        Fig6Scenario(
            "if-intra-cc",
            InterferenceLink(
                "if-intra-cc",
                read_cap_gbps=50.0,          # response direction, not binding
                write_cap_gbps=bw.gmi_write_gbps,
                slot_cap_gbps=42.2,
                write_slot_weight=0.42,
            ),
            x_read_ceiling=per_core_read,            # ≈14.5
            x_write_ceiling=7 * per_core_write,      # ≈22.3
            y_max_read=40.0,
            y_max_write=22.0,
        ),
        # Across compute chiplets: X and Y in different CCDs share a NoC
        # region whose read direction caps at 55.7; writes ride separate
        # routing paths with headroom above two chiplets' combined writes.
        Fig6Scenario(
            "if-inter-cc",
            InterferenceLink(
                "if-inter-cc",
                read_cap_gbps=55.7,
                write_cap_gbps=50.0,
                slot_cap_gbps=None,          # different chiplets, no shared pool
            ),
            x_read_ceiling=bw.gmi_read_gbps,          # 35.2
            x_write_ceiling=bw.gmi_write_gbps,        # 23.8
            y_max_read=35.0,
            y_max_write=23.8,
        ),
        # GMI: both streams target one NUMA domain; mixed-stream service
        # ceilings sit slightly below the pure-stream UMC rates.
        Fig6Scenario(
            "gmi",
            InterferenceLink(
                "gmi",
                read_cap_gbps=31.8,
                write_cap_gbps=29.1,
                slot_cap_gbps=None,
            ),
            x_read_ceiling=per_core_read,
            x_write_ceiling=per_core_write,
            y_max_read=35.0,
            y_max_write=30.0,
        ),
        # P Link/CXL: the paper's aggregate saturation points for the CXL
        # device pool under mixed streams.
        Fig6Scenario(
            "plink-cxl",
            InterferenceLink(
                "plink-cxl",
                read_cap_gbps=62.8,
                write_cap_gbps=44.0,
                slot_cap_gbps=None,
            ),
            x_read_ceiling=bw.hub_port_read_gbps,     # 24 (CCX→CXL ceiling)
            x_write_ceiling=bw.hub_port_write_gbps,   # 16
            y_max_read=60.0,
            y_max_write=40.0,
        ),
    ]
    return scenarios


@dataclass(frozen=True)
class Fig6Curve:
    """X's achieved bandwidth versus Y's offered load for one (X, Y) combo."""

    scenario: str
    x_op: OpKind
    y_op: OpKind
    y_offered: Tuple[float, ...]
    x_achieved: Tuple[float, ...]
    #: Y load at which X first drops >2% below its solo bandwidth.
    knee_gbps: Optional[float]

    @property
    def baseline(self) -> float:
        return self.x_achieved[0]

    @property
    def knee_aggregate_gbps(self) -> Optional[float]:
        """X+Y at the knee — how the paper's text quotes GMI and P Link."""
        if self.knee_gbps is None:
            return None
        return self.knee_gbps + self.baseline


@dataclass(frozen=True)
class Fig6Result:
    platform: str
    curves: List[Fig6Curve]

    def curve(self, scenario: str, x_op: OpKind, y_op: OpKind) -> Fig6Curve:
        """Look up one (scenario, X op, Y op) curve."""
        for curve in self.curves:
            if (
                curve.scenario == scenario
                and curve.x_op is x_op
                and curve.y_op is y_op
            ):
                return curve
        raise KeyError((scenario, x_op, y_op))


def run(platform: Platform, points: int = 40) -> Fig6Result:
    """Sweep all four (X, Y) combos on every panel."""
    curves: List[Fig6Curve] = []
    for scenario in scenarios_for(platform):
        for x_op in (OpKind.READ, OpKind.NT_WRITE):
            x_ceiling = (
                scenario.x_write_ceiling if x_op.is_write
                else scenario.x_read_ceiling
            )
            for y_op in (OpKind.READ, OpKind.NT_WRITE):
                y_max = (
                    scenario.y_max_write if y_op.is_write
                    else scenario.y_max_read
                )
                offered = [y_max * i / (points - 1) for i in range(points)]
                achieved = [
                    scenario.link.frontend_achieved(x_op, x_ceiling, y_op, y)
                    for y in offered
                ]
                knee = scenario.link.interference_knee_gbps(
                    x_op, x_ceiling, y_op, y_max_gbps=y_max
                )
                curves.append(
                    Fig6Curve(
                        scenario.name, x_op, y_op,
                        tuple(offered), tuple(achieved), knee,
                    )
                )
    return Fig6Result(platform.name, curves)


def cells(platform: Platform, points: int = 40) -> List[Cell]:
    """Figure 6 as one runner cell; none on a platform without CXL."""
    if not platform.cxl_devices:
        return []
    return [Cell(run, (platform,), {"points": points})]


def render(result: Fig6Result) -> str:
    """Render the result as an aligned paper-style text table."""
    headers = [
        "scenario", "X", "Y", "X solo", "knee (Y GB/s)", "knee (X+Y GB/s)",
    ]
    rows = []
    for curve in result.curves:
        rows.append([
            curve.scenario,
            curve.x_op.value,
            curve.y_op.value,
            f"{curve.baseline:.1f}",
            "none" if curve.knee_gbps is None else f"{curve.knee_gbps:.1f}",
            "none"
            if curve.knee_aggregate_gbps is None
            else f"{curve.knee_aggregate_gbps:.1f}",
        ])
    return render_table(
        headers, rows,
        title=f"Figure 6: read/write interference on {result.platform}",
    )

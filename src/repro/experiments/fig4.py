"""Figure 4 — bandwidth partitioning of two competing flows.

Two NOP-paced flows share one link; four demand cases (capacity C):

1. under-subscribed — both flows receive exactly what they request;
2. one flow below the equal share, aggregate over C — the aggressive flow
   takes more than its equal share;
3. equal demands above the equal share — equilibrium split;
4. both above the equal share, unequal — the higher demand wins again.

The split emerges from the demand-proportional fluid solve (traffic-oblivious
FIFO arbitration); nothing in the experiment hard-codes the outcome. Links:
Infinity Fabric and GMI on both CPUs, the P Link on the 9634.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.core.partition import CompetingFlows, contend
from repro.errors import ConfigurationError
from repro.fluid.solver import Policy
from repro.platform.topology import Platform
from repro.runner import Cell

__all__ = [
    "Fig4Result", "link_capacity_gbps", "run", "cells", "render", "CASES",
]

#: (flow 0, flow 1) requested bandwidth as fractions of the link capacity.
CASES: Dict[str, Tuple[float, float]] = {
    "case1-undersubscribed": (0.30, 0.50),
    "case2-small-vs-aggressive": (0.20, 0.90),
    "case3-equal-demands": (0.80, 0.80),
    "case4-unequal-demands": (0.70, 1.00),
}


def link_capacity_gbps(platform: Platform, link: str) -> float:
    """Capacity of the shared direction each Figure 4 link experiment loads."""
    bw = platform.spec.bandwidth
    if link == "if":
        # The compute chiplet's die-to-die read direction.
        return platform.link("if/ccd0").read_gbps
    if link == "gmi":
        return bw.gmi_read_gbps
    if link == "plink":
        if not platform.cxl_devices:
            raise ConfigurationError(f"{platform.name} has no P Link/CXL memory")
        # Aggregate read capacity of the CXL device pool behind the P Links.
        frames = 68.0 / 64.0
        return (bw.cxl_dev_read_gbps or 0.0) * len(platform.cxl_devices) / frames
    raise ConfigurationError(f"unknown Figure 4 link {link!r}")


@dataclass(frozen=True)
class Fig4Result:
    platform: str
    #: {link: {case: CompetingFlows}}
    outcomes: Dict[str, Dict[str, CompetingFlows]]


def run(
    platform: Platform, policy: Policy = Policy.DEMAND_PROPORTIONAL
) -> Fig4Result:
    """Run the four cases on every link the platform has."""
    links = ["if", "gmi"] + (["plink"] if platform.cxl_devices else [])
    outcomes: Dict[str, Dict[str, CompetingFlows]] = {}
    for link in links:
        capacity = link_capacity_gbps(platform, link)
        outcomes[link] = {}
        for case, (frac0, frac1) in CASES.items():
            requested = {
                "flow0": frac0 * capacity,
                "flow1": frac1 * capacity,
            }
            achieved = contend(capacity, requested, policy)
            outcomes[link][case] = CompetingFlows(
                case=case,
                requested=requested,
                achieved=achieved,
                capacity_gbps=capacity,
            )
    return Fig4Result(platform.name, outcomes)


def cells(platform: Platform) -> List[Cell]:
    """The platform's partitioning cases as one runner cell."""
    return [Cell(run, (platform,))]


def render(results: List[Fig4Result]) -> str:
    """Render the result as an aligned paper-style text table."""
    headers = [
        "platform", "link", "case", "capacity",
        "req f0", "req f1", "got f0", "got f1", "f1 vs equal share",
    ]
    rows = []
    for result in results:
        for link, cases in result.outcomes.items():
            for case, outcome in cases.items():
                equal = outcome.equal_share()
                rows.append([
                    result.platform,
                    link,
                    case,
                    f"{outcome.capacity_gbps:.1f}",
                    f"{outcome.requested['flow0']:.1f}",
                    f"{outcome.requested['flow1']:.1f}",
                    f"{outcome.achieved['flow0']:.1f}",
                    f"{outcome.achieved['flow1']:.1f}",
                    f"{outcome.achieved['flow1'] - equal:+.1f}",
                ])
    return render_table(
        headers, rows,
        title="Figure 4: bandwidth partitioning of two competing flows (GB/s)",
    )

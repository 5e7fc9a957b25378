"""The traffic-manager ablation DESIGN.md calls out.

:func:`manager_vs_sender_driven` re-runs the Figure 4 cases under the
§4-proposed global traffic manager (max-min fair) and contrasts the
allocations and Jain fairness with the hardware's sender-driven split
(``repro all`` prints its headline). The token-pool and collapsed-NoC
ablations are model checks in ``tests/test_experiments_figs.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.partition import contend
from repro.experiments.fig4 import CASES, link_capacity_gbps
from repro.fluid.solver import Policy
from repro.manager.manager import ManagedAllocation
from repro.platform.topology import Platform

__all__ = ["ManagerAblation", "manager_vs_sender_driven"]


@dataclass(frozen=True)
class ManagerAblation:
    """Sender-driven vs managed allocation for one Figure 4 case."""

    case: str
    requested: Dict[str, float]
    sender_driven: Dict[str, float]
    managed: Dict[str, float]

    def fairness(self) -> Tuple[float, float]:
        """(sender-driven, managed) Jain indices."""
        return (
            ManagedAllocation(self.sender_driven, Policy.DEMAND_PROPORTIONAL)
            .jain_fairness(),
            ManagedAllocation(self.managed, Policy.MAX_MIN).jain_fairness(),
        )


def manager_vs_sender_driven(
    platform: Platform, link: str = "gmi"
) -> Dict[str, ManagerAblation]:
    """Figure 4 cases under both allocation disciplines."""
    capacity = link_capacity_gbps(platform, link)
    out: Dict[str, ManagerAblation] = {}
    for case, (frac0, frac1) in CASES.items():
        requested = {"flow0": frac0 * capacity, "flow1": frac1 * capacity}
        out[case] = ManagerAblation(
            case=case,
            requested=requested,
            sender_driven=contend(capacity, requested, Policy.DEMAND_PROPORTIONAL),
            managed=contend(capacity, requested, Policy.MAX_MIN),
        )
    return out

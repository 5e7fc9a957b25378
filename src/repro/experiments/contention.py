"""Shared construction of the Figure 4–6 style contention cell.

Several experiments probe sender-driven bandwidth partitioning starting
from the same two streams — a rate-controlled *victim* on chiplet 0
against a *hog* on chiplet 1 — and reshape them per probe. ``chaos``
solves the pair as built, each stream on its own chiplet's default
endpoints (disjoint NPS4 sets, so the hog never meets the victim there);
``netstack`` and ``explore`` shrink the victim to one CCX, pace the hog,
and put both on the victim's NPS4 set (:func:`shared_umc_ids`); the
chaos recovery cell stripes the victim's workers over that set, with no
hog. The probes share this construction, not their cells: their numbers
are not comparable cell-for-cell.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.fabric import FabricModel
from repro.core.flows import VICTIM_DEMAND_GBPS, StreamSpec
from repro.platform.numa import NpsMode
from repro.platform.topology import Platform
from repro.transport.message import OpKind

__all__ = ["VICTIM_DEMAND_GBPS", "contention_streams", "shared_umc_ids"]


def contention_streams(
    platform: Platform,
    victim_cores: Optional[Tuple[int, ...]] = None,
    hog_cores: Optional[Tuple[int, ...]] = None,
    victim_demand_gbps: float = VICTIM_DEMAND_GBPS,
    hog_demand_gbps: Optional[float] = None,
) -> Tuple[StreamSpec, StreamSpec]:
    """The canonical (victim, hog) stream pair.

    Defaults reproduce the partitioning probe: the victim paces
    ``VICTIM_DEMAND_GBPS`` from chiplet 0, the hog reads unthrottled
    (``hog_demand_gbps=None``) from chiplet 1. Callers reshape the cell by
    overriding the core sets (e.g. a small single-CCX victim against a
    whole-chiplet aggressor) or by pacing the hog at an aggressive rate.
    """
    ccd_ids = sorted(platform.ccds)
    if victim_cores is None:
        victim_cores = tuple(
            core.core_id for core in platform.cores_of_ccd(ccd_ids[0])
        )
    if hog_cores is None:
        # The aggressor lives on the next chiplet over — queried from the
        # platform rather than assumed to be literal id 1, so generated
        # topologies of any CCD count build a valid cell. A single-chiplet
        # platform falls back to intra-CCD contention: the victim's first
        # CCX against the rest of its chiplet.
        if len(ccd_ids) > 1:
            hog_cores = tuple(
                core.core_id for core in platform.cores_of_ccd(ccd_ids[1])
            )
        else:
            victim_set = set(victim_cores)
            hog_cores = tuple(
                core.core_id
                for core in platform.cores_of_ccd(ccd_ids[0])
                if core.core_id not in victim_set
            ) or victim_cores
    victim = StreamSpec(
        "victim", OpKind.READ, victim_cores, demand_gbps=victim_demand_gbps
    )
    hog = StreamSpec(
        "hog", OpKind.READ, hog_cores, demand_gbps=hog_demand_gbps
    )
    return victim, hog


def shared_umc_ids(platform: Platform, ccd_id: int = 0) -> List[int]:
    """The victim chiplet's NPS4 interleave set.

    Putting both streams' ``endpoints`` on this set puts them in front of
    the *same* memory endpoints — the endpoint contention the Figure 4–6
    cells need. (The chiplets' default NPS4 domains are disjoint, which
    would let the streams pass each other untouched.)
    """
    return FabricModel(platform).umc_ids_for_nps(ccd_id, NpsMode.NPS4)

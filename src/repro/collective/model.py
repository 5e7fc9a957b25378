"""Alpha-beta cost models for chiplet-level all-reduce.

Parameters derive from the platform:

* **alpha** — the per-step message latency between chiplets: the
  cross-chiplet handoff cost (two IF crossings plus the worst-case mesh
  distance between participating ports);
* **beta** — the per-chiplet injection bandwidth: the IF link's write
  capacity (the collective's payload leaves each chiplet through it).

Costs for an all-reduce of ``n`` bytes over ``k`` chiplets:

* ``FLAT``  — everyone sends to a root which reduces and broadcasts back:
  ``2·(alpha + (k−1)·n/beta)``; the root's link serializes all traffic.
* ``TREE``  — binomial reduce + broadcast: ``2·ceil(log2 k)·(alpha + n/beta)``.
* ``RING``  — reduce-scatter + all-gather: ``2·(k−1)·(alpha + n/(k·beta))``;
  bandwidth-optimal (each byte crosses each link ~2(k−1)/k times).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.errors import ConfigurationError
from repro.platform.topology import Platform

__all__ = [
    "Algorithm",
    "AllreduceTable",
    "CollectiveCost",
    "TABLE_BYTES",
    "allreduce_table",
    "allreduce_time_ns",
    "crossover_bytes",
    "render",
]

#: Payload sizes (bytes) of the all-reduce cost table.
TABLE_BYTES = (256, 4096, 65536, 1 << 20, 16 << 20)


class Algorithm(enum.Enum):
    """The three classic all-reduce algorithms."""

    FLAT = "flat"
    TREE = "tree"
    RING = "ring"


@dataclass(frozen=True)
class CollectiveCost:
    """The platform-derived alpha-beta parameters for k chiplets."""

    chiplets: int
    alpha_ns: float
    beta_gbps: float

    def __post_init__(self) -> None:
        if self.chiplets < 2:
            raise ConfigurationError("a collective needs at least 2 chiplets")
        if self.alpha_ns <= 0 or self.beta_gbps <= 0:
            raise ConfigurationError("alpha and beta must be positive")

    @classmethod
    def for_platform(
        cls, platform: Platform, chiplets: Optional[int] = None
    ) -> "CollectiveCost":
        k = chiplets if chiplets is not None else platform.spec.ccd_count
        if not 2 <= k <= platform.spec.ccd_count:
            raise ConfigurationError(
                f"chiplets must be in [2, {platform.spec.ccd_count}]"
            )
        lat = platform.spec.latency
        # Worst-case inter-port message latency among the participants.
        alpha = 0.0
        for src in range(k):
            for dst in range(k):
                if src == dst:
                    continue
                dx, dy = platform.mesh_offset(
                    platform.ccds[src].coord, platform.ccds[dst].coord
                )
                cost = (
                    2.0 * (lat.if_link_ns + lat.ccm_ns)
                    + lat.mesh_cost_ns(dx, dy)
                )
                alpha = max(alpha, cost)
        beta = platform.spec.bandwidth.gmi_write_gbps
        return cls(k, alpha, beta)

    def time_ns(self, algorithm: Algorithm, n_bytes: float) -> float:
        """All-reduce completion time (ns) for one algorithm."""
        if n_bytes <= 0:
            raise ConfigurationError("payload must be positive")
        k = self.chiplets
        if algorithm is Algorithm.FLAT:
            return 2.0 * (self.alpha_ns + (k - 1) * n_bytes / self.beta_gbps)
        if algorithm is Algorithm.TREE:
            steps = math.ceil(math.log2(k))
            return 2.0 * steps * (self.alpha_ns + n_bytes / self.beta_gbps)
        return 2.0 * (k - 1) * (
            self.alpha_ns + n_bytes / (k * self.beta_gbps)
        )


def allreduce_time_ns(
    platform: Platform,
    n_bytes: float,
    algorithm: Algorithm,
    chiplets: Optional[int] = None,
) -> float:
    """All-reduce completion time on the platform's chiplet network."""
    return CollectiveCost.for_platform(platform, chiplets).time_ns(
        algorithm, n_bytes
    )


def crossover_bytes(
    platform: Platform,
    chiplets: Optional[int] = None,
    lo: float = 64.0,
    hi: float = 1 << 30,
) -> Optional[float]:
    """Payload size where RING starts beating TREE (None if it never does).

    Solved by bisection on the cost difference, which is monotone in n.
    """
    cost = CollectiveCost.for_platform(platform, chiplets)

    def ring_wins(n: float) -> bool:
        return cost.time_ns(Algorithm.RING, n) < cost.time_ns(Algorithm.TREE, n)

    if ring_wins(lo):
        return lo
    if not ring_wins(hi):
        return None
    for __ in range(80):
        mid = (lo + hi) / 2.0
        if ring_wins(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class AllreduceTable:
    """All-reduce completion times by payload size on one platform."""

    platform: str
    #: (payload bytes, completion ns per algorithm in :class:`Algorithm`
    #: order), one row per payload size.
    rows: Tuple[Tuple[int, Tuple[float, ...]], ...]
    #: Where RING starts beating TREE (see :func:`crossover_bytes`).
    crossover_bytes: Optional[float]


def allreduce_table(
    platform: Platform, sizes: Sequence[int] = TABLE_BYTES
) -> AllreduceTable:
    """Every algorithm's all-reduce time at each payload size."""
    return AllreduceTable(
        platform.name,
        tuple(
            (n, tuple(allreduce_time_ns(platform, n, a) for a in Algorithm))
            for n in sizes
        ),
        crossover_bytes(platform),
    )


def render(table: AllreduceTable) -> str:
    """The cost table (microseconds) and the ring-over-tree crossover."""
    rows = [
        [n, *(f"{ns / 1e3:.1f}" for ns in times)] for n, times in table.rows
    ]
    text = render_table(
        ["bytes", *(f"{a.value} (us)" for a in Algorithm)],
        rows, title=f"All-reduce across chiplets ({table.platform})",
    )
    return (
        f"{text}\n\nring beats tree from {table.crossover_bytes:.0f} bytes"
    )

"""Flow specifications for the characterization utility."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.platform.topology import Platform
from repro.transport.message import OpKind

__all__ = ["Scope", "StreamSpec", "VICTIM_DEMAND_GBPS"]

#: Demand of the paced victim stream in the contention cells (GB/s), every
#: engine's. Fits comfortably on a healthy GMI port (share 1.0 when
#: uncontended) but exceeds what a squeezed or derated path delivers, so
#: the share responds smoothly to pressure.
VICTIM_DEMAND_GBPS = 24.0


class Scope(enum.Enum):
    """Which sender granularity a stream uses (the rows of Table 3)."""

    CORE = "core"
    CCX = "ccx"
    CCD = "ccd"
    CPU = "cpu"


class Pattern(enum.Enum):
    """Spatial access pattern of a stream (§3.1: the utility generates
    "random/sequential read/write access patterns").

    * ``SEQUENTIAL`` — prefetchers keep the full MLP window busy; the
      per-core ceiling is ``mlp × 64 B / latency``.
    * ``RANDOM`` — independent accesses without prefetch: only the
      demand-miss queues sustain parallelism, so the effective window is
      the platform's ``mlp_random_read``.
    * ``POINTER_CHASE`` — fully dependent loads (window of 1); the latency
      measurement mode of Table 2.
    """

    SEQUENTIAL = "sequential"
    RANDOM = "random"
    POINTER_CHASE = "pointer-chase"


@dataclass(frozen=True)
class StreamSpec:
    """One steady data stream: who sends, what op, where to, how fast.

    ``demand_gbps=None`` means "as fast as the cores can issue" (the paper's
    maximum-rate streams); a number models NOP-padded rate control.
    ``endpoints`` names the memory endpoints the stream targets: UMC ids
    for a DRAM stream, CXL device ids for a CXL one. Empty means the
    default interleave, which :meth:`FabricModel.endpoints_of
    <repro.core.fabric.FabricModel.endpoints_of>` resolves for every
    engine.
    """

    name: str
    op: OpKind
    core_ids: Tuple[int, ...]
    target: str = "dram"          # "dram" or "cxl"
    demand_gbps: Optional[float] = None
    pattern: Pattern = Pattern.SEQUENTIAL
    #: True targets DRAM homed on the *other* socket (2-socket boxes only).
    remote: bool = False
    endpoints: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ConfigurationError(f"stream {self.name}: no cores")
        if self.target not in ("dram", "cxl"):
            raise ConfigurationError(
                f"stream {self.name}: target must be 'dram' or 'cxl'"
            )
        if self.demand_gbps is not None and not (
            math.isfinite(self.demand_gbps) and self.demand_gbps >= 0
        ):
            raise ConfigurationError(
                f"stream {self.name}: demand must be finite and non-negative"
            )
        if self.remote and self.target != "dram":
            raise ConfigurationError(
                f"stream {self.name}: remote-socket access targets DRAM"
            )

    @staticmethod
    def cores_for_scope(platform: Platform, scope: Scope) -> Tuple[int, ...]:
        """The core set a Table 3 row uses (always anchored at core 0)."""
        if scope is Scope.CORE:
            return (0,)
        if scope is Scope.CCX:
            return tuple(core.core_id for core in platform.cores_of_ccx(0))
        if scope is Scope.CCD:
            return tuple(core.core_id for core in platform.cores_of_ccd(0))
        return tuple(sorted(platform.cores))

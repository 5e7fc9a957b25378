"""The global traffic manager: flow registry, fair allocation, enforcement."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.analysis.stats import jain_index
from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.errors import ConfigurationError
from repro.fluid.solver import Policy
from repro.manager.ratelimit import TokenBucket
from repro.units import CACHELINE

__all__ = ["ManagedAllocation", "TrafficManager"]


@dataclass(frozen=True)
class ManagedAllocation:
    """One allocation round: per-stream grants and the relative fairness."""

    grants_gbps: Dict[str, float]
    policy: Policy

    def jain_fairness(self) -> float:
        """Jain's index over the grants (1.0 = perfectly equal)."""
        if not self.grants_gbps:
            raise ConfigurationError("no grants to score")
        return jain_index(list(self.grants_gbps.values()))


class TrafficManager:
    """Computes and enforces fair bandwidth grants over the chiplet fabric.

    Usage::

        manager = TrafficManager(FabricModel(platform))
        manager.register(spec_a)
        manager.register(spec_b)
        allocation = manager.allocate()
        limiters = manager.limiters(allocation)
    """

    def __init__(
        self, fabric: FabricModel, policy: Policy = Policy.MAX_MIN
    ) -> None:
        self.fabric = fabric
        self.policy = policy
        self._streams: Dict[str, StreamSpec] = {}

    @property
    def streams(self) -> List[StreamSpec]:
        return list(self._streams.values())

    def register(self, spec: StreamSpec) -> None:
        """Register a stream for allocation."""
        if spec.name in self._streams:
            raise ConfigurationError(f"stream {spec.name!r} already registered")
        self._streams[spec.name] = spec

    def deregister(self, name: str) -> None:
        """Remove a registered stream by name."""
        if name not in self._streams:
            raise ConfigurationError(f"stream {name!r} is not registered")
        del self._streams[name]

    def allocate(self) -> ManagedAllocation:
        """Compute grants for all registered streams under the fair policy."""
        if not self._streams:
            raise ConfigurationError("no streams registered")
        achieved = self.fabric.achieved_gbps(
            list(self._streams.values()), policy=self.policy
        )
        return ManagedAllocation(achieved, self.policy)

    def shaped_streams(
        self, allocation: Optional[ManagedAllocation] = None
    ) -> List[StreamSpec]:
        """Streams with demands clipped to their grants.

        Feeding these back into the *hardware* (demand-proportional) model
        shows the manager's effect: a clipped aggressive sender can no longer
        beat its fair share.
        """
        allocation = allocation or self.allocate()
        shaped = []
        for name, spec in self._streams.items():
            grant = allocation.grants_gbps[name]
            demand = spec.demand_gbps
            shaped_demand = grant if demand is None else min(demand, grant)
            shaped.append(replace(spec, demand_gbps=shaped_demand))
        return shaped

    def limiters(
        self,
        allocation: Optional[ManagedAllocation] = None,
        burst_lines: int = 16,
    ) -> Dict[str, TokenBucket]:
        """Token buckets programmed to the grants (one per stream)."""
        allocation = allocation or self.allocate()
        return {
            name: TokenBucket(rate, burst_lines * CACHELINE)
            for name, rate in allocation.grants_gbps.items()
            if rate > 0
        }

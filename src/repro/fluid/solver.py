"""Steady-state bandwidth allocation over shared channels.

A :class:`Channel` is one directed capacity (GB/s): a link direction, a UMC
service rate, a token-pool drain rate. A :class:`FluidFlow` has an offered
demand and a path — the list of channels it loads, each with a weight (bytes
put on the channel per payload byte; e.g. CXL FLIT framing loads the wire at
68/64 ≈ 1.06, and non-temporal writes load a chiplet's shared transaction
slots at less than a read's weight because they hold no response).

Two policies:

* :attr:`Policy.DEMAND_PROPORTIONAL` — what the hardware does (§3.5):
  an over-subscribed channel divides its capacity in proportion to offered
  demand, because traffic-oblivious FIFO service drains whatever arrives.
  An aggressive sender therefore beats its equal share (Figure 4, cases 2/4);
  equal demands split equally (case 3); an under-subscribed channel gives
  everyone their demand (case 1).
* :attr:`Policy.MAX_MIN` — the classic fair allocation (progressive filling),
  used by the software traffic manager the paper's §4 proposes; the ablation
  benchmark contrasts the two.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, ConvergenceError

__all__ = [
    "Channel",
    "FluidFlow",
    "Policy",
    "solve",
]

_EPS = 1e-9

#: Iteration cap of the demand-proportional and max-min loops.
_MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class Channel:
    """One directed capacity shared by flows."""

    name: str
    capacity_gbps: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity_gbps) and self.capacity_gbps > 0):
            raise ConfigurationError(
                f"channel {self.name}: capacity must be finite and positive"
            )


@dataclass
class FluidFlow:
    """A steady data stream with an offered demand and a weighted path.

    ``elastic`` distinguishes the two sender behaviours the paper's
    experiments mix (§3.4/§3.5):

    * ``False`` (paced) — an open-loop, NOP-rate-controlled stream. It keeps
      issuing at its demand regardless of backpressure, so when paced flows
      over-subscribe a channel their *backlogs* grow together and FIFO
      service divides capacity in proportion to their demands (Figure 4).
    * ``True`` (unthrottled) — a closed-loop stream limited only by its issue
      windows. It fills whatever service the paced traffic leaves behind,
      which is why flow 1 in Figure 5 "can reliably take the unused
      bandwidth" when flow 0 throttles.
    """

    name: str
    demand_gbps: float
    path: List[Tuple[Channel, float]] = field(default_factory=list)
    elastic: bool = False
    #: Share weight under :attr:`Policy.WEIGHTED` (ignored by the other
    #: policies): a flow with weight 2 receives twice the increment of a
    #: weight-1 flow during progressive filling. Zero is legal here and
    #: rejected only by a weighted solve.
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.demand_gbps) and self.demand_gbps >= 0):
            raise ConfigurationError(
                f"flow {self.name}: demand must be finite and non-negative"
            )
        if not math.isfinite(self.weight):
            raise ConfigurationError(
                f"flow {self.name}: weight must be finite"
            )
        for channel, weight in self.path:
            self._check_link_weight(channel, weight)

    def _check_link_weight(self, channel: Channel, weight: float) -> None:
        if not (math.isfinite(weight) and weight > 0):
            raise ConfigurationError(
                f"flow {self.name}: weight on {channel.name} must be finite "
                "and positive"
            )

    def add(self, channel: Channel, weight: float = 1.0) -> "FluidFlow":
        """Append a channel to the flow's path (chainable)."""
        self._check_link_weight(channel, weight)
        self.path.append((channel, weight))
        return self


class Policy(enum.Enum):
    """Capacity-sharing discipline on over-subscribed channels."""

    DEMAND_PROPORTIONAL = "demand-proportional"
    MAX_MIN = "max-min"
    #: Weighted max-min (progressive filling with per-flow weights) — the
    #: multi-tenant variant a software traffic manager would expose.
    WEIGHTED = "weighted"


def _channels_of(flows: Sequence[FluidFlow]) -> List[Channel]:
    """Channels referenced by ``flows``, ordered upstream-first.

    Scale-down passes visit channels in this order; ordering by a channel's
    mean position along the flows' paths approximates "upstream before
    downstream", so a flow throttled early offers its *reduced* rate to
    later queues — matching how open-loop traffic actually arrives.
    """
    seen: Dict[str, Channel] = {}
    positions: Dict[str, List[int]] = {}
    for flow in flows:
        for index, (channel, __) in enumerate(flow.path):
            existing = seen.get(channel.name)
            if existing is not None and existing is not channel:
                raise ConfigurationError(
                    f"two distinct Channel objects share the name {channel.name!r}"
                )
            seen[channel.name] = channel
            positions.setdefault(channel.name, []).append(index)
    def sort_key(name: str):
        pos = positions[name]
        return (sum(pos) / len(pos), name)
    return [seen[name] for name in sorted(seen, key=sort_key)]


def _solve_proportional(flows: Sequence[FluidFlow]) -> Dict[str, float]:
    """Paced flows share proportionally; elastic flows fill the residual."""
    paced = [flow for flow in flows if not flow.elastic]
    elastic = [flow for flow in flows if flow.elastic]
    alloc = _proportional_pass(paced, {})
    if elastic:
        # Capacity already committed to paced traffic is unavailable to the
        # window-limited (backpressured) elastic senders.
        committed: Dict[str, float] = {}
        for flow in paced:
            for channel, weight in flow.path:
                committed[channel.name] = (
                    committed.get(channel.name, 0.0) + alloc[flow.name] * weight
                )
        alloc.update(_proportional_pass(elastic, committed))
    return alloc


def _proportional_pass(
    flows: Sequence[FluidFlow], committed: Dict[str, float]
) -> Dict[str, float]:
    if not flows:
        return {}
    alloc = {flow.name: flow.demand_gbps for flow in flows}
    channels = _channels_of(flows)
    capacity = {
        channel.name: max(0.0, channel.capacity_gbps - committed.get(channel.name, 0.0))
        for channel in channels
    }
    members: Dict[str, List[Tuple[FluidFlow, float]]] = {
        channel.name: [] for channel in channels
    }
    for flow in flows:
        for channel, weight in flow.path:
            members[channel.name].append((flow, weight))

    for __ in range(_MAX_ITERATIONS):
        changed = False
        # Scale-down pass: enforce every capacity, splitting over-subscribed
        # channels in proportion to what each flow currently pushes (FIFO).
        for channel in channels:
            cap = capacity[channel.name]
            load = sum(alloc[f.name] * w for f, w in members[channel.name])
            if load > cap + _EPS:
                scale = cap / load if load > 0 else 0.0
                for f, __w in members[channel.name]:
                    alloc[f.name] *= scale
                changed = True
        # Raise pass: a flow below demand with slack on every channel of its
        # path takes the slack (keeps capacity from being stranded when a
        # flow's real bottleneck is elsewhere).
        loads = {
            channel.name: sum(alloc[f.name] * w for f, w in members[channel.name])
            for channel in channels
        }
        for flow in flows:
            gap = flow.demand_gbps - alloc[flow.name]
            if gap <= _EPS or not flow.path:
                continue
            headroom = min(
                (capacity[channel.name] - loads[channel.name]) / weight
                for channel, weight in flow.path
            )
            grab = min(gap, headroom)
            if grab > _EPS:
                alloc[flow.name] += grab
                for channel, weight in flow.path:
                    loads[channel.name] += grab * weight
                changed = True
        if not changed:
            return alloc
    raise ConvergenceError(
        "demand-proportional solve did not converge in "
        f"{_MAX_ITERATIONS} iterations"
    )


def _solve_max_min(
    flows: Sequence[FluidFlow], use_weights: bool = False
) -> Dict[str, float]:
    """(Weighted) max-min fairness by progressive filling."""
    alloc = {flow.name: 0.0 for flow in flows}
    frozen = {flow.name: False for flow in flows}
    share = {
        flow.name: (flow.weight if use_weights else 1.0) for flow in flows
    }
    for flow in flows:
        if share[flow.name] <= 0:
            raise ConfigurationError(
                f"flow {flow.name}: weight must be positive"
            )
    channels = _channels_of(flows)
    members: Dict[str, List[Tuple[FluidFlow, float]]] = {
        channel.name: [] for channel in channels
    }
    for flow in flows:
        for channel, weight in flow.path:
            members[channel.name].append((flow, weight))
        if not flow.path or flow.demand_gbps <= _EPS:
            alloc[flow.name] = flow.demand_gbps
            frozen[flow.name] = True

    for __ in range(_MAX_ITERATIONS):
        active = [flow for flow in flows if not frozen[flow.name]]
        if not active:
            return alloc
        # The common fill level rises until the tightest channel saturates
        # or the smallest (weight-normalized) remaining demand is met; each
        # flow gains increment × its share weight.
        increment = min(
            (flow.demand_gbps - alloc[flow.name]) / share[flow.name]
            for flow in active
        )
        for channel in channels:
            weight_sum = sum(
                w * share[f.name]
                for f, w in members[channel.name]
                if not frozen[f.name]
            )
            if weight_sum <= _EPS:
                continue
            load = sum(alloc[f.name] * w for f, w in members[channel.name])
            residual = channel.capacity_gbps - load
            increment = min(increment, residual / weight_sum)
        increment = max(increment, 0.0)
        for flow in active:
            alloc[flow.name] += increment * share[flow.name]
        # Freeze flows that met their demand or sit on a saturated channel.
        progressed = False
        for flow in active:
            if alloc[flow.name] >= flow.demand_gbps - _EPS:
                frozen[flow.name] = True
                progressed = True
                continue
            for channel, __w in flow.path:
                load = sum(
                    alloc[f.name] * w for f, w in members[channel.name]
                )
                if load >= channel.capacity_gbps - 1e-6:
                    frozen[flow.name] = True
                    progressed = True
                    break
        if not progressed and increment <= _EPS:
            # Numerical stall: freeze everything that remains.
            for flow in active:
                frozen[flow.name] = True
    return alloc


def solve(
    flows: Sequence[FluidFlow], policy: Policy = Policy.DEMAND_PROPORTIONAL
) -> Dict[str, float]:
    """Allocate bandwidth to ``flows``; returns {flow name: achieved GB/s}.

    Invariants (tested property-based): no flow is allocated below zero or
    above its demand; no channel exceeds its capacity; with no
    over-subscribed channel, every flow receives exactly its demand.
    """
    names = [flow.name for flow in flows]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate flow names in {names}")
    if policy is Policy.DEMAND_PROPORTIONAL:
        return _solve_proportional(flows)
    return _solve_max_min(flows, use_weights=policy is Policy.WEIGHTED)

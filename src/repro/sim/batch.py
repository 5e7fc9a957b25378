"""Batched closed-loop transaction recurrences.

A shard of the sharded engine (:mod:`repro.sim.sharded`) does not need the
generator machinery of the serial DES to time a closed-loop stream: with
deterministic per-stage service times, FIFO departure times obey exact
recurrences. For a single server with constant service ``s``,

    ``d_i = max(a_i, d_{i-1}) + s``

which unrolls to the vectorizable prefix-max form

    ``d_i = s * (i + 1) + max_{j <= i} (a_j - s * j)``

(:func:`open_loop_departures` computes it with one
``np.maximum.accumulate``).
A ``c``-server FIFO splits into ``c`` independent interleaved chains
(``d_i = max(a_i, d_{i-c}) + s``), and a token pool of capacity ``T`` is
the same lag recurrence on completions.

:func:`simulate_closed_loops` generalizes this to the coupled case — many
lanes, shared stages, shared token pools, a shared pacing gate. Each call
compiles its lanes into flat plans over per-call heaps of in-flight
departure times (one per stage and pool; the descriptor objects hold no
state), then processes transactions in lane-ready order, resolving each
constraint against the earliest entry of its heap. That is one arithmetic
pass per transaction instead of the serial engine's ~15 heap events,
generator frames, and callback sweeps per transaction, and it is where the
sharded engine's throughput multiple comes from. The lane semantics
deliberately mirror :class:`repro.core.loadgen.ClosedLoopIssuer`:
``window`` lanes per worker, per-lane quota ``divmod(count, window)``, a
group-wide pacing gate that never falls behind the clock, and the same
warmup-skip rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heapreplace
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "open_loop_departures",
    "BatchStage",
    "BatchPool",
    "BatchLane",
    "BatchFlow",
    "FlowTiming",
    "simulate_closed_loops",
]


def open_loop_departures(arrivals, service_ns, servers: int = 1) -> np.ndarray:
    """Exact departure times of an open-loop FIFO, vectorized.

    ``arrivals`` is a sorted non-decreasing array of request arrival
    times. ``service_ns`` may be:

    * a scalar — constant service, run as the per-server form with that
      time on every server (with one service time, binding request ``i``
      to server ``i % servers`` is the same as serving each request on the
      first free server);
    * an array of length ``servers`` (with ``servers > 1`` or a 1-element
      array) — per-server constant service, where request ``i`` is bound
      to server ``i % servers`` (the worker-pool assignment the DES
      kvstore model uses), so each interleaved chain is an independent
      single-server FIFO with its own constant service;
    * an array of length ``len(arrivals)`` with ``servers == 1`` —
      per-request service, computed through the cumulative-sum
      generalization of the prefix-max recurrence:
      ``d_i = S_i + max_{j <= i} (a_j - S_{j-1})`` with
      ``S_i = sum(service[:i+1])``.

    All three forms are exact recurrences, not approximations. The
    caller's arrays are only read.
    """
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1:
        raise ConfigurationError("arrivals must be a 1-D array")
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if a.size > 1 and (a[1:] < a[:-1]).any():
        raise ConfigurationError("arrivals must be sorted non-decreasing")
    service = np.asarray(service_ns, dtype=float)
    if np.any(service < 0):
        raise ConfigurationError("negative service time")
    if service.ndim == 0:
        service = np.broadcast_to(service, servers)
    if service.ndim != 1:
        raise ConfigurationError("service_ns must be a scalar or 1-D array")
    if a.size == 0:
        return a.copy()
    if service.size == servers:
        # Chain ``lane`` is a[lane::servers]; with idx = 0, 1, ... along it,
        # d = max.accumulate(a - s * idx) + s * (idx + 1.0). The integers
        # in ``steps`` are exact, so one product s * steps[: k + 1] yields
        # both s * idx and s * (idx + 1.0). Every lane reuses two buffers.
        longest = -(-a.size // servers)
        steps = np.arange(longest + 1, dtype=float)
        scaled = np.empty(longest + 1)
        lead = np.empty(longest)
        out = np.empty_like(a)
        for lane in range(min(servers, a.size)):
            chain = a[lane::servers]
            k = chain.size
            np.multiply(
                float(service[lane]), steps[: k + 1], out=scaled[: k + 1]
            )
            np.subtract(chain, scaled[:k], out=lead[:k])
            np.maximum.accumulate(lead[:k], out=lead[:k])
            np.add(lead[:k], scaled[1 : k + 1], out=out[lane::servers])
        return out
    if servers == 1 and service.size == a.size:
        cum = np.cumsum(service)
        start = np.empty_like(cum)
        start[0] = 0.0
        start[1:] = cum[:-1]
        return cum + np.maximum.accumulate(a - start)
    raise ConfigurationError(
        "service_ns array must have length servers "
        f"({servers}) or, for a single server, length len(arrivals) "
        f"({a.size}); got {service.size}"
    )


class BatchStage:
    """One queued stage (arbiter direction / UMC) shared by batched flows.

    ``servers`` parallel servers; each transaction occupies one for its
    service time. A descriptor only: :func:`simulate_closed_loops` keeps
    the in-flight state, one heap per stage object per call.
    """

    __slots__ = ("name", "servers")

    def __init__(self, name: str, servers: int) -> None:
        if servers < 1:
            raise ConfigurationError(
                f"stage {name}: servers must be >= 1, got {servers}"
            )
        self.name = name
        self.servers = servers


class BatchPool:
    """A token pool (counted semaphore) shared by batched flows.

    Tokens are held from issue until the holder's completion time (the
    serial executor releases after the fixed remainder). A descriptor
    only, like :class:`BatchStage`.
    """

    __slots__ = ("name", "capacity")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"pool {name}: capacity must be >= 1, got {capacity}"
            )
        self.name = name
        self.capacity = capacity


@dataclass(frozen=True)
class BatchLane:
    """One outstanding-transaction slot: its route and transaction quota."""

    #: Ordered (stage, service_ns) pairs the transaction clears in sequence.
    stages: Tuple[Tuple[BatchStage, float], ...]
    #: Token pools acquired at issue and released at completion.
    pools: Tuple[BatchPool, ...]
    #: Load-independent remainder added after the last stage.
    fixed_ns: float
    quota: int


@dataclass
class BatchFlow:
    """A closed-loop stream: lanes plus an optional shared pacing gate."""

    name: str
    lanes: List[BatchLane]
    size_bytes: int
    #: ``size_bytes / rate_gbps`` — None issues as fast as the windows allow.
    interval_ns: Optional[float] = None
    #: Per-lane warmup samples to skip (loadgen's ``warmup // window``).
    warmup_skip: int = 0


@dataclass(frozen=True)
class FlowTiming:
    """Per-flow outcome arrays (in transaction processing order)."""

    name: str
    issued_ns: np.ndarray
    completed_ns: np.ndarray
    #: Boolean mask of samples counted after the warmup skip.
    counted: np.ndarray

    @property
    def latencies_ns(self) -> np.ndarray:
        return self.completed_ns[self.counted] - self.issued_ns[self.counted]

    def achieved_gbps(self, size_bytes: int) -> float:
        """Counted bytes over the counted issue-to-completion span."""
        counted = self.counted
        if not counted.any():
            raise ConfigurationError(
                f"flow {self.name}: no samples survived the warmup skip"
            )
        begin = float(self.issued_ns[counted].min())
        end = float(self.completed_ns[counted].max())
        elapsed = max(end - begin, 1e-9)
        return int(counted.sum()) * size_bytes / elapsed


def simulate_closed_loops(flows: Sequence[BatchFlow]) -> Dict[str, FlowTiming]:
    """Run every flow's lanes to quota exhaustion; returns per-flow timings.

    Transactions are processed one at a time in lane-ready order (ties
    broken by ``(flow index, lane index)`` — the order the serial engine's
    process-creation sequence induces). Each transaction claims its pacing
    slot, waits for a token from each of its pools, clears its stages,
    then holds the tokens until its completion — the lifecycle of
    :meth:`repro.transport.transaction.TransactionExecutor.execute`, as
    arithmetic instead of events.

    The kernel is issue-ordered, not arrival-ordered: a transaction books
    every stage of its route when its lane is ready, before it reaches the
    later ones. The per-event DES serves each stage in arrival order, so
    the two agree only when every lane that meets at a shared stage
    reaches it through the same upstream stages. Otherwise a
    later-issued transaction that reaches a shared stage first still
    queues behind the earlier booking (a lane with a 10 ns private stage
    ahead of a shared 3 ns stage delays a lane that uses only the shared
    stage, which the DES would serve first).

    Each call first turns its lanes into flat plans, ``(flow index, stage
    steps, pool heaps, fixed_ns)``, one per distinct lane route of a flow.
    Stages and pools are told apart by identity, not equality (two
    ``BatchStage("s", 1)`` objects are two stages), and each gets a heap
    for this call only: ``servers`` (``capacity``) busy-until times that
    start at ``-inf``, free, so a visit is a peek at the earliest entry
    plus one ``heapreplace``. No state outlives the call, so two calls on
    the same flows return the same timings. A lane may repeat a stage but
    not a pool (:class:`ConfigurationError`): holding two of one pool's
    tokens at once is not modelled.
    """
    heaps: Dict[int, List[float]] = {}
    plans: Dict[tuple, tuple] = {}
    lane_plans: List[tuple] = []
    left: List[int] = []
    # A sample counts once its lane has at most this many left to issue.
    last_counted: List[int] = []
    for flow_idx, flow in enumerate(flows):
        for lane in flow.lanes:
            # Tuples of descriptors compare them by identity (no __eq__).
            key = (flow_idx, lane.stages, lane.pools, lane.fixed_ns)
            plan = plans.get(key)
            if plan is None:
                if len({id(pool) for pool in lane.pools}) < len(lane.pools):
                    raise ConfigurationError(
                        f"flow {flow.name}: a lane lists the same pool twice"
                    )
                plan = plans[key] = (
                    flow_idx,
                    tuple(
                        (heaps.setdefault(id(stage), [-inf] * stage.servers),
                         service)
                        for stage, service in lane.stages
                    ),
                    tuple(
                        heaps.setdefault(id(pool), [-inf] * pool.capacity)
                        for pool in lane.pools
                    ),
                    lane.fixed_ns,
                )
            lane_plans.append(plan)
            left.append(lane.quota)
            last_counted.append(lane.quota - flow.warmup_skip)

    arrays = [
        (np.empty(total), np.empty(total), np.empty(total, dtype=bool))
        for total in (sum(lane.quota for lane in flow.lanes) for flow in flows)
    ]
    issued, completed, counted = (
        [memoryview(outputs[k]) for outputs in arrays] for k in range(3)
    )
    intervals = [flow.interval_ns for flow in flows]
    next_issue = [0.0] * len(flows)
    cursor = [0] * len(flows)

    # (ready_ns, global lane index): all lanes start at t=0, in the order
    # the serial engine bootstraps its lane processes.
    heap = [(0.0, g) for g, quota in enumerate(left) if quota > 0]
    while heap:
        ready, g = heap[0]
        flow_idx, steps, pools, fixed = lane_plans[g]
        interval = intervals[flow_idx]
        if interval is None:
            t = ready
        else:
            # Claim the group's next pacing slot; pacing never falls
            # behind the clock (matching ClosedLoopIssuer._lane).
            t = next_issue[flow_idx]
            if ready > t:
                t = ready
            next_issue[flow_idx] = t + interval
        issue = t
        for held in pools:
            if held[0] > t:
                t = held[0]
        for busy, service in steps:
            if busy[0] > t:
                t = busy[0]
            t += service
            heapreplace(busy, t)
        t += fixed
        for held in pools:
            heapreplace(held, t)
        at = cursor[flow_idx]
        cursor[flow_idx] = at + 1
        issued[flow_idx][at] = issue
        completed[flow_idx][at] = t
        remaining = left[g]
        counted[flow_idx][at] = remaining <= last_counted[g]
        if remaining > 1:
            left[g] = remaining - 1
            heapreplace(heap, (t, g))
        else:
            heappop(heap)

    return {
        flow.name: FlowTiming(flow.name, *outputs)
        for flow, outputs in zip(flows, arrays)
    }

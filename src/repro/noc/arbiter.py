"""FIFO link arbitration — the "traffic-oblivious" service discipline.

Every intermediate point in the chiplet network "is unaware of (a) what a
flow is and (b) what the demand of a flow is" (§3.5). A link therefore
serves whatever requests are in flight in arrival order; a sender that keeps
more requests outstanding receives proportionally more service. That single
property produces the paper's "sender-driven aggressive bandwidth
partitioning".

:class:`LinkArbiter` is the DES element: per-direction serializers with
deterministic per-transaction service time (``bytes / capacity``), FIFO
queues, and utilization counters for telemetry.

A direction is where every queued stage serves a transaction, the memory
devices included: a UMC or CXL device gives its directions DRAM timing
``jitter`` and (CXL) FLIT ``frame``-ing at construction.
"""

from __future__ import annotations

from typing import Generator

from repro.platform.interconnect import LinkSpec
from repro.sim.engine import (
    Environment,
    Event,
    Resource,
    _ResourceRequest,
)

__all__ = ["LinkArbiter"]


class _DirectionServer(Resource):
    """One direction of a link: a FIFO serializer at a fixed byte rate.

    The direction is itself the :class:`~repro.sim.engine.Resource` whose
    ``capacity`` lanes its transfers queue for. A transfer is
    :meth:`request`, then, once granted, :meth:`occupy`, then
    :meth:`release` of the grant. Only :meth:`request` counts
    ``transfers`` and the backlog: a lane claimed through the base
    ``Resource.request`` (a fault stall's) counts as neither.
    """

    __slots__ = (
        "gbps", "frame", "jitter", "busy_ns", "bytes_served", "transfers",
        "max_queue_len",
    )

    def __init__(self, env: Environment, gbps: float, lanes: int = 1) -> None:
        super().__init__(env, capacity=lanes)
        #: Live service rate; fault reshaping rewrites it mid-run.
        self.gbps = gbps
        #: Payload → wire bytes (CXL FLIT framing); None carries payload as is.
        self.frame = None
        #: ``(DramTimingModel, rng)`` drawn per transfer; None: no jitter.
        self.jitter = None
        self.busy_ns = 0.0
        self.bytes_served = 0
        self.transfers = 0
        #: Deepest backlog observed (how much buffering this direction needs).
        self.max_queue_len = 0

    def service_ns(self, size_bytes: int) -> float:
        """Jitter-free service time of one transfer at the current rate."""
        if self.frame is not None:
            size_bytes = self.frame(size_bytes)
        # lanes parallel sub-channels each carry gbps/lanes.
        return size_bytes / (self.gbps / self.capacity)

    def request(self) -> _ResourceRequest:
        """Queue one transfer for a lane (release the grant when done).

        ``Resource.request`` with the transfer and backlog counts in the
        same call: a free lane is granted as there, and a queued request
        records the backlog it joins.
        """
        self.transfers += 1
        if self._in_use < self.capacity:
            self._in_use += 1
            env = self.env
            if env._sole and not env._fifo:
                return self._fired
            grant = _ResourceRequest(self)
            grant._value = None
            env._sequence += env._seq_step
            env._fifo.append(grant)
            return grant
        grant = _ResourceRequest(self)
        waiting = self._waiting
        waiting.append(grant)
        if len(waiting) > self.max_queue_len:
            self.max_queue_len = len(waiting)
        return grant

    def occupy(self, size_bytes: int) -> float:
        """Book one granted transfer; returns its lane hold time in ns.

        Jitter (refresh windows, bank conflicts) extends the hold, so a
        stall delays everything queued behind it — Figure 3's loaded tails.
        """
        if self.frame is not None:
            size_bytes = self.frame(size_bytes)
        service = size_bytes / (self.gbps / self.capacity)
        if self.jitter is not None:
            timing, rng = self.jitter
            service += timing.sample_extra_ns(rng)
        self.busy_ns += service
        self.bytes_served += size_bytes
        return service

    def transfer(self, size_bytes: int) -> Generator[Event, None, None]:
        """DES process fragment: queue for the serializer, then occupy it."""
        grant = self.request()
        try:
            yield grant
            yield self.occupy(size_bytes)
        finally:
            self.release(grant)


class LinkArbiter:
    """Traffic-oblivious FIFO arbitration for both directions of a link."""

    def __init__(self, env: Environment, spec: LinkSpec, lanes: int = 1) -> None:
        self.env = env
        self.spec = spec
        self.read_dir = _DirectionServer(env, spec.read_gbps, lanes)
        self.write_dir = _DirectionServer(env, spec.write_gbps, lanes)

    def transfer(
        self, size_bytes: int, is_write: bool
    ) -> Generator[Event, None, None]:
        """Serve one transaction's data movement on the appropriate direction."""
        direction = self.write_dir if is_write else self.read_dir
        return direction.transfer(size_bytes)

    def utilization(self, is_write: bool, elapsed_ns: float) -> float:
        """Fraction of ``elapsed_ns`` the chosen direction was busy."""
        if elapsed_ns <= 0:
            return 0.0
        direction = self.write_dir if is_write else self.read_dir
        return min(1.0, direction.busy_ns / elapsed_ns)

    def achieved_gbps(self, is_write: bool, elapsed_ns: float) -> float:
        """Average delivered bandwidth on the chosen direction."""
        if elapsed_ns <= 0:
            return 0.0
        direction = self.write_dir if is_write else self.read_dir
        return direction.bytes_served / elapsed_ns

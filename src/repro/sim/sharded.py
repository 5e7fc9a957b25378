"""Sharded discrete-event simulation with conservative lookahead synchronization.

The paper's structural observation — CCDs are joined by cross-die links
whose latency sits an order of magnitude above intra-CCD hops — is exactly
the precondition for classic conservative (null-message) parallel DES: the
cross-die latency is a *lookahead*. Partition the event population by CCD,
and a shard can safely process every event strictly before

    ``bound = min over shards of (next event time) + lookahead``

because any cross-shard message sent while this window executes is sent at
some ``t >= min(next event time)`` and arrives no earlier than
``t + lookahead >= bound``. Intra-shard traffic (the common case) never
pays a synchronization barrier; only window boundaries do.

The window loop is coordinated by :class:`ShardedEnvironment`:

1. deliver pending cross-shard messages (deterministically ordered by
   ``(deliver time, source shard, send sequence)``);
2. compute ``bound`` from the global minimum next-event time;
3. let every shard run its local queue up to (exclusive) ``bound``;
4. collect the messages those windows sent; repeat until quiescent.

Each shard is a :class:`ShardEnvironment` — a full
:class:`~repro.sim.engine.Environment` drawing its event sequence numbers
from the shard-stable progression ``shard_id + k * num_shards`` (see the
engine's ordering contract). With ``num_shards == 1`` the progression is
the serial ``1, 2, 3, …`` and :meth:`ShardedEnvironment.run` delegates to
the shard's own (serial) run loop, so a one-shard run is *bit-identical*
to the serial engine — the degradation case costs nothing and proves the
seam adds no scheduling difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop as _heappop
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event

__all__ = [
    "ShardMessage",
    "ShardEnvironment",
    "ShardedEnvironment",
    "default_lookahead_ns",
]


def default_lookahead_ns(platform) -> float:
    """The platform's cross-die lookahead: one IF-link crossing plus the CCM.

    This is the minimum latency any request pays to leave its CCD
    (:class:`~repro.platform.topology.LatencyParams` decomposes it as
    ``if_link_ns + ccm_ns``), hence a safe lower bound on cross-shard
    event delivery.
    """
    lat = platform.spec.latency
    return float(lat.if_link_ns + lat.ccm_ns)


@dataclass(frozen=True)
class ShardMessage:
    """One cross-shard boundary event (delivered at a window barrier)."""

    src_shard: int
    dst_shard: int
    send_ns: float
    deliver_ns: float
    #: Coordinator-global send sequence — the deterministic tie-breaker.
    seq: int
    payload: Any


class ShardEnvironment(Environment):
    """One shard's event loop: an Environment with a cross-shard send seam."""

    __slots__ = ("shard_id", "_coordinator", "_handlers")

    def __init__(
        self,
        coordinator: "ShardedEnvironment",
        shard_id: int,
        num_shards: int,
        initial_time: float = 0.0,
        strict: bool = False,
    ) -> None:
        super().__init__(
            initial_time, strict, seq_offset=shard_id, seq_step=num_shards
        )
        self.shard_id = shard_id
        self._coordinator = coordinator
        self._handlers: List[Callable[[ShardMessage], None]] = []

    @property
    def coordinator(self) -> "ShardedEnvironment":
        """The owning coordinator (interposers use it to check shard count)."""
        return self._coordinator

    def send(
        self, dst_shard: int, payload: Any, delay_ns: Optional[float] = None
    ) -> ShardMessage:
        """Send ``payload`` to ``dst_shard`` (see :meth:`ShardedEnvironment.send`)."""
        return self._coordinator.send(
            self.shard_id, dst_shard, payload, delay_ns
        )

    def on_message(self, handler: Callable[[ShardMessage], None]) -> None:
        """Register a callback for messages delivered to this shard."""
        self._handlers.append(handler)

    def _deliver(self, message: ShardMessage) -> None:
        """Turn a cross-shard message into a local event at its deliver time."""
        if message.deliver_ns < self._now:
            raise SimulationError(
                f"shard {self.shard_id}: message from shard "
                f"{message.src_shard} arrives at t={message.deliver_ns} with "
                f"the local clock already at t={self._now} — the lookahead "
                "bound was violated"
            )
        event = Event(self)
        event._value = message
        for handler in self._handlers:
            event.callbacks.append(
                lambda fired, handler=handler: handler(fired._value)
            )
        self._schedule(event, message.deliver_ns - self._now)

    def run_window(self, bound: float) -> int:
        """Process every queued event with timestamp strictly before ``bound``.

        Returns the number of events processed. The clock is left at the
        last processed event (not advanced to ``bound``): the next window's
        bound is derived from queue state, never from partial clocks.
        The loop is :meth:`Environment.run`'s, bounded: the FIFO of events
        due at ``now`` first, then the heap.
        """
        count = 0
        queue = self._queue
        if self.strict:
            while queue and queue[0][0] < bound:
                self.step()
                count += 1
            return count
        fifo = self._fifo
        while True:
            if fifo:
                if self._now >= bound:
                    break
                event = fifo.popleft()
            elif queue and queue[0][0] < bound:
                now, __, event = _heappop(queue)
                self._now = now
                while queue and queue[0][0] == now:
                    fifo.append(_heappop(queue)[2])
            else:
                break
            callbacks, event.callbacks = event.callbacks, None
            if callbacks:
                for callback in callbacks:
                    callback(event)
            count += 1
        return count

    def run_window_through(self, horizon: float) -> int:
        """Like :meth:`run_window` but inclusive: events with ts <= horizon.

        Used for the final window of a horizon-bounded run, which must
        match the serial ``run(until)`` semantics (events *at* the horizon
        fire). The clock advances to ``horizon`` afterwards.
        """
        count = self.run_window(math.nextafter(horizon, math.inf))
        self._now = horizon
        return count


class ShardedEnvironment:
    """Coordinator for N conservatively-synchronized shard event loops."""

    def __init__(
        self,
        num_shards: int,
        lookahead_ns: float,
        initial_time: float = 0.0,
        strict: bool = False,
    ) -> None:
        if num_shards < 1:
            raise SimulationError(
                f"shard count must be >= 1, got {num_shards}"
            )
        if lookahead_ns <= 0.0:
            raise SimulationError(
                f"lookahead must be positive, got {lookahead_ns} "
                "(a zero lookahead degenerates to lockstep execution)"
            )
        self.num_shards = num_shards
        self.lookahead_ns = float(lookahead_ns)
        self.shards: List[ShardEnvironment] = [
            ShardEnvironment(self, shard_id, num_shards, initial_time, strict)
            for shard_id in range(num_shards)
        ]
        self._pending: List[ShardMessage] = []
        self._send_seq = 0
        #: Synchronization telemetry.
        self.windows = 0
        self.events_processed = 0
        self.cross_messages = 0

    def shard(self, shard_id: int) -> ShardEnvironment:
        """The shard environment with id ``shard_id``."""
        return self.shards[shard_id]

    @property
    def now(self) -> float:
        """The global safe time: the minimum of the shard clocks."""
        return min(shard._now for shard in self.shards)

    # ------------------------------------------------------------- messaging

    def send(
        self,
        src_shard: int,
        dst_shard: int,
        payload: Any,
        delay_ns: Optional[float] = None,
    ) -> ShardMessage:
        """Send a boundary event from ``src_shard`` to ``dst_shard``.

        ``delay_ns`` defaults to the lookahead and must never undercut it —
        a shorter delay could land inside a window a receiver has already
        executed, which is precisely what conservative synchronization
        forbids. Intra-shard sends (``src == dst``) are exempt: they are
        ordinary local events and bypass the barrier entirely.
        """
        if not 0 <= dst_shard < self.num_shards:
            raise SimulationError(f"unknown destination shard {dst_shard}")
        if delay_ns is None:
            delay_ns = self.lookahead_ns
        if src_shard != dst_shard and delay_ns < self.lookahead_ns:
            raise SimulationError(
                f"cross-shard delay {delay_ns} ns undercuts the lookahead "
                f"bound {self.lookahead_ns} ns (shard {src_shard} -> "
                f"{dst_shard})"
            )
        if delay_ns < 0:
            raise SimulationError(f"negative send delay: {delay_ns}")
        now = self.shards[src_shard]._now
        self._send_seq += 1
        message = ShardMessage(
            src_shard=src_shard,
            dst_shard=dst_shard,
            send_ns=now,
            deliver_ns=now + delay_ns,
            seq=self._send_seq,
            payload=payload,
        )
        if src_shard == dst_shard:
            self.shards[dst_shard]._deliver(message)
        else:
            self._pending.append(message)
        return message

    def _deliver_pending(self) -> None:
        if not self._pending:
            return
        # Deterministic merge: delivery order is a pure function of
        # (deliver time, source shard, send sequence), independent of the
        # order windows happened to produce the messages.
        self._pending.sort(
            key=lambda m: (m.deliver_ns, m.src_shard, m.seq)
        )
        for message in self._pending:
            self.shards[message.dst_shard]._deliver(message)
            self.cross_messages += 1
        self._pending.clear()

    # ------------------------------------------------------------ window loop

    def next_event_ns(self) -> Optional[float]:
        """Earliest queued event across all shards (pending sends excluded)."""
        times = [
            when
            for when in (shard.next_event_ns for shard in self.shards)
            if when is not None
        ]
        return min(times) if times else None

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run all shards to quiescence (or a time horizon).

        With one shard this delegates to the serial engine loop — including
        ``until`` as an :class:`~repro.sim.engine.Event` — and is
        bit-identical to :meth:`Environment.run`. With multiple shards
        ``until`` must be a timestamp or None; event horizons belong to a
        single shard's queue and cannot bound its siblings.
        """
        if self.num_shards == 1:
            return self.shards[0].run(until)
        if isinstance(until, Event):
            raise SimulationError(
                "a multi-shard run accepts a time horizon or None, not an "
                "Event (an event belongs to a single shard)"
            )
        horizon = None if until is None else float(until)
        lookahead = self.lookahead_ns
        while True:
            self._deliver_pending()
            next_ts = self.next_event_ns()
            if next_ts is None:
                break
            if horizon is not None and next_ts > horizon:
                break
            self.windows += 1
            bound = next_ts + lookahead
            if horizon is not None and bound > horizon:
                for shard in self.shards:
                    self.events_processed += shard.run_window_through(horizon)
            else:
                for shard in self.shards:
                    self.events_processed += shard.run_window(bound)
        if horizon is not None:
            for shard in self.shards:
                if shard._now < horizon:
                    shard._now = horizon
        return None

    def sync_stats(self) -> dict:
        """Synchronization telemetry for reporting/conformance."""
        return {
            "shards": self.num_shards,
            "lookahead_ns": self.lookahead_ns,
            "windows": self.windows,
            "events_processed": self.events_processed,
            "cross_messages": self.cross_messages,
        }

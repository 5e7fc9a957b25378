"""A compact discrete-event simulation engine.

The engine follows the simpy programming model: simulation logic is written as
generator functions that ``yield`` events. The three building blocks are

* :class:`Environment` — the event loop and simulated clock (nanoseconds),
* :class:`Event` and its subclasses (:class:`Timeout`, :class:`Process`,
  :class:`AllOf`, :class:`AnyOf`),
* :class:`Resource` / :class:`Store` — queued shared resources.

The implementation is single-threaded and deterministic: events scheduled for
the same timestamp fire in scheduling order (a monotonically increasing
sequence number breaks ties).

**Ordering contract.** Every queued event carries a time and a sequence
number, and the events fire in ascending ``(time, seq)`` order, so the
total order of a simulation is fully determined by ``(time, seq)``.
``seq`` is *shard-stable*: an environment draws its sequence numbers from
the arithmetic progression ``seq_offset + k * seq_step`` (defaults
``0 + k * 1``). A serial run and a
:mod:`repro.sim.sharded` run therefore draw from disjoint, interleavable
progressions — shard ``i`` of ``N`` uses ``offset=i, step=N`` — which makes
the merged event order of N shards directly comparable with (and for one
shard identical to) the serial order. Anything that influences results must
flow through ``(time, seq)``: callbacks run in list order, and no code may
depend on heap internals beyond this contract. Sequence numbers are only
ever *compared*, never counted: no result may depend on how many were
drawn.

**The current instant is a FIFO.** Events wait in two containers: a heap
of ``(time, seq, event)`` tuples for later instants and a
first-in-first-out queue (a ``deque``) for the current one. An event whose
computed time ``now + delay`` equals ``now`` is appended to the FIFO; the
route follows the computed time, not ``delay == 0``, because a positive
delay can round to ``now`` in float. When a loop moves the clock to the
next heap time ``t``, it moves every heap event due at ``t`` into the
empty FIFO, in ``(time, seq)`` order, and the events scheduled while the
clock reads ``t`` queue behind them. Those heap events were scheduled
before the clock reached ``t``, so their sequence numbers are smaller than
any drawn at ``t``: draining the FIFO before the next heap pop *is* the
``(time, seq)`` order, while a same-instant event costs a deque append and
pop instead of a tuple and two heap walks. Each FIFO event still draws its
one sequence number. Outside a strict environment, the heap never holds an
event due at ``now``.

**Events that fire next skip the queue.** A zero-delay event that the run
loop would pop next anyway need not be queued: its waiter may continue at
once. :meth:`Environment.fires_next` says when that holds — the loop is
firing the *only* callback of the event it popped, and no other event is
due at ``now`` (the FIFO is empty). Four places apply it, each where the
event is yielded at once: :meth:`Resource.request` returns a free slot, and
:meth:`~repro.noc.flowcontrol.TokenPool.acquire` a free token, as an
already-fired event (as :meth:`Store.put` always does); a :class:`Process`
that finishes with one waiter calls it in place; and a
:class:`~repro.core.loadgen.ClosedLoopIssuer` lane runs each transaction
inline, queueing a zero :class:`Timeout` only where the bootstrap or
completion of a per-transaction process would not have fired next. This is
exact by construction: the skipped event is the one the loop would pop
next, so every callback runs in the same order, at the same ``now``, with
the same RNG draws. Only later sequence numbers shift (one fewer is
drawn), which keeps their order. A multi-callback event fires with the rule
off (its siblings must run before any continuation), and so does the event
a ``run(until=event)`` stops at (the loop stops after it).

**Strict is heap-only.** A strict environment (``Environment(strict=True)``)
never applies the rule and keeps no FIFO: its stand-in pushes every
same-instant event onto the heap as ``(now, seq, event)``, and its checked
loop pops the heap alone. That run is the independent reference the fast
one must reproduce.

Every class on the hot path declares ``__slots__`` — a simulation allocates
millions of short-lived events, and slotted instances are both smaller and
faster to initialize than ``__dict__``-backed ones. The :meth:`Environment.run`
loops additionally inline :meth:`Environment.step`'s pop-and-fire body, and
timeouts, processes and resource grants (here and in
:class:`~repro.noc.flowcontrol.TokenPool`) are built in place and queued
directly, each drawing the one sequence number ``_schedule`` would have
drawn at that point (so no subclass may override ``_schedule``); the
scheduling order (and therefore every simulation result) is unchanged.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Resource",
    "Store",
    "fired",
]

#: Sentinel for "event not yet triggered".
_PENDING = object()

_INFINITY = float("inf")


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* by :meth:`succeed` or :meth:`fail`; at that point
    it is scheduled and its callbacks run when the environment reaches it.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value accessed before it was triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception to raise in the waiter."""
        if self._value is not _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() expects an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


def fired(env: "Environment", value: Any = None) -> Event:
    """An event that has already fired with ``value``; it is never queued.

    ``triggered`` and ``processed`` are both true, so a process yielding it
    continues at once with ``value``.
    """
    event = Event.__new__(Event)
    event.env = env
    event.callbacks = None
    event._value = value
    event._ok = True
    return event


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        # Fast path: timeouts dominate event traffic, so initialize and
        # schedule inline rather than via Event.__init__/_schedule.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        env._sequence = sequence = env._sequence + env._seq_step
        now = env._now
        when = now + delay
        if when == now:
            env._fifo.append(self)
        else:
            _heappush(env._queue, (when, sequence, self))


class Process(Event):
    """Wraps a generator; completes (as an event) when the generator returns.

    Yield values must be :class:`Event` instances. The value of a yielded
    event is sent back into the generator; failed events raise inside it.
    """

    __slots__ = ("_generator", "_resumer")

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        # Fast path (as in Timeout): initialize inline; the bootstrap, a zero
        # Timeout, resumes the generator at the current time.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._generator = generator
        # One bound method serves every yield. It refers back to the
        # process, so _resume drops it when the generator ends.
        self._resumer = resumer = self._resume
        Timeout(env, 0.0).callbacks.append(resumer)

    def _resume(self, event: Event) -> None:
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    target = generator.throw(event._value)
            except StopIteration as stop:
                self._resumer = None
                callbacks = self.callbacks
                env = self.env
                if (
                    len(callbacks) == 1
                    and env._sole
                    and not env._fifo
                    and env._until is not self
                ):
                    # The completion would fire next, with this one waiter:
                    # call it in place (see the module ordering contract).
                    self._value = stop.value
                    self.callbacks = None
                    callbacks[0](self)
                else:
                    self.succeed(stop.value)
                return
            except BaseException:
                self._resumer = None
                raise
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded a non-event: {target!r} "
                    "(yield Timeout/Process/Resource requests instead)"
                )
            callbacks = target.callbacks
            if callbacks is None:
                # Already fired: loop around immediately with its value.
                event = target
                continue
            callbacks.append(self._resumer)
            return


class AllOf(Event):
    """Fires when all child events have fired; value is their list of values."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        self._remaining = 0
        failed = [c for c in self._children if c.processed and not c._ok]
        if failed:
            self.fail(failed[0]._value)
            return
        for child in self._children:
            if child.processed:
                continue
            self._remaining += 1
            child.callbacks.append(self._on_child)
        if self._remaining == 0:
            self.succeed([child.value for child in self._children])

    def _on_child(self, event: Event) -> None:
        if not event.ok:
            if not self.triggered:
                self.fail(event.value)
            return
        self._remaining -= 1
        if self._remaining == 0 and not self.triggered:
            self.succeed([child.value for child in self._children])


class AnyOf(Event):
    """Fires as soon as any child event fires; value is that child's value."""

    __slots__ = ("_children",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._children = list(events)
        fired = [child for child in self._children if child.processed]
        if fired:
            if fired[0]._ok:
                self.succeed(fired[0]._value)
            else:
                self.fail(fired[0]._value)
            return
        for child in self._children:
            child.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)


class _HeapOnlyInstant:
    """A strict environment's stand-in for the current-instant FIFO.

    It is always empty: :meth:`append` pushes the event onto the heap as
    ``(now, seq, event)``, with the sequence number its caller has just
    drawn, so a strict run orders every event by the heap alone.
    """

    __slots__ = ("_queue",)

    def __init__(self, queue: list) -> None:
        self._queue = queue

    def __len__(self) -> int:
        return 0

    def append(self, event: Event) -> None:
        env = event.env
        _heappush(self._queue, (env._now, env._sequence, event))


class Environment:
    """The event loop: a simulated clock, a heap of later events and a FIFO
    of the events due at the current instant (see the module docstring).

    ``strict=True`` turns on invariant checking: every event pop verifies
    monotonic simulated time and reports the offending event on violation
    (see :meth:`step`). The checked loop costs a few percent, so the
    default ``run`` loops stay inlined and check-free; the scheduling order
    — and therefore every simulation result — is identical either way.
    A strict environment also queues every event on the heap (no FIFO, and
    no event skips the queue, see :meth:`fires_next`), so a strict run is
    the reference.
    """

    __slots__ = (
        "_now", "_queue", "_fifo", "_sequence", "_seq_step", "strict",
        "tracer", "_sole", "_until",
    )

    def __init__(
        self,
        initial_time: float = 0.0,
        strict: bool = False,
        seq_offset: int = 0,
        seq_step: int = 1,
    ) -> None:
        if seq_step < 1 or seq_offset < 0 or seq_offset >= seq_step:
            raise SimulationError(
                f"invalid sequence progression: offset={seq_offset}, "
                f"step={seq_step} (need 0 <= offset < step)"
            )
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, Event]] = []
        #: The events due at ``now``, in firing order.
        self._fifo = _HeapOnlyInstant(self._queue) if strict else deque()
        #: Shard-stable sequence counter (see the module ordering contract):
        #: sequence numbers are drawn from ``seq_offset + k * seq_step``, so
        #: shard ``i`` of ``N`` (``offset=i, step=N``) never collides with a
        #: sibling shard and the defaults reproduce the serial ``1, 2, 3...``.
        self._sequence = seq_offset
        self._seq_step = seq_step
        self.strict = bool(strict)
        #: Optional :class:`repro.trace.Tracer`. ``None`` (the default) is
        #: the null fast path: instrumented components branch on it once
        #: per transaction and otherwise run the exact pre-tracing code.
        #: The run loops never touch it, so tracing-off costs nothing.
        self.tracer = None
        #: True while a non-strict run loop fires the only callback of the
        #: event it popped (see :meth:`fires_next`); False everywhere else.
        self._sole = False
        #: The event a running ``run(until=event)`` stops at, else None.
        self._until = None

    @property
    def now(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now

    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._sequence = sequence = self._sequence + self._seq_step
        now = self._now
        when = now + delay
        if when == now:
            self._fifo.append(event)
        else:
            _heappush(self._queue, (when, sequence, event))

    def fires_next(self) -> bool:
        """True when a zero-delay event scheduled now would fire next.

        That is when a non-strict run loop is firing the only callback of
        the event it popped and no other event is due at ``now`` (the FIFO
        is empty; the heap never holds one): the event would be popped
        next and handed to its waiter, so a caller that yields it at once
        may skip the queue and continue (see the module ordering
        contract). Always False outside :meth:`run` and under
        ``strict=True``.
        """
        return self._sole and not self._fifo

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create an untriggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all child events have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first child event fires."""
        return AnyOf(self, events)

    def step(self) -> None:
        """Process the single next event: the FIFO's head, else the heap's.

        A heap pop moves the clock; outside strict mode, the other heap
        events due at the new ``now`` move into the FIFO behind it.
        """
        fifo = self._fifo
        if fifo:
            fifo.popleft()._run_callbacks()
            return
        queue = self._queue
        if not queue:
            raise SimulationError("step() on an empty event queue")
        when, __, event = _heappop(queue)
        if when < self._now:
            raise SimulationError(
                f"simulated time went backwards: {type(event).__name__} "
                f"fired at t={when} ns with the clock already at "
                f"t={self._now} ns"
            )
        self._now = when
        if not self.strict:
            while queue and queue[0][0] == when:
                fifo.append(_heappop(queue)[2])
        event._run_callbacks()

    @property
    def next_event_ns(self) -> Optional[float]:
        """Time of the next event to fire (``now`` while the FIFO holds
        one), or None when nothing is queued."""
        if self._fifo:
            return self._now
        queue = self._queue
        return queue[0][0] if queue else None

    def _run_checked(self, until: Optional[float | Event]) -> Any:
        """The strict-mode run loop: same semantics as :meth:`run`, but every
        pop goes through :meth:`step` so time-monotonicity violations raise
        :class:`~repro.errors.SimulationError` with the offending event."""
        queue = self._queue
        if isinstance(until, Event):
            while until.callbacks is not None:
                if not queue:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event fired"
                    )
                self.step()
            if not until._ok:
                raise until._value
            return until._value
        if until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"cannot run until {horizon}: clock is already at {self._now}"
                )
            while queue and queue[0][0] <= horizon:
                self.step()
            self._now = horizon
            return None
        while queue:
            self.step()
        return None

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be a timestamp (run until the clock passes it), an
        :class:`Event` (run until it fires; its value is returned), or ``None``
        (run until no events remain).

        The loops below inline :meth:`step`'s pop-and-fire body (minus its
        can't-happen past-event check): the heap guarantees monotonic pop
        order, and ``_schedule`` never targets the past. Each pops the FIFO
        while it holds an event; otherwise it pops the heap, moves the
        clock, and moves the rest of that instant into the FIFO. They also
        keep the :meth:`fires_next` flag: set while a popped event's only
        callback fires, cleared while a multi-callback event (or the
        awaited event) fires, and cleared when the run ends, however it
        ends. Strict environments route through the checked loop instead,
        which never sets it. A run that stops at an event or a horizon
        leaves the rest of the FIFO queued for the next one.
        """
        if self.strict:
            return self._run_checked(until)
        queue = self._queue
        fifo = self._fifo
        popleft = fifo.popleft
        append = fifo.append
        self._sole = True
        try:
            if isinstance(until, Event):
                stop_event = self._until = until
                while stop_event.callbacks is not None:
                    if fifo:
                        event = popleft()
                    elif queue:
                        now, __, event = _heappop(queue)
                        self._now = now
                        while queue and queue[0][0] == now:
                            append(_heappop(queue)[2])
                    else:
                        raise SimulationError(
                            "simulation ran out of events before the awaited "
                            "event fired"
                        )
                    callbacks, event.callbacks = event.callbacks, None
                    if callbacks:
                        if len(callbacks) == 1 and event is not stop_event:
                            callbacks[0](event)
                        else:
                            self._sole = False
                            for callback in callbacks:
                                callback(event)
                            self._sole = True
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            if until is None:
                horizon = _INFINITY
            else:
                horizon = float(until)
                if horizon < self._now:
                    raise SimulationError(
                        f"cannot run until {horizon}: clock is already at "
                        f"{self._now}"
                    )
            while True:
                if fifo:
                    event = popleft()
                elif queue and queue[0][0] <= horizon:
                    now, __, event = _heappop(queue)
                    self._now = now
                    while queue and queue[0][0] == now:
                        append(_heappop(queue)[2])
                else:
                    break
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._sole = False
                        for callback in callbacks:
                            callback(event)
                        self._sole = True
            if until is not None:
                self._now = horizon
            return None
        finally:
            self._sole = False
            self._until = None


class _ResourceRequest(Event):
    """A pending claim on a :class:`Resource` slot (usable as a context manager)."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        # Fast path (as in Timeout): initialize inline, not via Event.__init__.
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self.resource = resource

    def __enter__(self) -> "_ResourceRequest":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)


class Resource:
    """A shared resource with ``capacity`` slots and a FIFO wait queue.

    FIFO service with no flow awareness is exactly the "traffic-oblivious"
    arbitration the paper identifies (§3.5): whichever sender has more requests
    in flight receives proportionally more service.
    """

    __slots__ = ("env", "capacity", "_in_use", "_waiting")

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: deque[_ResourceRequest] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> _ResourceRequest:
        """Claim a slot; the returned event fires when the slot is granted.

        A free slot whose grant would fire next comes back already fired
        instead of queued (:meth:`Environment.fires_next`), so only the
        requesting process may wait on it, as every caller does.
        """
        req = _ResourceRequest(self)
        if self._in_use < self.capacity:
            self._in_use += 1
            req._value = None
            env = self.env
            if env._sole and not env._fifo:
                # The grant would fire next: hand it over already fired
                # (Environment.fires_next, inlined).
                req.callbacks = None
            else:
                # Grant inline: what succeed() does, with the same draw.
                env._sequence += env._seq_step
                env._fifo.append(req)
        else:
            self._waiting.append(req)
        return req

    def release(self, request: _ResourceRequest) -> None:
        """Return a slot; the oldest waiter (if any) is granted immediately."""
        if request.resource is not self:
            raise SimulationError("release() with a request from another resource")
        if self._waiting:
            # succeed(), inlined: the grant is due now, so it joins the FIFO.
            nxt = self._waiting.popleft()
            nxt._value = None
            env = self.env
            env._sequence += env._seq_step
            env._fifo.append(nxt)
        else:
            self._in_use -= 1
            if self._in_use < 0:
                raise SimulationError("resource released more times than requested")


class Store:
    """An unbounded FIFO buffer of items with blocking ``get``."""

    __slots__ = ("env", "_items", "_getters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Insert an item (never blocks); returns an already-completed event.

        The returned event is already *processed* (``triggered`` and
        ``processed`` both true, value = the item): it never goes through the
        event queue, so a ``put`` costs one object allocation instead of a
        heap push plus a deferred callback sweep.
        """
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        return fired(self.env, item)

    def get(self) -> Event:
        """Remove and return the oldest item, waiting if the store is empty."""
        event = Event(self.env)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

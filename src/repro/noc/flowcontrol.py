"""Token-based traffic control with backpressure.

Each compute (sub-)chiplet has "a traffic control module that limits the
number of outstanding requests … a queueless structure (like Phantom Queue)
[using] tokens and backpressure for overload control" (§3.2). Bounding the
tokens bounds the queueing delay a request can experience at the module —
the paper measures the bound at up to 30 ns (CCX) / 20 ns (CCD) on the 7302
and 20 ns (CCX) on the 9634 (Table 2).

:class:`TokenPool` is the DES realization: a counted semaphore with a FIFO
wait queue and wait-time statistics. The factory helpers size the pool so
that the *measured* worst-case queueing under full-chiplet saturation lands
on the platform's calibrated bound.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event, fired
from repro.units import CACHELINE

__all__ = ["TokenPool", "ccx_token_pool", "ccd_token_pool"]


class TokenPool:
    """A counted token pool with FIFO backpressure and wait statistics."""

    def __init__(self, env: Environment, tokens: int, name: str = "tokens") -> None:
        if tokens < 1:
            raise SimulationError(f"{name}: token count must be >= 1, got {tokens}")
        self.env = env
        self.name = name
        self.capacity = tokens
        self._available = tokens
        self._waiting: Deque[tuple[Event, float]] = deque()
        #: The one already-fired grant every skipped-queue acquire returns.
        self._fired = fired(env)
        # Statistics for the Table 2 "Max CCX/CCD Q" rows.
        self.max_wait_ns = 0.0
        self.total_wait_ns = 0.0
        self.acquired_count = 0

    @property
    def available(self) -> int:
        return self._available

    @property
    def in_use(self) -> int:
        return self.capacity - self._available

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self) -> Event:
        """Claim one token; the event fires when the token is granted.

        A free token whose grant would fire next
        (:meth:`~repro.sim.engine.Environment.fires_next`) comes back as
        the pool's one preallocated, already-fired grant instead of a new
        queued one. Every holder of it shares that object, so only the
        acquiring process may use it, and only to continue: a token goes
        home through :meth:`release`, which takes no grant. Otherwise the
        grant is a fresh event: queued in the FIFO when a token is free,
        else waiting for one.
        """
        env = self.env
        if self._available > 0 and not self._waiting:
            self._available -= 1
            self._record_wait(0.0)
            if env._sole and not env._fifo:
                # Environment.fires_next, inlined.
                return self._fired
            # Event(env).succeed(), inlined: the grant is due now, so it
            # draws its sequence number and joins the engine's FIFO.
            event = Event(env)
            event._value = None
            env._sequence += env._seq_step
            env._fifo.append(event)
            return event
        event = Event(env)
        self._waiting.append((event, env.now))
        return event

    def release(self) -> None:
        """Return one token, granting the oldest waiter if any."""
        if self._waiting:
            event, enqueued_at = self._waiting.popleft()
            env = self.env
            self._record_wait(env.now - enqueued_at)
            # event.succeed(), inlined as in acquire().
            event._value = None
            env._sequence += env._seq_step
            env._fifo.append(event)
        else:
            self._available += 1
            if self._available > self.capacity:
                raise SimulationError(f"{self.name}: released more tokens than held")

    def _record_wait(self, wait_ns: float) -> None:
        self.acquired_count += 1
        self.total_wait_ns += wait_ns
        if wait_ns > self.max_wait_ns:
            self.max_wait_ns = wait_ns

    def reset_stats(self) -> None:
        """Zero the wait-time statistics (keeps token state)."""
        self.max_wait_ns = 0.0
        self.total_wait_ns = 0.0
        self.acquired_count = 0


def _sized_pool(
    env: Environment,
    name: str,
    issue_capability: int,
    queue_max_ns: float,
    drain_gbps: float,
) -> TokenPool:
    """Size a pool so saturation queueing is bounded by ``queue_max_ns``.

    Under full saturation the module's backlog drains at ``drain_gbps``; the
    worst-case wait is ``backlog × CACHELINE / drain_gbps``. Given the
    chiplet can put ``issue_capability`` requests in flight, granting
    ``issue_capability − backlog_max`` tokens bounds the wait at the
    calibrated maximum.
    """
    backlog_max = round(queue_max_ns * drain_gbps / CACHELINE)
    tokens = max(1, issue_capability - backlog_max)
    return TokenPool(env, tokens, name=name)


def ccx_token_pool(env: Environment, platform, ccx_id: int = 0) -> TokenPool:
    """The per-CCX traffic-control module, sized from the platform calibration."""
    spec = platform.spec
    bw = spec.bandwidth
    if bw.ccx_tokens is not None:
        return TokenPool(env, bw.ccx_tokens, name=f"ccx{ccx_id}-tokens")
    drain = bw.ccx_read_gbps if bw.ccx_read_gbps is not None else bw.gmi_read_gbps
    issue = spec.cores_per_ccx * bw.mlp_read
    return _sized_pool(
        env, f"ccx{ccx_id}-tokens", issue, spec.latency.ccx_queue_max_ns, drain
    )


def ccd_token_pool(env: Environment, platform, ccd_id: int = 0) -> Optional[TokenPool]:
    """The CCD-level module, or None on platforms without one (e.g. 9634)."""
    spec = platform.spec
    if spec.latency.ccd_queue_max_ns <= 0:
        return None
    bw = spec.bandwidth
    if bw.ccd_tokens is not None:
        return TokenPool(env, bw.ccd_tokens, name=f"ccd{ccd_id}-tokens")
    # The CCD module sits behind the CCX pools: its offered load is what the
    # CCX pools let through, draining into the GMI port.
    ccx_pool_tokens = ccx_token_pool(env, platform).capacity
    issue = spec.ccx_per_ccd * ccx_pool_tokens
    return _sized_pool(
        env, f"ccd{ccd_id}-tokens", issue, spec.latency.ccd_queue_max_ns,
        bw.gmi_read_gbps,
    )

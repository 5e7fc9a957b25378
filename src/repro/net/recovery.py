"""Fault-reactive recovery: failure detection, credit reclamation, failover.

The stack from :mod:`repro.net` is fault-*oblivious*: inject a permanent
link failure from :mod:`repro.faults` and credits strand on the dead link,
and workers keep issuing to an endpoint whose telemetry shows it dead.
This module closes the detect -> reclaim -> reroute loop:

* **Detection** — :class:`HealthMonitor` is an engine-agnostic state
  machine fed from telemetry on the *simulated* clock: per-window
  utilization collapse (delivered bytes from a
  :class:`~repro.telemetry.counters.CounterRegistry` against the
  endpoint's expected rate, judged only while demand is queued) and
  credit-return timeouts reported by the transport gate. ``dead_after``
  consecutive strikes declare the endpoint DEAD; revival goes through
  active probes (:class:`RecoveryInstallation`), never through silence.
* **Credit reclamation** — :class:`ReclaimableTokenPool` extends the
  credit pools with count-based forgiveness: when an endpoint is declared
  dead, the in-flight credits are reclaimed back home after
  ``drain_deadline_ns``; a stranded transaction that completes later has
  its late return *forgiven* instead of double-counted, so the
  conservation invariant (:meth:`ReclaimingCreditScheduler.
  assert_credits_home`) holds through permanent failures.
* **Retransmission with backoff** — :class:`RecoveryGate` puts a deadline
  on the credit wait; a stranded transaction backs off (capped
  exponential, deterministic :class:`~repro.sim.rng.SplitRng` jitter) and
  retries — on a failover path once the endpoint is declared dead. The
  final attempt waits unbounded: a transaction is retried or reported,
  never silently dropped.
* **Failover** — :class:`FailoverRouter` re-homes a worker's stranded
  endpoint onto the healthy candidate with the most residual capacity.

Both engines compile the same configuration: the DES interposes
:class:`RecoveryGate` plus monitor/prober processes
(:func:`install`), the fluid backend derives the identical
:class:`HealthMonitor` verdicts from the schedule's capacity-factor
telemetry (:func:`fluid_health`) and masks dead capacity out of the
solve (:meth:`HealthMonitor.capacity_mask`). ``RecoveryConfig.off()``
installs nothing — byte-identical to a run that never imported this
module, the same null contract fault injection and tracing keep.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.credits import CreditScheduler, endpoint_rate_gbps
from repro.net.inject import install as install_stack
from repro.net.stack import NetStackConfig
from repro.noc.flowcontrol import TokenPool
from repro.sim.engine import Event
from repro.sim.rng import SplitRng
from repro.telemetry.counters import CounterRegistry
from repro.transport.message import OpKind, Transaction
from repro.transport.path import CompiledPath, PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = [
    "LinkHealth",
    "HealthTransition",
    "RecoveryConfig",
    "RecoveryStats",
    "HealthMonitor",
    "ReclaimableTokenPool",
    "ReclaimingCreditScheduler",
    "FailoverRouter",
    "RecoveryGate",
    "RecoveryInstallation",
    "install",
    "fluid_health",
]

#: Residue factor a dead link keeps in a fluid capacity mask — the same
#: floor :mod:`repro.faults.schedule` keeps so solver capacities stay
#: positive.
_MASK_RESIDUE = 1e-3


class LinkHealth(enum.Enum):
    """Health verdict of one endpoint/link."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    DEAD = "dead"


@dataclass(frozen=True)
class HealthTransition:
    """One recorded state change (simulated time, endpoint, new state)."""

    t_ns: float
    endpoint: str
    state: LinkHealth


@dataclass(frozen=True)
class RecoveryConfig:
    """Tunables of the detect -> reclaim -> reroute loop.

    Everything defaults to *off*; :meth:`on` returns the calibrated
    defaults the ``repro chaos --recover`` sweep uses. Times are
    nanoseconds on the simulated clock, so both backends read the same
    numbers.
    """

    enabled: bool = False
    #: Health sampling / probing period.
    probe_interval_ns: float = 200.0
    #: Delivered/expected ratio below which a sampled window (with queued
    #: demand) counts as a strike toward DEAD.
    dead_threshold: float = 0.25
    #: Ratio below which the endpoint is merely DEGRADED.
    degraded_threshold: float = 0.75
    #: Consecutive strikes before an endpoint is declared DEAD.
    dead_after: int = 3
    #: Consecutive healthy probes before a DEAD endpoint is re-admitted.
    revive_after: int = 3
    #: Credits stranded toward a dead endpoint go home this long after
    #: the death declaration.
    drain_deadline_ns: float = 400.0
    #: Deadline on the credit wait before a retry attempt.
    retry_timeout_ns: float = 300.0
    #: Deadline on the in-service (credit-return) phase: a transaction
    #: holding credits longer than this strikes the endpoint, and — once
    #: the endpoint is declared dead — is abandoned to the wreck and
    #: retransmitted over a failover path. Must exceed the healthy loaded
    #: tail latency, or live traffic strikes its own links.
    service_timeout_ns: float = 700.0
    #: Retry attempts with a deadline; the final attempt waits unbounded
    #: (retried or reported, never lost).
    max_retries: int = 8
    #: Capped exponential backoff between attempts.
    backoff_base_ns: float = 50.0
    backoff_cap_ns: float = 400.0
    #: Deterministic jitter fraction on each backoff (SplitRng stream).
    jitter_fraction: float = 0.25
    #: Active-probe transaction size; large enough that a capacity
    #: collapse (not just added latency) is visible in one service time.
    probe_size_bytes: int = 1024
    #: A probe is healthy when it completes within this factor of the
    #: healthy expectation (unloaded latency + probe service time).
    probe_latency_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.probe_interval_ns <= 0:
            raise ConfigurationError(
                f"probe interval must be positive, got {self.probe_interval_ns}"
            )
        if not 0.0 < self.dead_threshold <= self.degraded_threshold <= 1.0:
            raise ConfigurationError(
                "thresholds must satisfy 0 < dead <= degraded <= 1, got "
                f"dead={self.dead_threshold}, degraded={self.degraded_threshold}"
            )
        if self.dead_after < 1 or self.revive_after < 1:
            raise ConfigurationError(
                "dead_after and revive_after must be >= 1"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_timeout_ns <= 0 or self.service_timeout_ns <= 0:
            raise ConfigurationError(
                "retry and service timeouts must be positive"
            )
        if self.backoff_base_ns <= 0 or self.backoff_cap_ns < self.backoff_base_ns:
            raise ConfigurationError(
                "backoff must satisfy 0 < base <= cap, got "
                f"base={self.backoff_base_ns}, cap={self.backoff_cap_ns}"
            )
        if not 0.0 <= self.jitter_fraction < 1.0:
            raise ConfigurationError(
                f"jitter fraction must be in [0, 1), got {self.jitter_fraction}"
            )
        if self.probe_size_bytes < CACHELINE:
            raise ConfigurationError(
                f"probe size must be >= {CACHELINE} bytes, "
                f"got {self.probe_size_bytes}"
            )
        if self.probe_latency_factor <= 1.0:
            raise ConfigurationError(
                "probe_latency_factor must be > 1, got "
                f"{self.probe_latency_factor}"
            )

    @classmethod
    def off(cls) -> "RecoveryConfig":
        """No recovery: the stack behaves exactly as before this module."""
        return cls()

    @classmethod
    def on(cls, **overrides) -> "RecoveryConfig":
        """The calibrated recovery defaults (override any field)."""
        return cls(enabled=True, **overrides)


@dataclass
class RecoveryStats:
    """What the recovery layer did during one run (reported, not lost)."""

    retries: int = 0
    failovers: int = 0
    credit_timeouts: int = 0
    reclaimed_credits: int = 0
    forgiven_returns: int = 0
    probes_sent: int = 0
    gave_up_deadlines: int = 0


class HealthMonitor:
    """Deterministic, engine-agnostic link-health state machine.

    Inputs arrive as discrete observations stamped with simulated time:
    :meth:`observe_window` (utilization collapse), :meth:`credit_timeout`
    (a transport deadline expired toward the endpoint), and
    :meth:`observe_probe` (an active probe's verdict, the only path back
    to HEALTHY). The same machine serves both backends — the DES feeds it
    from live counters, the fluid backend from the fault schedule's
    capacity-factor telemetry (:func:`fluid_health`).
    """

    def __init__(self, config: RecoveryConfig) -> None:
        self.config = config
        self._state: Dict[str, LinkHealth] = {}
        self._strikes: Dict[str, int] = {}
        self._heal_streak: Dict[str, int] = {}
        self.transitions: List[HealthTransition] = []

    # ---------------------------------------------------------------- queries

    def state(self, endpoint: str) -> LinkHealth:
        """Current verdict for ``endpoint`` (unknown links are HEALTHY)."""
        return self._state.get(endpoint, LinkHealth.HEALTHY)

    def is_dead(self, endpoint: str) -> bool:
        """Has ``endpoint`` been declared DEAD (and not yet revived)?"""
        return self._state.get(endpoint) is LinkHealth.DEAD

    def dead_endpoints(self) -> List[str]:
        """Every endpoint currently DEAD, in name order."""
        return sorted(
            name
            for name, state in self._state.items()
            if state is LinkHealth.DEAD
        )

    def detect_ns(self, endpoint: str) -> Optional[float]:
        """Simulated time of the first DEAD declaration, or None."""
        for transition in self.transitions:
            if (
                transition.endpoint == endpoint
                and transition.state is LinkHealth.DEAD
            ):
                return transition.t_ns
        return None

    def capacity_mask(self, directions: Sequence[str] = ("r", "w")) -> Dict[str, float]:
        """Fluid-solver derates for dead endpoints (residue-floored).

        Merged into :class:`~repro.core.fabric.FabricModel` derates, a
        dead link's channels keep only :data:`_MASK_RESIDUE` of their
        capacity — the health-aware capacity masking the fluid solver
        consumes.
        """
        return {
            f"{endpoint}:{direction}": _MASK_RESIDUE
            for endpoint in self.dead_endpoints()
            for direction in directions
        }

    # ------------------------------------------------------------ transitions

    def _set_state(self, endpoint: str, t_ns: float, state: LinkHealth) -> None:
        if self.state(endpoint) is state:
            return
        self._state[endpoint] = state
        self.transitions.append(HealthTransition(t_ns, endpoint, state))

    def _strike(self, endpoint: str, t_ns: float) -> None:
        self._heal_streak[endpoint] = 0
        strikes = self._strikes.get(endpoint, 0) + 1
        self._strikes[endpoint] = strikes
        if strikes >= self.config.dead_after:
            self._set_state(endpoint, t_ns, LinkHealth.DEAD)

    # ------------------------------------------------------------ observations

    def observe_window(
        self, endpoint: str, t_ns: float, delivered_ratio: float, queued: bool
    ) -> LinkHealth:
        """Judge one sampling window of delivered/expected throughput.

        A collapse only counts while demand was actually queued toward
        the endpoint — an idle link is unknown, not dead. Window
        telemetry never revives a DEAD endpoint (that would mistake
        "nobody sends here since failover" for health); revival is the
        probes' job.
        """
        if not queued:
            return self.state(endpoint)
        if delivered_ratio < self.config.dead_threshold:
            self._strike(endpoint, t_ns)
        elif self.is_dead(endpoint):
            pass  # only probes revive
        elif delivered_ratio < self.config.degraded_threshold:
            self._strikes[endpoint] = 0
            self._set_state(endpoint, t_ns, LinkHealth.DEGRADED)
        else:
            self._strikes[endpoint] = 0
            self._set_state(endpoint, t_ns, LinkHealth.HEALTHY)
        return self.state(endpoint)

    def credit_timeout(self, endpoint: str, t_ns: float) -> LinkHealth:
        """A transport-level credit wait expired toward ``endpoint``."""
        self._strike(endpoint, t_ns)
        return self.state(endpoint)

    def observe_probe(
        self, endpoint: str, t_ns: float, healthy: bool
    ) -> LinkHealth:
        """Feed one active-probe verdict (the only path out of DEAD)."""
        if not healthy:
            self._heal_streak[endpoint] = 0
            return self.state(endpoint)
        streak = self._heal_streak.get(endpoint, 0) + 1
        self._heal_streak[endpoint] = streak
        if self.is_dead(endpoint) and streak >= self.config.revive_after:
            self._strikes[endpoint] = 0
            self._set_state(endpoint, t_ns, LinkHealth.HEALTHY)
        return self.state(endpoint)


class ReclaimableTokenPool(TokenPool):
    """A credit pool whose stranded credits can be sent home early.

    Accounting: ``available == capacity - leases + forgiven_pending`` at
    every instant. :meth:`reclaim_all` moves the outstanding unforgiven
    leases home (granting FIFO waiters first, like a release would) and
    remembers them as *forgiven*; when a stranded transaction completes
    later, its late return consumes one forgiveness instead of minting a
    credit. At full drain ``leases == 0`` and ``forgiven_pending == 0``,
    so conservation is checkable through permanent failures.
    """

    def __init__(self, env, tokens: int, name: str = "tokens") -> None:
        super().__init__(env, tokens, name=name)
        #: Open leases (granted, not yet released).
        self.leases = 0
        self.reclaimed_total = 0
        self.forgiven_total = 0

    @property
    def forgiven_pending(self) -> int:
        return self.reclaimed_total - self.forgiven_total

    def _record_wait(self, wait_ns: float) -> None:
        self.leases += 1
        super()._record_wait(wait_ns)

    def release(self) -> None:
        """Return one credit — or settle a reclaimed credit's late return."""
        if self.forgiven_total < self.reclaimed_total:
            # This credit already went home via reclamation: forgive the
            # late return instead of double-counting it.
            self.forgiven_total += 1
            self.leases -= 1
            return
        self.leases -= 1
        super().release()

    def cancel(self, event: Event) -> bool:
        """Withdraw a pending :meth:`acquire` (deadline expired).

        Returns False when the event is not waiting anymore — either it
        was already granted (the caller holds a credit and must release
        it) or it was never queued here.
        """
        for index, (waiting, enqueued_at) in enumerate(self._waiting):
            if waiting is event:
                del self._waiting[index]
                return True
        return False

    def reclaim_all(self) -> int:
        """Send every outstanding unforgiven credit home; returns count."""
        count = self.capacity - self._available
        for __ in range(count):
            self.reclaimed_total += 1
            if self._waiting:
                event, enqueued_at = self._waiting.popleft()
                self._record_wait(self.env.now - enqueued_at)
                event.succeed()
            else:
                self._available += 1
        return count


class ReclaimingCreditScheduler(CreditScheduler):
    """A credit scheduler whose pools survive permanent link failures."""

    def pool(self, endpoint: str, flow: str) -> ReclaimableTokenPool:
        """The (endpoint, flow) pool, created reclaimable on first use."""
        key = (endpoint, flow)
        existing = self._pools.get(key)
        if existing is None:
            existing = ReclaimableTokenPool(
                self.env,
                self.share(endpoint, flow),
                name=f"credits/{endpoint}/{flow}",
            )
            self._pools[key] = existing
        return existing

    def reclaim_endpoint(self, endpoint: str) -> int:
        """Reclaim every flow's stranded credits at one endpoint."""
        reclaimed = 0
        for (pool_endpoint, __), pool in sorted(self._pools.items()):
            if pool_endpoint == endpoint:
                reclaimed += pool.reclaim_all()
        return reclaimed

    def queued_demand(self, endpoint: str) -> bool:
        """Is any flow waiting on or holding credits at ``endpoint``?"""
        for (pool_endpoint, __), pool in self._pools.items():
            if pool_endpoint != endpoint:
                continue
            if pool.queue_length > 0 or pool.leases > pool.forgiven_pending:
                return True
        return False

    def assert_credits_home(self) -> None:
        """Conservation through failures: home + in-flight + reclaimed.

        At quiescence every lease has been released (or forgiven against
        a reclamation), so ``available == capacity`` must hold *and* the
        forgiveness book must balance — a pending forgiveness at drain
        would mean a transaction vanished with its credit.
        """
        for (endpoint, flow), pool in self._pools.items():
            forgiven = getattr(pool, "forgiven_pending", 0)
            leases = getattr(pool, "leases", pool.capacity - pool.available)
            if pool.available != pool.capacity or leases != forgiven:
                raise ConfigurationError(
                    f"credit leak at {endpoint}/{flow}: "
                    f"{pool.capacity - pool.available} of {pool.capacity} "
                    f"credits never returned ({leases} leases open, "
                    f"{forgiven} reclaimed returns still pending)"
                )


class FailoverRouter:
    """Re-homes a worker's stranded endpoint onto a healthy candidate.

    Pure control-plane state (no events): workers register their
    candidate paths eagerly — the same fail-fast contract the injectors
    keep — and :meth:`reroute` moves a worker to the healthy registered
    endpoint with the most residual capacity (ties broken by unloaded
    latency, then id-order), updating the assigned-load book so
    successive reroutes spread instead of pile up.
    """

    def __init__(self, platform, health: HealthMonitor) -> None:
        self.platform = platform
        self.health = health
        #: (worker, endpoint) -> candidate path (None on the fluid backend,
        #: where routing is a set of endpoint homes, not compiled paths).
        self._paths: Dict[Tuple[int, str], Optional[CompiledPath]] = {}
        #: worker -> (current endpoint, that worker's offered GB/s).
        self._homes: Dict[int, Tuple[str, float]] = {}
        #: endpoint -> offered GB/s currently homed there.
        self._loads: Dict[str, float] = {}
        #: endpoint -> candidate order index (registration order).
        self._order: Dict[str, int] = {}

    def register(
        self,
        worker: int,
        endpoint: str,
        path: Optional[CompiledPath] = None,
        primary: bool = False,
        slice_gbps: float = 0.0,
    ) -> None:
        """Declare ``endpoint`` (via ``path``) a candidate route for ``worker``."""
        self._paths[(worker, endpoint)] = path
        self._order.setdefault(endpoint, len(self._order))
        if primary:
            self._homes[worker] = (endpoint, slice_gbps)
            self._loads[endpoint] = self._loads.get(endpoint, 0.0) + slice_gbps

    def home(self, worker: int) -> Optional[str]:
        """The endpoint ``worker`` is currently homed on, if registered."""
        homed = self._homes.get(worker)
        return homed[0] if homed else None

    def path_for(self, worker: int, endpoint: str) -> Optional[CompiledPath]:
        """The registered candidate path, or None (fluid / unregistered)."""
        return self._paths.get((worker, endpoint))

    def _residual(self, endpoint: str, is_write: bool) -> float:
        capacity = endpoint_rate_gbps(self.platform, endpoint, is_write=is_write)
        return capacity - self._loads.get(endpoint, 0.0)

    def reroute(
        self, worker: int, is_write: bool = False
    ) -> Optional[Tuple[str, Optional[CompiledPath]]]:
        """Move ``worker`` off a dead home; None when nothing better exists."""
        homed = self._homes.get(worker)
        if homed is None:
            return None
        current, slice_gbps = homed
        candidates = sorted(
            (
                endpoint
                for (candidate_worker, endpoint) in self._paths
                if candidate_worker == worker
                and endpoint != current
                and not self.health.is_dead(endpoint)
            ),
            key=lambda endpoint: (
                -self._residual(endpoint, is_write),
                self._order[endpoint],
                endpoint,
            ),
        )
        if not candidates:
            return None
        target = candidates[0]
        self._loads[current] = self._loads.get(current, 0.0) - slice_gbps
        self._loads[target] = self._loads.get(target, 0.0) + slice_gbps
        self._homes[worker] = (target, slice_gbps)
        return target, self._paths[(worker, target)]


class RecoveryGate:
    """A credit gate with deadlines, backoff retry, and failover.

    Duck-typed as a :class:`~repro.transport.transaction.
    TransactionExecutor` for issuers, like
    :class:`~repro.net.inject.CreditGate` — but both phases of a
    transaction carry deadlines:

    * the **credit wait** times out after ``retry_timeout_ns``: the gate
      reports a credit timeout to the health monitor (a detection input),
      backs off with capped exponential delay and deterministic jitter,
      and retries — rerouted once the monitor declares the endpoint dead;
    * the **in-service phase** (credits held, transaction in the fabric)
      times out after ``service_timeout_ns``: each expiry strikes the
      endpoint, and once it is declared dead the stuck attempt is
      *abandoned* — its credits stay with the wreck (they return home
      when the dead link's trickle finally drains it, or earlier via
      reclamation, the forgiveness book balancing the late return) and
      the transaction is retransmitted over a failover path.

    After ``max_retries`` deadlined attempts the final attempt waits
    unbounded: a transaction is delayed and reported, never dropped.
    """

    def __init__(
        self,
        executor: TransactionExecutor,
        scheduler: ReclaimingCreditScheduler,
        flow: str,
        health: HealthMonitor,
        router: FailoverRouter,
        config: RecoveryConfig,
        rng,
        stats: RecoveryStats,
        registry: CounterRegistry,
        worker: Optional[int] = None,
    ) -> None:
        self.executor = executor
        self.scheduler = scheduler
        self.flow = flow
        self.health = health
        self.router = router
        self.config = config
        self.rng = rng
        self.stats = stats
        self.registry = registry
        #: Failover-routing identity; ``None`` falls back to the
        #: transaction's ``src_core`` (fine when core ids are unique
        #: across the gate's issuers).
        self.worker = worker

    def _backoff_ns(self, attempt: int) -> float:
        base = min(
            self.config.backoff_cap_ns,
            self.config.backoff_base_ns * (2.0 ** attempt),
        )
        return base * (1.0 + self.config.jitter_fraction * float(self.rng.random()))

    def _acquire(
        self, pool: ReclaimableTokenPool, lines: int, deadline_ns: Optional[float]
    ) -> Generator[Event, None, Tuple[int, bool]]:
        """Hold ``lines`` credits, or give up at the deadline.

        Returns ``(credits held, timed out)``; on timeout the caller owns
        the partial holdings and must release them.
        """
        if deadline_ns is None:
            for __ in range(lines):
                grant = pool.acquire()
                if grant.callbacks is not None:
                    yield grant
            return lines, False
        env = self.executor.env
        # Armed at the first wait: no time passes before it, so it still
        # falls deadline_ns after the attempt began, and an attempt whose
        # credits are all free arms none.
        deadline = None
        held = 0
        for __ in range(lines):
            grant = pool.acquire()
            if grant.triggered:
                held += 1
                continue
            if deadline is None:
                deadline = env.timeout(deadline_ns)
            yield env.any_of([grant, deadline])
            if grant.triggered:
                held += 1
                continue
            if not pool.cancel(grant):
                # Granted in the same instant the deadline fired.
                held += 1
                continue
            return held, True
        return held, False

    def _reroute(self, worker: int, is_write: bool):
        """A usable failover route (endpoint + compiled path), or None."""
        rerouted = self.router.reroute(worker, is_write)
        if rerouted is None or rerouted[1] is None:
            return None
        return rerouted

    def execute(
        self, txn: Transaction, path: CompiledPath
    ) -> Generator[Event, None, Transaction]:
        """DES process: recovery-gated end-to-end execution of one txn."""
        if not path.stages:
            raise ConfigurationError(
                f"path {path.name} has no queued stages to credit"
            )
        env = self.executor.env
        config = self.config
        worker = self.worker if self.worker is not None else txn.src_core
        endpoint = path.stages[-1].name
        lines = max(1, -(-txn.size_bytes // CACHELINE))
        attempt = 0
        while True:
            # Control-plane failover: never start an attempt toward an
            # endpoint the monitor has declared dead.
            if self.health.is_dead(endpoint):
                rerouted = self._reroute(worker, txn.op.is_write)
                if rerouted is not None:
                    self._trace_mark(
                        env, txn, f"recovery/failover/{endpoint}>{rerouted[0]}"
                    )
                    endpoint, path = rerouted
                    self.stats.failovers += 1
            pool = self.scheduler.pool(endpoint, self.flow)
            deadline = (
                config.retry_timeout_ns
                if attempt < config.max_retries
                else None
            )
            tracer = env.tracer
            span = None
            if tracer is not None:
                span = tracer.begin(
                    f"credits/{endpoint}", "wait",
                    f"{self.flow}/c{txn.src_core}",
                    flow=self.flow, size=txn.size_bytes, attempt=attempt,
                )
            held, timed_out = yield from self._acquire(pool, lines, deadline)
            if timed_out:
                if span is not None:
                    tracer.end(span, timeout=True)
                for __ in range(held):
                    pool.release()
                self.stats.credit_timeouts += 1
                self.health.credit_timeout(endpoint, env.now)
                self.stats.retries += 1
                attempt += 1
                if attempt == config.max_retries:
                    self.stats.gave_up_deadlines += 1
                yield from self._backoff(env, txn, endpoint, attempt)
                continue
            if span is not None:
                tracer.end(span)
            # The endpoint may have died while we queued for credits
            # (reclamation grants FIFO waiters); take the failover path
            # instead of feeding the dead link.
            if self.health.is_dead(endpoint):
                rerouted = self._reroute(worker, txn.op.is_write)
                if rerouted is not None:
                    for __ in range(held):
                        pool.release()
                    self._trace_mark(
                        env, txn, f"recovery/failover/{endpoint}>{rerouted[0]}"
                    )
                    endpoint, path = rerouted
                    self.stats.failovers += 1
                    continue
            # Service phase: each attempt executes a fresh clone so an
            # abandoned wreck draining through the dead link cannot race
            # the retransmission for the caller's transaction object.
            attempt_txn = Transaction(
                txn.op, txn.size_bytes, src_core=txn.src_core,
                target=txn.target, flow_id=txn.flow_id,
            )
            done = env.process(self.executor.execute(attempt_txn, path))
            abandoned = False
            if attempt >= config.max_retries:
                yield done
            else:
                while not done.triggered:
                    yield env.any_of(
                        [done, env.timeout(config.service_timeout_ns)]
                    )
                    if done.triggered:
                        break
                    # Credits held past the deadline: a credit-return
                    # timeout, the transport-level detection input.
                    self.stats.credit_timeouts += 1
                    self.health.credit_timeout(endpoint, env.now)
                    if not self.health.is_dead(endpoint):
                        continue
                    rerouted = self._reroute(worker, txn.op.is_write)
                    if rerouted is None:
                        continue
                    abandoned = True
                    break
            if abandoned:
                # The wreck keeps its credits; they return home when the
                # dead link's trickle finally drains it — or earlier via
                # reclamation, in which case this late release is
                # forgiven instead of double-counted.
                def _release_wreck(event, pool=pool, lines=lines):
                    for __ in range(lines):
                        pool.release()

                done.callbacks.append(_release_wreck)
                self._trace_mark(
                    env, txn, f"recovery/retransmit/{endpoint}>{rerouted[0]}"
                )
                self.stats.retries += 1
                self.stats.failovers += 1
                endpoint, path = rerouted
                attempt += 1
                continue
            for __ in range(lines):
                pool.release()
            txn.issued_ns = attempt_txn.issued_ns
            txn.completed_ns = attempt_txn.completed_ns
            self._account(endpoint, txn)
            return txn

    def _backoff(
        self, env, txn: Transaction, endpoint: str, attempt: int
    ) -> Generator[Event, None, None]:
        """Capped exponential backoff with deterministic jitter, traced."""
        tracer = env.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                f"recovery/backoff/{endpoint}", "retry",
                f"{self.flow}/c{txn.src_core}",
                flow=self.flow, attempt=attempt,
            )
        yield self._backoff_ns(attempt - 1)
        if span is not None:
            tracer.end(span)

    def _account(self, endpoint: str, txn: Transaction) -> None:
        """Feed the telemetry registry one delivered transaction."""
        self.registry.record(
            self.router.platform.link(endpoint), txn.size_bytes,
            txn.op.is_write,
        )

    def _trace_mark(self, env, txn: Transaction, name: str) -> None:
        tracer = env.tracer
        if tracer is None:
            return
        span = tracer.begin(
            name, "retry", f"{self.flow}/c{txn.src_core}", flow=self.flow,
        )
        tracer.end(span)


@dataclass
class RecoveryInstallation:
    """What :func:`install` interposed: gates, monitors, reclamation."""

    resolver: PathResolver
    config: RecoveryConfig
    scheduler: ReclaimingCreditScheduler
    health: HealthMonitor
    router: FailoverRouter
    registry: CounterRegistry
    stats: RecoveryStats = field(default_factory=RecoveryStats)
    seed: int = 0
    _endpoints: List[str] = field(default_factory=list)
    _expected_gbps: Dict[str, float] = field(default_factory=dict)
    _probe_paths: Dict[str, CompiledPath] = field(default_factory=dict)
    _stopped: bool = False
    _reclaimed_deaths: set = field(default_factory=set)

    def gate(
        self,
        executor: TransactionExecutor,
        flow: str,
        worker: Optional[int] = None,
    ) -> RecoveryGate:
        """Wrap an issuer's executor for one flow (and failover identity)."""
        rng = SplitRng(self.seed).stream(
            f"recovery/backoff/{flow}/{worker if worker is not None else '-'}"
        )
        return RecoveryGate(
            executor, self.scheduler, flow, self.health, self.router,
            self.config, rng, self.stats, self.registry, worker=worker,
        )

    def assert_credits_home(self) -> None:
        """Post-drain conservation check (extended for reclamation)."""
        self.scheduler.assert_credits_home()

    # ------------------------------------------------------------- monitoring

    def watch(
        self,
        endpoint: str,
        expected_gbps: float,
        probe_path: CompiledPath,
    ) -> None:
        """Put one endpoint under health monitoring.

        ``expected_gbps`` is the demand homed at the endpoint (the
        utilization-collapse baseline); ``probe_path`` carries the active
        probes that decide revival.
        """
        if endpoint not in self._endpoints:
            self._endpoints.append(endpoint)
        self._expected_gbps[endpoint] = float(expected_gbps)
        self._probe_paths[endpoint] = probe_path

    def start(self) -> None:
        """Start the monitor and prober processes (DES interposers)."""
        env = self.resolver.env
        env.process(self._monitor_loop())
        env.process(self._probe_loop())

    def stop(self) -> None:
        """Ask the loops to exit at their next wake-up (lets a run drain)."""
        self._stopped = True

    def _delivered_bytes(self, endpoint: str) -> int:
        counters = self.registry.get(endpoint)
        if counters is None:
            return 0
        return counters.read_bytes + counters.write_bytes

    def _monitor_loop(self) -> Generator[Event, None, None]:
        """Sample per-endpoint delivered throughput; reclaim due credits."""
        env = self.resolver.env
        config = self.config
        last = {endpoint: 0 for endpoint in self._endpoints}
        while not self._stopped:
            yield config.probe_interval_ns
            if self._stopped:
                return
            now = env.now
            for endpoint in self._endpoints:
                total = self._delivered_bytes(endpoint)
                delivered = total - last.get(endpoint, 0)
                last[endpoint] = total
                expected = self._expected_gbps[endpoint] * config.probe_interval_ns
                if expected <= 0.0:
                    continue
                self.health.observe_window(
                    endpoint, now,
                    delivered / expected,
                    queued=self.scheduler.queued_demand(endpoint),
                )
            # Credit reclamation: drain deadline after each DEAD verdict.
            for index, transition in enumerate(self.health.transitions):
                if transition.state is not LinkHealth.DEAD:
                    continue
                if index in self._reclaimed_deaths:
                    continue
                if now < transition.t_ns + config.drain_deadline_ns:
                    continue
                self._reclaimed_deaths.add(index)
                reclaimed = self.scheduler.reclaim_endpoint(transition.endpoint)
                self.stats.reclaimed_credits += reclaimed

    def _probe_loop(self) -> Generator[Event, None, None]:
        """Actively probe DEAD endpoints; probes alone decide revival."""
        env = self.resolver.env
        config = self.config
        prober = TransactionExecutor(env, flow="recovery-probe")
        self._probe_executor = prober
        while not self._stopped:
            yield config.probe_interval_ns
            if self._stopped:
                return
            for endpoint in list(self._endpoints):
                if not self.health.is_dead(endpoint):
                    continue
                path = self._probe_paths[endpoint]
                rate = endpoint_rate_gbps(self.resolver.platform, endpoint)
                budget_ns = config.probe_latency_factor * (
                    path.unloaded_ns + config.probe_size_bytes / rate
                )
                txn = Transaction(
                    OpKind.READ, config.probe_size_bytes, src_core=0,
                )
                started = env.now
                yield env.process(prober.execute(txn, path))
                self.stats.probes_sent += 1
                self.health.observe_probe(
                    endpoint, env.now, env.now - started <= budget_ns
                )

    def forgiveness_settled(self) -> bool:
        """True when every reclaimed credit's late return has arrived."""
        return all(
            getattr(pool, "forgiven_pending", 0) == 0
            for pool in self.scheduler.pools.values()
        )


def install(
    resolver: PathResolver,
    config: NetStackConfig,
    recovery: RecoveryConfig,
    flows: Sequence[str] = (),
    endpoints: Sequence[str] = (),
    seed: int = 0,
):
    """Interpose the stack with recovery into the resolver's environment.

    With ``recovery.enabled`` False this *is*
    :func:`repro.net.inject.install` — the same object, the same
    (absence of) interposers, bit-identical behavior. With recovery on,
    the credit scheduler becomes a :class:`ReclaimingCreditScheduler`,
    gates become :class:`RecoveryGate`, and the caller wires monitoring
    via :meth:`RecoveryInstallation.watch` + ``start()``.
    """
    if not recovery.enabled:
        return install_stack(resolver, config, flows=flows, endpoints=endpoints)
    if not config.credits:
        raise ConfigurationError(
            "recovery rides on the credit machinery; enable credits too"
        )
    if not flows:
        raise ConfigurationError(
            "installing recovery needs the competing flow names"
        )
    scheduler = ReclaimingCreditScheduler(
        resolver.env,
        resolver.platform,
        flows,
        config=config.credit_config,
        credit_scales=config.credit_scales(),
    )
    for endpoint in endpoints:
        for flow in flows:
            scheduler.pool(endpoint, flow)
    health = HealthMonitor(recovery)
    registry = CounterRegistry()
    router = FailoverRouter(resolver.platform, health)
    return RecoveryInstallation(
        resolver=resolver,
        config=recovery,
        scheduler=scheduler,
        health=health,
        router=router,
        registry=registry,
        seed=seed,
    )


def fluid_health(
    platform,
    schedule,
    recovery: RecoveryConfig,
    endpoints: Sequence[str],
    until_ns: float,
    expected_share: float = 1.0,
) -> HealthMonitor:
    """Compile detection for the fluid backend.

    The fluid solver has no event loop to interpose on; its telemetry is
    the fault schedule's capacity-factor curve — exactly what a
    :class:`~repro.telemetry.counters.CounterRegistry` would integrate
    over each window. Sampling the factor at every probe interval and
    feeding the *same* :class:`HealthMonitor` the DES uses keeps the two
    backends' verdicts (state machine, thresholds, detection times)
    comparable by construction.
    """
    monitor = HealthMonitor(recovery)
    steps = int(until_ns / recovery.probe_interval_ns)
    for step in range(1, steps + 1):
        t_ns = step * recovery.probe_interval_ns
        derates = schedule.derates_at(t_ns)
        for endpoint in endpoints:
            factor = derates.get(f"{endpoint}:r", 1.0)
            monitor.observe_window(
                endpoint, t_ns, factor * expected_share, queued=True
            )
            if monitor.is_dead(endpoint):
                # What an active probe would see: a link back above the
                # degraded threshold serves a probe within its latency
                # budget. This keeps flapping-link re-admission
                # comparable across the backends.
                monitor.observe_probe(
                    endpoint, t_ns,
                    healthy=factor >= recovery.degraded_threshold,
                )
    return monitor

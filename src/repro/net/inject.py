"""DES-backend installation of the networking stack.

Mirrors :func:`repro.faults.inject.install`: given the
:class:`~repro.transport.path.PathResolver` that owns a platform's simulated
hardware plus a :class:`~repro.net.stack.NetStackConfig`, interpose the
stack into a live simulation. Where fault injection interposes on *time*
(rate reshaping processes), the stack interposes on the *issue path*: a
:class:`CreditGate` wraps a :class:`~repro.transport.transaction.
TransactionExecutor` and makes every transaction hold receiver-granted
credits for its destination endpoint while it is in flight — the DES
realization of receiver-driven congestion control.

Installing a disabled stack interposes nothing: issuers keep calling the
bare executor and the run is bit-identical to one that never imported this
module (the same null-schedule property fault injection keeps).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence

from repro.errors import ConfigurationError
from repro.net.credits import CreditScheduler
from repro.net.stack import NetStackConfig
from repro.sim.engine import Event
from repro.transport.message import Transaction
from repro.transport.path import CompiledPath, PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = ["CreditGate", "NetInstallation", "install"]


class CreditGate:
    """An executor wrapper enforcing receiver-driven credits.

    Duck-typed as a :class:`TransactionExecutor` for issuers (they only call
    :meth:`execute`): before a transaction may enter the fabric it must hold
    one credit per cacheline at its destination endpoint — the last queued
    stage of its compiled path — and the credits go home at completion.
    Backpressure is therefore *per receiver and per flow*: a hog that
    exhausts its own credit share queues at the gate, outside the fabric,
    instead of occupying the shared FIFO queues in front of everyone else.
    """

    def __init__(
        self,
        executor: TransactionExecutor,
        scheduler: CreditScheduler,
        flow: str,
    ) -> None:
        self.executor = executor
        self.scheduler = scheduler
        self.flow = flow

    def execute(
        self, txn: Transaction, path: CompiledPath
    ) -> Generator[Event, None, Transaction]:
        """DES process: credit-gated end-to-end execution of one txn."""
        if not path.stages:
            raise ConfigurationError(
                f"path {path.name} has no queued stages to credit"
            )
        endpoint = path.stages[-1].name
        pool = self.scheduler.pool(endpoint, self.flow)
        lines = max(1, -(-txn.size_bytes // CACHELINE))
        tracer = self.executor.env.tracer
        span = None
        if tracer is not None:
            # The credit wait precedes the transaction's issue (the
            # executor stamps ``issued_ns`` after the gate), so the span
            # is a sibling recorded on the same track, not a child hop.
            span = tracer.begin(
                f"credits/{endpoint}", "wait",
                f"{self.flow}/c{txn.src_core}",
                flow=self.flow, size=txn.size_bytes,
            )
        for __ in range(lines):
            grant = pool.acquire()
            if grant.callbacks is not None:
                yield grant
        if span is not None:
            tracer.end(span)
        try:
            result = yield from self.executor.execute(txn, path)
        finally:
            for __ in range(lines):
                pool.release()
        return result


@dataclass
class NetInstallation:
    """What :func:`install` interposed into one simulation environment."""

    scheduler: Optional[CreditScheduler]

    @property
    def active(self) -> bool:
        return self.scheduler is not None

    def gate(self, executor: TransactionExecutor, flow: str):
        """Wrap an issuer's executor for one flow (identity when inactive)."""
        if self.scheduler is None:
            return executor
        return CreditGate(executor, self.scheduler, flow)

    def assert_credits_home(self) -> None:
        """Post-run conservation check (no-op when inactive)."""
        if self.scheduler is not None:
            self.scheduler.assert_credits_home()


def install(
    resolver: PathResolver,
    config: NetStackConfig,
    flows: Sequence[str] = (),
    endpoints: Sequence[str] = (),
) -> NetInstallation:
    """Interpose the stack into the resolver's environment.

    ``flows`` names the competing streams (credit shares are split among
    them); ``endpoints`` optionally pre-creates the named endpoints' credit
    pools so an impossible configuration fails fast, before the simulation
    runs — the same eager-resolution contract fault injection keeps. A
    disabled stack installs nothing and returns an inactive installation.
    """
    if not config.credits:
        return NetInstallation(scheduler=None)
    if not flows:
        raise ConfigurationError(
            "installing credits needs the competing flow names"
        )
    scheduler = CreditScheduler(
        resolver.env,
        resolver.platform,
        flows,
        config=config.credit_config,
        credit_scales=config.credit_scales(),
    )
    for endpoint in endpoints:
        for flow in flows:
            scheduler.pool(endpoint, flow)
    return NetInstallation(scheduler=scheduler)

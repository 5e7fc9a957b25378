"""Transaction execution on the discrete-event simulator."""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.errors import SimulationError
from repro.sim.engine import Environment, Event
from repro.transport.message import Transaction
from repro.transport.path import CompiledPath

__all__ = ["TransactionExecutor"]


class TransactionExecutor:
    """Drives transactions through compiled paths, collecting latency samples.

    The execution order mirrors the hardware: the request first claims the
    chiplet's traffic-control tokens (backpressure happens here — §3.2), then
    clears each queued stage in path order, then spends the remaining fixed
    propagation latency. Tokens are held until completion, which is what
    couples read and write streams sharing a chiplet (Figure 6).

    :meth:`execute` is one flat loop over the path's link directions: per
    stage it queues for a lane, holds it for the direction's service time
    and releases it — the events and RNG draws of
    :meth:`~repro.noc.arbiter.LinkArbiter.transfer`, in the same order.
    A token or lane grant that comes back already fired is not yielded
    (see the ordering contract in :mod:`repro.sim.engine`).

    The executor keeps byte-conservation books — ``bytes_injected``,
    ``bytes_delivered``, ``bytes_in_flight`` — cheap enough to run always.
    ``strict=True`` additionally *checks* them after every completion (plus
    per-transaction sanity: positive size, causal timestamps) and raises
    :class:`~repro.errors.SimulationError` naming the offending transaction;
    non-strict callers can audit at quiescence via :meth:`assert_conserved`.

    When the environment carries a :class:`~repro.trace.Tracer`
    (``env.tracer``), the same loop, in per-hop ``tracer is not None``
    branches, opens one span per transaction plus contiguous child spans
    per hop (token waits, queued stages, the fixed remainder), each hop
    beginning where the previous ended, so the hops tile the transaction
    exactly (:func:`repro.trace.breakdown.assert_tiles`). The tracer only
    reads the clock — traced and untraced runs are bit-identical.
    ``flow`` optionally names the stream this executor serves; spans (and
    profiler samples) carry it so telemetry and traces share flow
    identities.
    """

    def __init__(
        self,
        env: Environment,
        strict: bool = False,
        flow: Optional[str] = None,
    ) -> None:
        self.env = env
        self.strict = bool(strict)
        self.flow = flow
        self.completed: List[Transaction] = []
        self.bytes_injected = 0
        self.bytes_delivered = 0
        self.bytes_in_flight = 0

    def execute(
        self, txn: Transaction, path: CompiledPath
    ) -> Generator[Event, None, Transaction]:
        """DES process: run one transaction end-to-end; returns it completed."""
        env = self.env
        tracer = env.tracer
        size = txn.size_bytes
        if self.strict and size <= 0:
            raise SimulationError(
                f"transaction on {path.name}: non-positive size "
                f"{size} at t={env.now}"
            )
        is_write = txn.op.is_write
        txn.issued_ns = env._now
        self.bytes_injected += size
        self.bytes_in_flight += size
        if tracer is not None:
            track = flow = f"core{txn.src_core}"
            if self.flow is not None:
                flow = self.flow
                track = f"{flow}/c{txn.src_core}"
            span = tracer.begin(
                path.name, "txn", track, size=size, write=is_write, flow=flow
            )
        for pool in path.tokens:
            if tracer is not None:
                hop = tracer.begin(f"tokens/{pool.name}", "wait", track, parent=span)
            grant = pool.acquire()
            if grant.callbacks is not None:
                yield grant
            if tracer is not None:
                tracer.end(hop)
        try:
            for stage in path.stages:
                if tracer is not None:
                    hop = tracer.begin(stage.name, "hop", track, parent=span)
                direction = stage.directions[is_write]
                grant = direction.request()
                try:
                    if grant.callbacks is not None:
                        yield grant
                    yield direction.occupy(size)
                finally:
                    direction.release(grant)
                if tracer is not None:
                    tracer.end(
                        hop, size=size, write=is_write,
                        service_ns=stage.unloaded_service_ns(size, is_write),
                    )
            if tracer is not None:
                hop = tracer.begin("fixed", "hop", track, parent=span)
            yield path.fixed_ns
            if tracer is not None:
                tracer.end(hop, service_ns=path.fixed_ns)
        finally:
            for pool in reversed(path.tokens):
                pool.release()
        txn.completed_ns = env._now
        if tracer is not None:
            tracer.end(span)
            tracer.sample_flow(flow, size)
        self.bytes_in_flight -= size
        self.bytes_delivered += size
        self.completed.append(txn)
        if self.strict:
            if txn.completed_ns < txn.issued_ns:
                raise SimulationError(
                    f"transaction on {path.name}: completed at "
                    f"t={txn.completed_ns} before its issue at "
                    f"t={txn.issued_ns}"
                )
            self.assert_conserved(drained=False)
        return txn

    def assert_conserved(self, drained: bool = True) -> None:
        """Check byte conservation: injected == delivered + in-flight.

        With ``drained=True`` (the quiescence audit, e.g. after ``env.run()``
        returns with no load left) the in-flight term must also be zero —
        any residue is a transaction the simulation lost or abandoned.
        """
        if self.bytes_in_flight < 0:
            raise SimulationError(
                f"negative in-flight byte count ({self.bytes_in_flight}) "
                f"at t={self.env.now}: a transaction completed twice"
            )
        if self.bytes_injected != self.bytes_delivered + self.bytes_in_flight:
            raise SimulationError(
                f"byte conservation violated at t={self.env.now}: injected "
                f"{self.bytes_injected} != delivered {self.bytes_delivered} "
                f"+ in-flight {self.bytes_in_flight}"
            )
        if drained and self.bytes_in_flight != 0:
            raise SimulationError(
                f"{self.bytes_in_flight} bytes still in flight at "
                f"t={self.env.now}: transactions were lost or abandoned "
                f"before completion"
            )

    def latencies_ns(self, flow_id: Optional[int] = None) -> List[float]:
        """Latency samples of completed transactions (optionally one flow's)."""
        return [
            txn.latency_ns
            for txn in self.completed
            if flow_id is None or txn.flow_id == flow_id
        ]

    def reset(self) -> None:
        """Clear the completed-transaction log and re-baseline the books.

        Transactions still in flight stay accounted (injected re-baselines
        to the in-flight residue), so conservation keeps holding across a
        mid-run reset.
        """
        self.completed.clear()
        self.bytes_injected = self.bytes_in_flight
        self.bytes_delivered = 0

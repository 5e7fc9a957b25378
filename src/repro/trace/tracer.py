"""Span recording on the simulated clock.

A :class:`Tracer` collects *spans* — named intervals ``[ts, ts + dur)`` of
simulated time, each attributed to a *track* (a flow/worker lane) and
optionally linked to a parent span. The instrumented components
(:class:`~repro.transport.transaction.TransactionExecutor`,
:class:`~repro.net.inject.CreditGate`) open one span per transaction plus
one child span per *hop*: every token-pool wait, every queued stage
(IF link, GMI port, NoC, UMC/CXL device, xGMI), and the fixed
propagation remainder. Children are contiguous by construction — each
begins exactly where the previous one ended, on the same simulated clock —
so a transaction's hop spans tile its end-to-end latency *exactly*
(boundary floats are copied, not re-derived; see
:func:`repro.trace.breakdown.assert_tiles`).

Tracing is opt-in per :class:`~repro.sim.engine.Environment`: the engine
carries a ``tracer`` attribute that defaults to ``None``, and every
instrumented hot loop branches once per transaction on ``tracer is None``.
With tracing off the simulation therefore executes the exact same
bytecode path as before the tracer existed — results are bit-identical
and the overhead is one attribute load per transaction (measured in
``benchmarks/bench_trace.py``). With tracing *on*, the tracer only reads
``env.now`` and appends to a list: it schedules no events, so traced and
untraced runs produce identical simulation results.

Determinism: span ``seq`` numbers come from a per-tracer counter and
``ts``/``dur`` from the deterministic simulated clock, so a recording is a
pure function of the cell's arguments — recordings can be cached,
pickled across worker processes, and merged byte-identically for any
``--jobs`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "Span",
    "Tracer",
    "TraceRecording",
]


class Span:
    """One open span; closed by :meth:`Tracer.end` (do not mutate directly)."""

    __slots__ = ("name", "cat", "track", "ts", "seq", "parent", "extra")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        ts: float,
        seq: int,
        parent: Optional[int],
        extra: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.ts = ts
        self.seq = seq
        self.parent = parent
        self.extra = extra


@dataclass(frozen=True)
class TraceRecording:
    """A closed, picklable set of spans from one simulation cell.

    ``spans`` are plain dicts (keys: ``name``, ``cat``, ``track``, ``ts``,
    ``end``, ``dur``, ``seq``, ``parent``, optional ``args``) sorted by
    ``(ts, seq)`` — begin order, which the deterministic DES makes a pure
    function of the cell's arguments. ``dropped_open`` counts spans that
    were still open when the recording was taken (a crashed transaction);
    they are excluded rather than given fabricated durations.
    """

    spans: Tuple[Dict[str, Any], ...]
    dropped_open: int = 0
    meta: Dict[str, Any] = field(default_factory=dict)

    def elapsed_ns(self) -> float:
        """Simulated time covered by the recording (0.0 when empty)."""
        if not self.spans:
            return 0.0
        begin = min(span["ts"] for span in self.spans)
        end = max(span["end"] for span in self.spans)
        return end - begin


class Tracer:
    """Records spans against one environment's simulated clock.

    Attach with :meth:`attach` (or pass ``env`` to the constructor); the
    instrumented components discover the tracer through ``env.tracer``.
    An optional :class:`~repro.telemetry.profiler.FlowProfiler` receives
    one :class:`~repro.telemetry.profiler.FlowSample` per completed
    transaction span, keyed by the span's track label — spans and profiler
    telemetry therefore share flow identities.
    """

    def __init__(self, env=None, profiler=None) -> None:
        self._env = env
        self.profiler = profiler
        self._closed: List[Dict[str, Any]] = []
        self._seq = 0
        self._open = 0
        if env is not None:
            self.attach(env)

    def attach(self, env) -> "Tracer":
        """Bind to ``env``'s clock and register as ``env.tracer``."""
        if getattr(env, "tracer", None) not in (None, self):
            raise ConfigurationError(
                "environment already has a tracer attached"
            )
        self._env = env
        env.tracer = self
        return self

    def begin(
        self,
        name: str,
        cat: str,
        track: str,
        parent: Optional[Span] = None,
        **extra: Any,
    ) -> Span:
        """Open a span at the current simulated time."""
        self._seq += 1
        self._open += 1
        return Span(
            name, cat, track, self._env.now, self._seq,
            parent.seq if parent is not None else None,
            extra or None,
        )

    def end(self, span: Span, **extra: Any) -> None:
        """Close ``span`` at the current simulated time and record it."""
        now = self._env.now
        record: Dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "track": span.track,
            "ts": span.ts,
            # Both boundaries are *copies* of clock reads; ``dur`` is
            # derived once for exporters. Exactness checks must compare
            # ``end`` (``ts + dur`` can differ from ``end`` by an ULP).
            "end": now,
            "dur": now - span.ts,
            "seq": span.seq,
            "parent": span.parent,
        }
        args = span.extra
        if extra:
            args = {**(args or {}), **extra}
        if args:
            record["args"] = args
        self._open -= 1
        self._closed.append(record)

    def sample_flow(self, flow: str, size_bytes: int) -> None:
        """Feed the attached profiler one flow sample (no-op without one)."""
        if self.profiler is not None:
            from repro.telemetry.profiler import FlowSample

            self.profiler.record(FlowSample(flow, size_bytes, self._env.now))

    def recording(self, **meta: Any) -> TraceRecording:
        """Snapshot the closed spans, sorted by begin time.

        Sorting by ``(ts, seq)`` puts parents before their children (a
        parent begins no later and was opened first) and makes the order a
        deterministic function of the simulation alone.
        """
        spans = tuple(
            sorted(self._closed, key=lambda span: (span["ts"], span["seq"]))
        )
        return TraceRecording(spans=spans, dropped_open=self._open, meta=meta)

"""Load generation: closed-loop issue on the DES, open-loop arrival arrays.

The paper controls offered load by padding the instruction stream with NOPs
(§3.4): each core keeps at most its MLP window outstanding and issues no
faster than the target rate. :class:`ClosedLoopIssuer` models exactly that —
``window`` outstanding transactions per worker plus a shared pacing gate —
and collects per-transaction latency samples. :func:`lower_stream` builds
one from a :class:`~repro.core.flows.StreamSpec`: every closed-loop DES cell
decides its worker-to-endpoint stripe there.

Serving workloads are *open-loop*: arrivals do not wait for completions.
:func:`poisson_arrivals`, :func:`onoff_arrivals`, and
:func:`diurnal_arrivals` generate sorted arrival-time arrays directly as
numpy vectors so the batched recurrence engines
(:func:`repro.sim.batch.open_loop_departures`) can consume millions of
requests without a per-event loop. All three are deterministic given a
``numpy.random.Generator`` (obtain one from
``SplitRng(seed).stream(name)``); the Poisson generator draws the same
exponential gap sequence the DES arrival process draws scalar-by-scalar,
so hybrid and DES runs see bit-identical arrival times. The bursty and
diurnal shapes are non-homogeneous Poisson processes generated by exact
inversion of the piecewise-constant cumulative rate — no thinning, no
rejected draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import LatencyStats
from repro.core.flows import StreamSpec
from repro.errors import ConfigurationError
from repro.sim.engine import Environment, Event
from repro.transport.message import OpKind, Transaction
from repro.transport.path import CompiledPath, PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = [
    "ClosedLoopIssuer",
    "LoadResult",
    "lower_stream",
    "poisson_arrivals",
    "onoff_arrivals",
    "diurnal_arrivals",
]


def poisson_arrivals(
    rng: np.random.Generator,
    rate_qps: float,
    count: int,
    start_ns: float = 0.0,
) -> np.ndarray:
    """Sorted arrival times (ns) of a homogeneous Poisson stream.

    The gaps are one batched ``rng.standard_exponential(count)`` draw
    times ``scale = 1e9 / rate_qps``. numpy computes
    ``rng.exponential(scale)`` as ``scale * standard_exponential()``, so
    the gaps are bit-identical to ``count`` sequential scalar
    ``rng.exponential(scale)`` draws from the same generator. That is how
    the DES arrival process consumes its stream, and the identity is what
    keeps hybrid and DES arrival times bit-identical. The gaps are scaled,
    summed and offset in place, in one array.
    """
    if rate_qps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_qps}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    arrivals = rng.standard_exponential(count)
    arrivals *= 1e9 / rate_qps
    np.cumsum(arrivals, out=arrivals)
    arrivals += start_ns
    return arrivals


def _inversion_arrivals(
    rng: np.random.Generator,
    count: int,
    durations_ns: np.ndarray,
    rates_qps: np.ndarray,
    start_ns: float,
) -> np.ndarray:
    """Non-homogeneous Poisson arrivals over a cyclic piecewise-constant
    rate profile, by exact inversion of the cumulative rate function.

    Three float arrays and one index array of ``count`` elements, reused
    in place; every element sees the same operations in the same order as
    ``start + cycles * period + time_starts[seg] + within``.
    """
    # Unit-rate Poisson points on the cumulative-rate axis; ``frac`` turns
    # into each point's offset within its cycle below.
    frac = rng.standard_exponential(count)
    np.cumsum(frac, out=frac)
    # Expected events contributed by each segment of one cycle.
    seg_mass = durations_ns * rates_qps / 1e9
    cycle_mass = float(seg_mass.sum())
    if cycle_mass <= 0:
        raise ConfigurationError("rate profile must have positive mean rate")
    period_ns = float(durations_ns.sum())
    # cycles = floor(points / cycle_mass); frac = points - cycles * cycle_mass
    cycles = np.divide(frac, cycle_mass)
    np.floor(cycles, out=cycles)
    scratch = np.multiply(cycles, cycle_mass)
    frac -= scratch
    mass_ends = np.cumsum(seg_mass)
    time_starts = np.concatenate(([0.0], np.cumsum(durations_ns)[:-1]))
    mass_starts = np.concatenate(([0.0], mass_ends[:-1]))
    rate_per_ns = rates_qps / 1e9
    seg = np.searchsorted(mass_ends, frac, side="right")
    np.minimum(seg, seg_mass.size - 1, out=seg)
    # The gathers write into ``scratch``; seg is in range, so mode="clip"
    # changes no index and only skips the copy mode="raise" makes of out.
    # frac becomes within = (frac - mass_starts[seg]) / rate_per_ns[seg],
    # and cycles the arrival time.
    frac -= np.take(mass_starts, seg, out=scratch, mode="clip")
    frac /= np.take(rate_per_ns, seg, out=scratch, mode="clip")
    cycles *= period_ns
    cycles += start_ns
    cycles += np.take(time_starts, seg, out=scratch, mode="clip")
    cycles += frac
    return cycles


def onoff_arrivals(
    rng: np.random.Generator,
    on_qps: float,
    off_qps: float,
    on_ns: float,
    off_ns: float,
    count: int,
    start_ns: float = 0.0,
) -> np.ndarray:
    """Sorted arrival times (ns) of a bursty on/off Poisson stream.

    Rate alternates between ``on_qps`` (for ``on_ns``) and ``off_qps``
    (for ``off_ns``); ``off_qps`` may be zero for hard silences.
    """
    if on_qps <= 0 or off_qps < 0:
        raise ConfigurationError("on rate must be positive, off rate >= 0")
    if on_ns <= 0 or off_ns < 0:
        raise ConfigurationError("on duration must be positive, off >= 0")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    return _inversion_arrivals(
        rng,
        count,
        np.array([on_ns, off_ns], dtype=float),
        np.array([on_qps, off_qps], dtype=float),
        start_ns,
    )


def diurnal_arrivals(
    rng: np.random.Generator,
    peak_qps: float,
    levels: Sequence[float],
    period_ns: float,
    count: int,
    start_ns: float = 0.0,
) -> np.ndarray:
    """Sorted arrival times (ns) following a cyclic trace of rate levels.

    ``levels`` are relative multipliers of ``peak_qps`` (e.g. a 24-slot
    day shape); each level holds for ``period_ns / len(levels)``.
    """
    if peak_qps <= 0:
        raise ConfigurationError(f"peak rate must be positive, got {peak_qps}")
    if period_ns <= 0:
        raise ConfigurationError(f"period must be positive, got {period_ns}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    shape = np.asarray(levels, dtype=float)
    if shape.ndim != 1 or shape.size == 0:
        raise ConfigurationError("levels must be a non-empty 1-D sequence")
    if np.any(shape < 0) or not np.any(shape > 0):
        raise ConfigurationError("levels must be >= 0 with at least one > 0")
    durations = np.full(shape.size, period_ns / shape.size, dtype=float)
    return _inversion_arrivals(
        rng, count, durations, peak_qps * shape, start_ns
    )


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one load run: latency stats plus delivered bandwidth."""

    stats: LatencyStats
    offered_gbps: Optional[float]
    achieved_gbps: float
    elapsed_ns: float


class ClosedLoopIssuer:
    """A group of workers; worker ``i`` issues over ``paths[i]``."""

    def __init__(
        self,
        env: Environment,
        executor: TransactionExecutor,
        paths: Sequence[CompiledPath],
        op: OpKind,
        window: int,
        count_per_worker: int,
        rate_gbps: Optional[float] = None,
        size_bytes: int = CACHELINE,
        warmup_fraction: float = 0.1,
    ) -> None:
        if not paths or window < 1 or count_per_worker < 1:
            raise ConfigurationError("workers, window, and count must be >= 1")
        if rate_gbps is not None and rate_gbps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_gbps}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction must be in [0, 1)")
        self.env = env
        self.executor = executor
        self.paths = tuple(paths)
        self.op = op
        self.window = window
        self.count_per_worker = count_per_worker
        self.size_bytes = size_bytes
        self.warmup_fraction = warmup_fraction
        # Shared pacing gate: the aggregate never issues faster than the
        # offered rate (one slot every size/rate ns across all workers).
        # None → issue as fast as the windows allow.
        self._interval_ns = (
            size_bytes / rate_gbps if rate_gbps is not None else None
        )
        self.rate_gbps = rate_gbps
        self._next_issue_ns = 0.0
        self._samples: List[float] = []
        self._bytes_measured = 0
        self._measure_start_ns: Optional[float] = None
        self._measure_end_ns = 0.0

    def _worker(self, worker_id: int) -> Generator[Event, None, None]:
        path = self.paths[worker_id]
        warmup = int(self.count_per_worker * self.warmup_fraction)
        # Each worker runs `window` lanes; a lane is one outstanding slot.
        lanes = [
            self.env.process(self._lane(path, worker_id, lane, warmup))
            for lane in range(self.window)
        ]
        yield self.env.all_of(lanes)

    def _lane(
        self, path: CompiledPath, worker_id: int, lane: int, warmup: int
    ) -> Generator[Event, None, None]:
        """One outstanding slot: run its quota of transactions back to back.

        Each runs inline, in the lane's own process: a zero sleep stands in
        for a per-transaction process's bootstrap and its completion (the
        same draws), unless that event would fire next anyway
        (:meth:`~repro.sim.engine.Environment.fires_next`).
        """
        env = self.env
        interval = self._interval_ns
        # Split the per-worker count over its lanes (remainder to lane 0).
        base, extra = divmod(self.count_per_worker, self.window)
        quota = base + (1 if lane < extra else 0)
        measured_from = warmup // max(1, self.window)
        for i in range(quota):
            if interval is not None:
                # Claim the next pacing slot for the whole issuer group.
                # Pacing must never fall behind real time, or an idle period
                # would be followed by an artificial burst.
                now = env._now
                slot = self._next_issue_ns
                if now > slot:
                    slot = now
                self._next_issue_ns = slot + interval
                if slot > now:
                    yield slot - now
            txn = Transaction(
                self.op, self.size_bytes, src_core=worker_id, flow_id=worker_id
            )
            # Environment.fires_next, inlined here and below.
            if not env._sole or env._fifo:
                yield 0.0
            yield from self.executor.execute(txn, path)
            if not env._sole or env._fifo:
                yield 0.0
            if i >= measured_from:
                if self._measure_start_ns is None:
                    self._measure_start_ns = txn.issued_ns
                self._samples.append(txn.latency_ns)
                self._bytes_measured += txn.size_bytes
                self._measure_end_ns = env._now

    def start(self):
        """Start all workers; returns the event that fires when all finish.

        Use this to compose several issuers (e.g. a read stream and a write
        stream) in one environment, then ``env.run(env.all_of([...]))``.
        """
        return self.env.all_of(
            [self.env.process(self._worker(w)) for w in range(len(self.paths))]
        )

    def result(self) -> LoadResult:
        """Summarize after the simulation has run (see :meth:`start`)."""
        if not self._samples:
            raise ConfigurationError(
                "no samples collected (count too small for the warmup fraction?)"
            )
        start = self._measure_start_ns or 0.0
        elapsed = max(self._measure_end_ns - start, 1e-9)
        return LoadResult(
            stats=LatencyStats.from_samples(self._samples),
            offered_gbps=self.rate_gbps,
            achieved_gbps=self._bytes_measured / elapsed,
            elapsed_ns=elapsed,
        )

    def run(self) -> LoadResult:
        """Start all workers, run the DES to completion, summarize."""
        self.env.run(self.start())
        return self.result()


def lower_stream(
    env: Environment,
    executor: TransactionExecutor,
    resolver: PathResolver,
    spec: StreamSpec,
    window: int,
    count_per_worker: int,
    size_bytes: int = CACHELINE,
) -> ClosedLoopIssuer:
    """Lower one stream to an unstarted DES issuer, one worker per core.

    ``executor`` may be a gate that wraps one. Worker ``i`` runs on
    ``spec.core_ids[i]`` and targets ``endpoints[i % len(endpoints)]``,
    where ``endpoints`` is ``spec.endpoints``: UMC ids for a DRAM stream,
    CXL device ids for a CXL one. A stream on the default interleave must
    resolve it first (:meth:`FabricModel.endpoints_of
    <repro.core.fabric.FabricModel.endpoints_of>`). Its path carries
    ``spec.op``, ``spec.remote`` and ``size_bytes``; the group is paced
    at ``spec.demand_gbps`` (None: unpaced).

    This stripe is the DES's own. ``FabricModel.flows_for`` makes one
    fluid flow per CCX and splits it evenly over the endpoints. The two
    agree where each CCX's cores cover the endpoints evenly (on the EPYC
    7302 contention cell, one core of each CCX per shared UMC). On the EPYC
    9634 cell they differ: the DES puts the 7-core victim, and the hog,
    3/2/2 on ``umc0/4/8``; the fluid model gives each UMC a third.
    """
    endpoints = spec.endpoints
    if not endpoints:
        raise ConfigurationError(f"stream {spec.name}: no endpoints")
    paths = []
    for i, core_id in enumerate(spec.core_ids):
        endpoint = endpoints[i % len(endpoints)]
        if spec.target == "cxl":
            path = resolver.cxl_path(
                core_id, endpoint, op=spec.op, size_bytes=size_bytes
            )
        else:
            path = resolver.dram_path(
                core_id, endpoint, op=spec.op, size_bytes=size_bytes,
                remote=spec.remote,
            )
        paths.append(path)
    return ClosedLoopIssuer(
        env, executor, paths, spec.op, window, count_per_worker,
        rate_gbps=spec.demand_gbps, size_bytes=size_bytes,
    )

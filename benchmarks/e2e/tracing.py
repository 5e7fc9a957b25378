"""Per-layer tracing from the benchmark's side of the library's public seams.

A *seam* is one public function or method of a ``repro`` layer. While a
:class:`Tracer` is installed, each seam is replaced by a wrapper that either

* counts calls — the hot per-transaction seams, where a timed span per call
  would swamp what it measures; or
* records a span — name, layer, thread, start, end and the id of the
  enclosing span — for the coarse seams.

A wrapper is installed at the attribute each caller looks up: the class
attribute for methods, and for module functions every ``repro`` module that
holds the function, since ``from x import f`` binds the name in the
importer. Spans stay in memory and are written once, as Chrome/Perfetto
JSON, after the traced repeat.

A layer's busy time counts its outermost spans (nested spans of the same
layer are not counted twice); its self time subtracts every child span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple


def _shard_sync(outcome, counters: Dict[str, float]) -> None:
    sync = outcome.sync or {}
    counters["shard_windows"] += sync.get("windows", 0)
    counters["shard_messages"] += sync.get("cross_messages", 0)


def _recovery(point, counters: Dict[str, float]) -> None:
    counters["recovery_retries"] += point.retries
    counters["recovery_failovers"] += point.failovers
    counters["recovery_reclaimed"] += point.reclaimed


def _runner_outcomes(results, counters: Dict[str, float]) -> None:
    for result in results:
        counters["runner_failed"] += not result.ok
        counters["runner_retried"] += result.attempts > 1
        counters["runner_deduped"] += result.deduped


def _cache_get(result, counters: Dict[str, float]) -> None:
    counters["cache_hits"] += bool(result[0])


@dataclass(frozen=True)
class Seam:
    """One wrapped public seam: ``attr`` is ``func`` or ``Class.method``."""

    layer: str
    module: str
    attr: str
    count_only: bool = False
    #: Reads counts out of the seam's return value (hook(result, counters)).
    on_result: Optional[Callable[[Any, Dict[str, float]], None]] = None

    @property
    def name(self) -> str:
        return f"{self.module[len('repro.'):]}.{self.attr}"


SEAMS: Tuple[Seam, ...] = (
    Seam("platform", "repro.platform.presets", "epyc_7302"),
    Seam("platform", "repro.platform.presets", "epyc_9634"),
    Seam("platform", "repro.platform.generator", "TopologyGen.platform"),
    Seam("platform", "repro.platform.generator", "TopologyGen.materialize"),
    Seam("transport", "repro.transport.path", "PathResolver.dram_path"),
    Seam("transport", "repro.transport.path", "PathResolver.cxl_path"),
    Seam("transport", "repro.transport.transaction",
         "TransactionExecutor.execute", count_only=True),
    Seam("sim", "repro.sim.engine", "Environment.run"),
    Seam("sim", "repro.sim.sharded", "ShardedEnvironment.run"),
    Seam("sim", "repro.sim.batch", "simulate_closed_loops"),
    Seam("sim", "repro.sim.batch", "open_loop_departures"),
    Seam("net", "repro.net.inject", "CreditGate.execute", count_only=True),
    Seam("net", "repro.net.recovery", "RecoveryGate.execute", count_only=True),
    Seam("experiments", "repro.experiments.netstack", "run_point"),
    Seam("experiments", "repro.experiments.chaos", "run_recovery_point",
         on_result=_recovery),
    Seam("experiments", "repro.experiments.fig3", "run_panel"),
    Seam("experiments", "repro.experiments.kvserve", "run_point"),
    Seam("experiments", "repro.experiments.explore", "run_point"),
    Seam("core", "repro.core.shardexec", "run_cell", on_result=_shard_sync),
    Seam("core", "repro.core.loadgen", "poisson_arrivals"),
    Seam("core", "repro.core.loadgen", "onoff_arrivals"),
    Seam("core", "repro.core.loadgen", "diurnal_arrivals"),
    Seam("apps", "repro.apps.kvserve", "HybridKvServer.serve_tenants"),
    Seam("analysis", "repro.analysis.stats", "LatencyStats.from_sorted"),
    Seam("analysis", "repro.analysis.stats", "LatencyStats.merge"),
    # solve() dispatches to solve_vectorized(), which nothing calls directly.
    Seam("fluid", "repro.fluid.solver", "solve"),
    Seam("runner", "repro.runner", "run_cells_detailed",
         on_result=_runner_outcomes),
    Seam("runner", "repro.runner", "Cell.run"),
    Seam("cache", "repro.cache", "ResultCache.key_for"),
    Seam("cache", "repro.cache", "ResultCache.get", on_result=_cache_get),
    Seam("cache", "repro.cache", "ResultCache.put"),
    Seam("service", "repro.service.protocol", "dumps_line"),
    Seam("service", "repro.service.protocol", "loads_line"),
    Seam("service", "repro.service.protocol", "encode_value"),
    Seam("service", "repro.service.protocol", "decode_value"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(seam.layer for seam in SEAMS))

_COUNTERS = (
    "shard_windows", "shard_messages", "recovery_retries",
    "recovery_failovers", "recovery_reclaimed", "runner_failed",
    "runner_retried", "runner_deduped", "cache_hits",
)


class Tracer:
    """Installs the seam wrappers and holds what they record."""

    def __init__(self) -> None:
        #: (span id, parent id or 0, seam index, thread id, start ns, end ns)
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.calls = [0] * len(SEAMS)
        self.counters: Dict[str, float] = dict.fromkeys(_COUNTERS, 0)
        #: Names of benchmark-level spans (indices past the seam table).
        self.bench_names: List[str] = []
        self._rows: Optional[list] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.origin_ns = time.perf_counter_ns()

    # ------------------------------------------------------------ wrappers

    def _count_wrapper(self, index: int, fn: Callable) -> Callable:
        calls = self.calls
        lock = self._lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                calls[index] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, index: int, fn: Callable) -> Callable:
        local = self._local
        spans = self.spans
        ids = self._ids
        hook = SEAMS[index].on_result
        counters = self.counters
        lock = self._lock

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1][1] == index:
                # Direct recursion (e.g. the value codec) is one call.
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, index))
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append(
                    (span_id, parent, index, threading.get_ident(), start, end)
                )
            if hook is not None:
                with lock:
                    hook(result, counters)
            return result

        return spanned

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-level root span (set-up, repeat) on this thread.

        Seam spans recorded inside it on this thread become its children.
        """
        if name not in self.bench_names:
            self.bench_names.append(name)
        index = len(SEAMS) + self.bench_names.index(name)
        span_id = next(self._ids)
        start = time.perf_counter_ns()
        self._local.stack = [(span_id, index)]
        try:
            yield
        finally:
            self._local.stack = []
            self.spans.append((
                span_id, 0, index, threading.get_ident(), start,
                time.perf_counter_ns(),
            ))

    # --------------------------------------------------------- install/undo

    def install(self) -> "Tracer":
        """Wrap every seam; :meth:`uninstall` restores the originals."""
        for index, seam in enumerate(SEAMS):
            module = importlib.import_module(seam.module)
            owner_name, _, attr = seam.attr.rpartition(".")
            wrap = self._count_wrapper if seam.count_only else self._span_wrapper
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, (classmethod, staticmethod)):
                    wrapped = type(original)(wrap(index, original.__func__))
                else:
                    wrapped = wrap(index, original)
                self._patch(owner, attr, wrapped)
                continue
            original = getattr(module, attr)
            wrapped = wrap(index, original)
            for holder in list(sys.modules.values()):
                if not getattr(holder, "__name__", "").startswith("repro"):
                    continue
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, name, wrapped)
        return self

    def _patch(self, owner: Any, attr: str, wrapped: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- analysis

    def _span_rows(self):
        """Per-span (seam index, duration ns, self ns, ancestor seams).

        Computed once, on the first summary; read it after recording ends.
        """
        if self._rows is not None:
            return self._rows
        by_id = {span[0]: span for span in self.spans}
        child_ns: Dict[int, int] = {}
        for span_id, parent, _, _, start, end in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + end - start
        rows = []
        for span_id, parent, index, _, start, end in self.spans:
            ancestors = []
            while parent:
                ancestor = by_id.get(parent)
                if ancestor is None:
                    break
                ancestors.append(ancestor[2])
                parent = ancestor[1]
            duration = end - start
            rows.append(
                (index, duration, duration - child_ns.get(span_id, 0), ancestors)
            )
        self._rows = rows
        return rows

    def summarize(self, seams: Iterable[int]):
        """(calls, busy s, self s) over a set of seam indices.

        Calls and busy time count only spans with no ancestor in the set,
        plus calls of count-only seams; self time sums every span's own.
        """
        chosen = set(seams)
        calls = sum(self.calls[index] for index in chosen)
        busy = own = 0
        for index, duration, self_ns, ancestors in self._span_rows():
            if index not in chosen:
                continue
            own += self_ns
            if not chosen.intersection(ancestors):
                calls += 1
                busy += duration
        return calls, busy / 1e9, own / 1e9

    def table(self) -> str:
        """Per-layer and per-seam calls / busy / self, as aligned text."""
        lines = [f"{'layer / seam':<58} {'calls':>9} {'busy s':>10} {'self s':>10}"]
        for layer in LAYERS:
            members = [i for i, seam in enumerate(SEAMS) if seam.layer == layer]
            calls, busy, own = self.summarize(members)
            lines.append(f"{layer:<58} {calls:>9} {busy:>10.4f} {own:>10.4f}")
            for index in members:
                calls, busy, own = self.summarize([index])
                if calls:
                    lines.append(
                        f"  {SEAMS[index].name:<56} {calls:>9} "
                        f"{busy:>10.4f} {own:>10.4f}"
                    )
        return "\n".join(lines)

    def write_chrome(self, path: os.PathLike, process_name: str) -> None:
        """Write the spans as one Chrome/Perfetto trace JSON file."""
        pid = os.getpid()
        threads: Dict[int, int] = {}
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": process_name},
        }]
        for span_id, parent, index, thread, start, end in self.spans:
            tid = threads.setdefault(thread, len(threads) + 1)
            if index < len(SEAMS):
                name, layer = SEAMS[index].name, SEAMS[index].layer
            else:
                name, layer = self.bench_names[index - len(SEAMS)], "bench"
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": pid, "tid": tid,
                "ts": (start - self.origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": span_id, "parent": parent},
            })
        counts = {
            SEAMS[index].name: count
            for index, count in enumerate(self.calls)
            if SEAMS[index].count_only
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"counts": counts, "counters": self.counters},
            }, handle)


def _indices(*names: str) -> List[int]:
    wanted = set(names)
    found = [i for i, seam in enumerate(SEAMS) if seam.name in wanted]
    if len(found) != len(wanted):
        raise KeyError(f"unknown seams in {sorted(wanted)}")
    return found


def _layer(layer: str) -> List[int]:
    return [i for i, seam in enumerate(SEAMS) if seam.layer == layer]


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics the traced repeat measured (see README.md)."""
    metrics: Dict[str, float] = {}
    counters = tracer.counters

    def calls(seams):
        return tracer.summarize(seams)[0]

    def busy(seams):
        return tracer.summarize(seams)[1]

    def own(seams):
        return tracer.summarize(seams)[2]

    paths = _indices(
        "transport.path.PathResolver.dram_path",
        "transport.path.PathResolver.cxl_path",
    )
    metrics["platform.materialize_s"] = busy(_layer("platform"))
    metrics["transport.path_compile_calls"] = calls(paths)
    metrics["transport.path_compile_s"] = busy(paths)
    txns = calls(_indices("transport.transaction.TransactionExecutor.execute"))
    metrics["transport.txns"] = txns
    des_run = busy(_indices("sim.engine.Environment.run"))
    metrics["sim.des_run_s"] = des_run
    metrics["sim.des_us_per_txn"] = des_run / txns * 1e6 if txns else 0.0
    metrics["sim.batch_closed_s"] = busy(_indices("sim.batch.simulate_closed_loops"))
    metrics["sim.batch_open_s"] = busy(_indices("sim.batch.open_loop_departures"))
    metrics["sim.shard_windows"] = counters["shard_windows"]
    metrics["sim.shard_messages"] = counters["shard_messages"]
    metrics["net.gate_calls"] = calls(_layer("net"))
    metrics["net.recovery_retries"] = counters["recovery_retries"]
    metrics["net.recovery_failovers"] = counters["recovery_failovers"]
    metrics["net.recovery_reclaimed"] = counters["recovery_reclaimed"]
    metrics["experiments.cell_self_s"] = own(_layer("experiments"))
    metrics["core.shardexec_self_s"] = own(_indices("core.shardexec.run_cell"))
    metrics["core.arrivals_s"] = busy(_indices(
        "core.loadgen.poisson_arrivals",
        "core.loadgen.onoff_arrivals",
        "core.loadgen.diurnal_arrivals",
    ))
    metrics["apps.serve_self_s"] = own(_layer("apps"))
    metrics["analysis.stats_s"] = busy(_layer("analysis"))
    metrics["fluid.solve_calls"] = calls(_layer("fluid"))
    metrics["fluid.solve_s"] = busy(_layer("fluid"))
    cell_run = _indices("runner.Cell.run")
    metrics["runner.cells"] = calls(cell_run)
    metrics["runner.cell_s"] = busy(cell_run)
    metrics["runner.self_s"] = own(_indices("runner.run_cells_detailed"))
    metrics["runner.failed"] = counters["runner_failed"]
    metrics["runner.retried"] = counters["runner_retried"]
    metrics["runner.deduped"] = counters["runner_deduped"]
    key, get, put = (
        _indices(f"cache.ResultCache.{method}")
        for method in ("key_for", "get", "put")
    )
    metrics["cache.key_s"] = busy(key)
    gets = calls(get)
    metrics["cache.get_calls"] = gets
    metrics["cache.get_s"] = busy(get)
    metrics["cache.put_calls"] = calls(put)
    metrics["cache.put_s"] = busy(put)
    metrics["cache.hit_ratio"] = counters["cache_hits"] / gets if gets else 0.0
    metrics["service.frame_calls"] = calls(_layer("service"))
    metrics["service.frame_s"] = busy(_layer("service"))
    return metrics


def layer_calls(tracer: Tracer, layer: str) -> int:
    """Calls into one layer during the traced repeat."""
    return tracer.summarize(_layer(layer))[0]

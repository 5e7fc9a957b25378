"""Deterministic, fault-tolerant fan-out of independent experiment cells.

Every paper artifact decomposes into *cells* — independent
(platform × panel × op × load-point) work items that each build their own
:class:`~repro.sim.engine.Environment` and draw from their own
:class:`~repro.sim.rng.SplitRng` streams. Nothing is shared between cells,
so they can run in separate worker processes and still produce bit-identical
results; this module is the fan-out layer that does exactly that.

Determinism contract
--------------------

:func:`run_cells` returns results **in submission order**, regardless of
which worker finished first, and each cell's result depends only on its own
arguments (the seed tree, not wall-clock or scheduling). Consequently::

    run_cells(cells, jobs=1) == run_cells(cells, jobs=4)

holds bit-for-bit — ``--jobs`` trades wall-clock for CPU without touching a
single rendered byte. ``tests/test_runner.py`` asserts this for the Figure 3
and Table 2 pipelines. Hardening never bends the contract: retries re-run
the same pure cell, and crash recovery re-runs cells in-process with the
same arguments, so every *successful* cell's value is identical to what a
clean ``jobs=1`` run would have produced.

Hardening
---------

:func:`run_cells_detailed` is the structured core: it returns one
:class:`CellResult` per cell (value or :class:`CellFailure`, with attempt
count and duration) instead of raising mid-flight, and layers on

* **per-cell timeouts** (``timeout_s``) — a cell whose result does not
  arrive in time is recorded as a timeout failure instead of hanging the
  whole sweep, and the worker still running it is killed when the batch
  ends (pool mode only: in-process execution cannot be preempted);
* **bounded retry with backoff** (``retries``, ``backoff_s``) — failed
  cells are re-submitted to a fresh pool, with exponentially growing
  sleeps between attempts;
* **crash recovery** — a worker death (``BrokenProcessPool``) poisons every
  uncollected future, so the still-unresolved cells are re-run *in-process*,
  exactly as ``jobs=1`` would have run them;
* **fail-fast / keep-going** — ``fail_fast=True`` raises
  :class:`~repro.errors.CellExecutionError` at the first unrecoverable
  failure; the default collects every failure and lets the caller decide.

:func:`run_cells` keeps the original simple surface: values only, first
cell failure re-raised as-is. :func:`run_groups` runs several cell lists
(say, one per platform of an artifact) as one batch.

Job-count resolution
--------------------

``jobs`` may be an ``int``, the string ``"auto"`` (one worker per CPU), or
``None`` (read the ``REPRO_JOBS`` environment variable, falling back to
``auto``). ``jobs=1`` bypasses multiprocessing entirely and runs in-process;
so do cell lists whose functions or arguments cannot be pickled (e.g. ad-hoc
platforms built from closures), which keeps the API safe to call from
anywhere.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cache import ResultCache, cell_key, default_cache
from repro.errors import CellExecutionError, ConfigurationError

__all__ = [
    "Cell",
    "CellFailure",
    "CellResult",
    "resolve_jobs",
    "run_cells",
    "run_cells_detailed",
    "run_groups",
    "values_of",
]

#: Environment variable consulted when ``jobs`` is None.
JOBS_ENV_VAR = "REPRO_JOBS"

JobsSpec = Union[int, str, None]

#: Sentinel: "use :func:`repro.cache.default_cache`" (distinct from None,
#: which means "definitely no caching").
USE_DEFAULT_CACHE = object()

#: Spinning up a process pool costs tens of milliseconds (fork + import +
#: pickling); sweeps cheaper than this run serially instead (see
#: ``pool_threshold_s``).
POOL_THRESHOLD_S = 0.05


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``fn`` must be a module-level callable (picklable) for the cell to be
    eligible for process fan-out; anything else silently degrades to the
    in-process path.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        """Execute the cell in the current process."""
        return self.fn(*self.args, **self.kwargs)


@dataclass(frozen=True)
class CellFailure:
    """Why one cell ultimately failed.

    ``kind`` is ``"error"`` (the cell raised), ``"timeout"`` (its result
    missed the per-cell deadline), ``"crash"`` (its worker process died),
    or ``"cancelled"`` (the caller's cancel event was set before the cell
    started — cancellation never interrupts a cell mid-flight, and every
    cancelled cell is reported, never silently dropped).
    ``error`` is the final underlying exception.
    """

    index: int
    kind: str
    error: BaseException
    attempts: int

    _KINDS = ("error", "timeout", "crash", "cancelled")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigurationError(
                f"failure kind must be one of {self._KINDS}, got {self.kind!r}"
            )

    def as_exception(self) -> CellExecutionError:
        """Wrap as a raisable error carrying the cell context."""
        return CellExecutionError(
            f"cell {self.index} failed ({self.kind}) after "
            f"{self.attempts} attempt(s): {self.error!r}",
            cell_index=self.index,
            attempts=self.attempts,
            cause=self.error,
        )


@dataclass(frozen=True)
class CellResult:
    """Structured outcome of one cell: a value or a failure, never both.

    ``cached=True`` marks a value served from the result cache without
    executing the cell (``attempts`` is 0 in that case). ``deduped=True``
    marks a cell that was content-identical to an earlier cell in the same
    batch and received a fan-out copy of that cell's outcome instead of
    executing (``attempts`` is 0 there too).
    """

    index: int
    value: Any = None
    failure: Optional[CellFailure] = None
    attempts: int = 1
    duration_s: float = 0.0
    cached: bool = False
    deduped: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


def resolve_jobs(jobs: JobsSpec = None) -> int:
    """Resolve a ``--jobs`` value to a concrete worker count (>= 1)."""
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV_VAR, "auto")
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            jobs = int(text)
        except ValueError:
            raise ConfigurationError(
                f"jobs must be a positive integer or 'auto', got {jobs!r}"
            ) from None
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return int(jobs)


def _picklable(cells: Sequence[Cell]) -> bool:
    try:
        pickle.dumps([(cell.fn, cell.args, cell.kwargs) for cell in cells])
        return True
    except Exception:
        return False


# ---------------------------------------------------------------- execution


def _cancelled_result(index: int, attempt: int) -> CellResult:
    """A structured "cancelled before execution" outcome for one cell."""
    error = CellExecutionError(
        f"cell {index} cancelled before execution",
        cell_index=index,
        attempts=attempt,
    )
    return CellResult(
        index,
        failure=CellFailure(index, "cancelled", error, attempt),
        attempts=attempt,
    )


def _run_in_process(cell: Cell, index: int, attempt: int) -> CellResult:
    """Run one cell here; exceptions become structured failures."""
    started = time.perf_counter()
    try:
        value = cell.run()
    except Exception as exc:
        return CellResult(
            index,
            failure=CellFailure(index, "error", exc, attempt),
            attempts=attempt,
            duration_s=time.perf_counter() - started,
        )
    return CellResult(
        index, value=value, attempts=attempt,
        duration_s=time.perf_counter() - started,
    )


def _run_batch_pooled(
    cells: Sequence[Cell],
    indices: Sequence[int],
    workers: int,
    timeout_s: Optional[float],
    attempt: int,
    cancel: Optional[threading.Event] = None,
) -> Optional[Dict[int, CellResult]]:
    """Run ``indices`` in one worker pool; None if no pool can be created.

    The pool is created fresh per attempt, so a retry after a crash or a
    poisoned interpreter state starts clean. Results are collected in
    submission order; a ``BrokenProcessPool`` on any future switches the
    remaining cells to in-process execution (only the unresolved cells are
    re-run), which preserves every surviving cell's value exactly as
    ``jobs=1`` would compute it. A worker still running a timed-out cell
    once every result is collected is killed, not waited for.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(indices)))
    except (OSError, PermissionError):
        # Sandboxed or fork-restricted environments: no pool at all. This —
        # and only this — is the graceful-degradation case; errors raised
        # *inside* a cell must never trigger it.
        return None
    outcomes: Dict[int, CellResult] = {}
    broken = False
    timed_out: List[int] = []
    futures: Dict[int, Any] = {}
    try:
        for index in indices:
            try:
                futures[index] = pool.submit(
                    cells[index].fn, *cells[index].args, **cells[index].kwargs
                )
            except BrokenProcessPool:
                # A worker died while the batch was still being submitted;
                # the cells not submitted run in-process below.
                break
        for index in indices:
            if index not in futures:
                broken = True
            cancelled = cancel is not None and cancel.is_set()
            if cancelled and not broken and futures[index].cancel():
                # Not yet started in a worker: report it cancelled instead
                # of waiting for a result that will never be wanted.
                outcomes[index] = _cancelled_result(index, attempt)
                continue
            if broken:
                if cancelled:
                    outcomes[index] = _cancelled_result(index, attempt)
                else:
                    outcomes[index] = _run_in_process(
                        cells[index], index, attempt
                    )
                continue
            started = time.perf_counter()
            try:
                value = futures[index].result(timeout=timeout_s)
            except BrokenProcessPool:
                # The worker died (OOM kill, segfault, os._exit). Everything
                # not yet collected is poisoned; fall back to in-process for
                # this cell and the rest of the batch. If the re-run fails
                # too, report it as a crash — the worker death is the context
                # that matters for this cell.
                broken = True
                rerun = _run_in_process(cells[index], index, attempt)
                if not rerun.ok:
                    rerun = CellResult(
                        index,
                        failure=CellFailure(
                            index, "crash", rerun.failure.error, attempt
                        ),
                        attempts=attempt,
                        duration_s=rerun.duration_s,
                    )
                outcomes[index] = rerun
            except _FuturesTimeout:
                futures[index].cancel()
                timed_out.append(index)
                error = CellExecutionError(
                    f"cell {index} produced no result within {timeout_s}s",
                    cell_index=index,
                    attempts=attempt,
                )
                outcomes[index] = CellResult(
                    index,
                    failure=CellFailure(index, "timeout", error, attempt),
                    attempts=attempt,
                    duration_s=time.perf_counter() - started,
                )
            except Exception as exc:
                # The cell itself raised inside the worker.
                outcomes[index] = CellResult(
                    index,
                    failure=CellFailure(index, "error", exc, attempt),
                    attempts=attempt,
                    duration_s=time.perf_counter() - started,
                )
            else:
                outcomes[index] = CellResult(
                    index, value=value, attempts=attempt,
                    duration_s=time.perf_counter() - started,
                )
    finally:
        if not broken and any(not futures[i].done() for i in timed_out):
            # shutdown(wait=True) would block until the timed-out cell ends.
            # Every other cell's result is in, so the only busy workers are
            # running timed-out cells and the idle ones are about to exit:
            # kill them all (the executor has no public call for this). Shut
            # down first, so the executor drops cancelled work before it
            # notices the dead workers.
            workers = list((pool._processes or {}).values())
            pool.shutdown(wait=False, cancel_futures=True)
            for worker in workers:
                worker.kill()
                worker.join()
        else:
            pool.shutdown(wait=not broken, cancel_futures=True)
    return outcomes


def run_cells_detailed(
    cells: Iterable[Cell],
    jobs: JobsSpec = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.25,
    fail_fast: bool = False,
    cache: Any = USE_DEFAULT_CACHE,
    pool_threshold_s: float = POOL_THRESHOLD_S,
    on_result: Optional[Callable[[CellResult], None]] = None,
    cancel: Optional[threading.Event] = None,
    dedup: bool = True,
) -> List[CellResult]:
    """Run every cell; one :class:`CellResult` per cell, submission order.

    ``timeout_s`` bounds the wait for each cell's result (pool mode only;
    the worker of a cell still running at the end of the batch is killed);
    ``retries`` re-runs failed cells up to that many extra attempts, sleeping
    ``backoff_s * 2**(attempt-1)`` seconds before each retry; ``fail_fast``
    raises :class:`~repro.errors.CellExecutionError` for the first cell whose
    attempts are exhausted instead of collecting the failure.

    ``cache`` is a :class:`~repro.cache.ResultCache` (or None to disable);
    by default the process-wide :func:`~repro.cache.default_cache` is used,
    which is itself None unless the CLI (or ``REPRO_CACHE``) enabled it.
    Hits skip execution entirely; every successfully executed cacheable
    cell is stored afterwards. Because cells are pure functions of their
    arguments, hits are values a clean run would have computed — cached,
    uncached, and any ``--jobs`` runs stay bit-identical.

    ``dedup`` (default on) collapses content-identical cells *within* the
    batch to a single execution: duplicates receive a fan-out copy of the
    primary's outcome (``deduped=True``, 0 attempts). Identity is the same
    content address the cache uses, so it holds with caching off and for
    duplicates submitted before the first one lands; cells are pure, so
    values are unchanged — only the redundant work disappears.

    ``on_result`` streams outcomes: it is invoked once per cell with that
    cell's *final* :class:`CellResult` as soon as it is known (cache hits
    first, then executed cells as they resolve, then fan-out duplicates) —
    the seam the simulation service's async bridge consumes. Callbacks run
    on the calling thread and arrive in completion order, not submission
    order; the returned list is always submission-ordered regardless.

    ``cancel`` is a :class:`threading.Event`: once set, cells that have not
    started are resolved as ``"cancelled"`` failures (in-flight cells finish
    normally, and nothing is retried after cancellation). Every cell still
    gets exactly one result — cancellation reports, it never drops.

    ``pool_threshold_s`` guards against pool spin-up dwarfing the work
    (tens of ms of fork + import for a sweep of sub-millisecond cells):
    cells run in-process until their *accumulated measured* runtime crosses
    the threshold, and only the remainder is fanned out to a pool. Tiny
    sweeps therefore never pay for a pool; the worst case versus eager
    pooling is bounded by the threshold plus one cell. Set it to 0 to pool
    unconditionally; per-cell timeouts (which need a pool to preempt) also
    disable the ramp.
    """
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(f"timeout_s must be positive, got {timeout_s}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if backoff_s < 0:
        raise ConfigurationError(f"backoff_s must be >= 0, got {backoff_s}")
    if pool_threshold_s < 0:
        raise ConfigurationError(
            f"pool_threshold_s must be >= 0, got {pool_threshold_s}"
        )
    cells = list(cells)
    if not cells:
        return []
    cache_obj: Optional[ResultCache] = (
        default_cache() if cache is USE_DEFAULT_CACHE else cache
    )
    results: Dict[int, CellResult] = {}
    emitted: set = set()

    def emit(index: int) -> None:
        if on_result is not None and index not in emitted:
            emitted.add(index)
            on_result(results[index])

    keys: List[Optional[str]] = [None] * len(cells)
    if cache_obj is not None:
        for index, cell in enumerate(cells):
            key = cache_obj.key_for(cell.fn, cell.args, cell.kwargs)
            keys[index] = key
            if key is None:
                continue
            hit, value = cache_obj.get(key)
            if hit:
                results[index] = CellResult(
                    index, value=value, attempts=0, cached=True
                )
                emit(index)
    pending = [index for index in range(len(cells)) if index not in results]
    # In-batch dedup: identical pending cells collapse to one execution.
    duplicates: Dict[int, List[int]] = {}
    if dedup and len(pending) > 1:
        primary_by_key: Dict[str, int] = {}
        unique: List[int] = []
        for index in pending:
            key = keys[index] if cache_obj is not None else cell_key(
                cells[index].fn, cells[index].args, cells[index].kwargs
            )
            if key is None:
                unique.append(index)
                continue
            primary = primary_by_key.setdefault(key, index)
            if primary == index:
                unique.append(index)
            else:
                duplicates.setdefault(primary, []).append(index)
        pending = unique
    workers = min(resolve_jobs(jobs), len(cells))
    pooled = workers > 1 and pending and _picklable(
        [cells[index] for index in pending]
    )
    for attempt in range(1, retries + 2):
        if not pending:
            break
        if cancel is not None and cancel.is_set():
            for index in pending:
                results[index] = _cancelled_result(index, attempt)
                emit(index)
            pending = []
            break
        if attempt > 1 and backoff_s > 0:
            time.sleep(backoff_s * 2 ** (attempt - 2))

        def settle(index: int, result: CellResult) -> None:
            # Record one attempt's outcome and stream it if it is final:
            # successes and cancellations are always final; failures only
            # once no retries remain.
            results[index] = result
            if result.ok or result.failure.kind == "cancelled":
                emit(index)
            elif attempt == retries + 1:
                emit(index)

        remaining = list(pending)
        if (
            pooled
            and attempt == 1
            and timeout_s is None
            and pool_threshold_s > 0
        ):
            # Serial ramp: see the docstring. Measured, not guessed — the
            # first cells' actual cost decides whether a pool is worth it.
            ramp_started = time.perf_counter()
            while remaining and (
                time.perf_counter() - ramp_started < pool_threshold_s
            ):
                if cancel is not None and cancel.is_set():
                    break
                index = remaining.pop(0)
                settle(index, _run_in_process(cells[index], index, attempt))
            if not remaining:
                pooled = False
        if remaining and pooled:
            pool_batch = _run_batch_pooled(
                cells, remaining, workers, timeout_s, attempt, cancel
            )
            if pool_batch is None:
                pooled = False
            else:
                for index in remaining:
                    settle(index, pool_batch[index])
                remaining = []
        for index in remaining:
            if cancel is not None and cancel.is_set():
                settle(index, _cancelled_result(index, attempt))
            else:
                settle(index, _run_in_process(cells[index], index, attempt))
        final = attempt == retries + 1
        still_failed = [
            i for i in pending
            if not results[i].ok and results[i].failure.kind != "cancelled"
        ]
        if fail_fast and final and still_failed:
            raise results[still_failed[0]].failure.as_exception()
        pending = still_failed
    # Fan duplicate outcomes out from their primaries (value *or* failure:
    # a duplicate of a failed cell reports the same failure at its index).
    for primary, dup_indices in duplicates.items():
        source = results[primary]
        for index in dup_indices:
            failure = source.failure
            if failure is not None:
                failure = replace(failure, index=index)
            results[index] = CellResult(
                index,
                value=source.value,
                failure=failure,
                attempts=0,
                cached=source.cached,
                deduped=True,
            )
            emit(index)
    if cache_obj is not None:
        for index, key in enumerate(keys):
            if key is None:
                continue
            result = results[index]
            if result.ok and not result.cached and not result.deduped:
                cache_obj.put(key, result.value)
    return [results[index] for index in range(len(cells))]


def run_cells(
    cells: Iterable[Cell],
    jobs: JobsSpec = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.25,
    cache: Any = USE_DEFAULT_CACHE,
    pool_threshold_s: float = POOL_THRESHOLD_S,
) -> List[Any]:
    """Run every cell; results come back in submission order.

    With ``jobs > 1`` the cells execute in worker processes
    (``ProcessPoolExecutor``); exceptions raised inside a cell propagate to
    the caller either way (after ``retries`` extra attempts, if configured).
    Worker crashes are recovered transparently by re-running the affected
    cells in-process; timeouts surface as
    :class:`~repro.errors.CellExecutionError`.
    """
    return values_of(run_cells_detailed(
        cells, jobs=jobs, timeout_s=timeout_s, retries=retries,
        backoff_s=backoff_s, fail_fast=False, cache=cache,
        pool_threshold_s=pool_threshold_s,
    ))


def values_of(results: Iterable[CellResult]) -> List[Any]:
    """Every result's value, in order; the first failure's error is raised."""
    values = []
    for result in results:
        if not result.ok:
            raise result.failure.error
        values.append(result.value)
    return values


def run_groups(
    groups: Iterable[Iterable[Cell]], **kwargs: Any
) -> List[List[CellResult]]:
    """Run several cell lists as one :func:`run_cells_detailed` batch.

    One batch means one dedup and cache pass over every cell and one pool
    for all of them. Results come back per list, each list indexed from 0,
    exactly as if it had run alone. ``kwargs`` go to
    :func:`run_cells_detailed`.
    """
    groups = [list(group) for group in groups]
    batch = run_cells_detailed(
        [cell for group in groups for cell in group], **kwargs
    )
    split: List[List[CellResult]] = []
    start = 0
    for group in groups:
        split.append([
            replace(
                result,
                index=index,
                failure=None if result.failure is None
                else replace(result.failure, index=index),
            )
            for index, result in enumerate(batch[start:start + len(group)])
        ])
        start += len(group)
    return split

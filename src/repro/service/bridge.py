"""Async bridge: stream a blocking runner batch onto the event loop.

:func:`repro.runner.run_cells_detailed` is synchronous — it blocks on
worker pools, timeouts, and retries. The service must keep its event loop
responsive (accepting submissions, answering ``jobs``, honouring
cancellation) while a batch runs, so the batch executes on a worker
thread and every *final* per-cell result hops back onto the loop through
``loop.call_soon_threadsafe`` as it lands. Cancellation crosses the other
way as a plain :class:`threading.Event` the runner polls between cells
and attempts.

Pool crashes need no special path here: the hardened runner recovers
``BrokenProcessPool`` in-process and surfaces the damage as per-cell
``crash`` failures, which stream like any other cell event.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Dict, List, Optional

from repro.runner import CellResult, USE_DEFAULT_CACHE

__all__ = ["run_cells_streamed", "run_spec_streamed"]


async def run_cells_streamed(
    cells: Any,
    *,
    executor: Any = None,
    on_result: Optional[Callable[[CellResult], None]] = None,
    **runner_kwargs: Any,
) -> List[CellResult]:
    """Run arbitrary cells off-loop, streaming each final result.

    The generic sibling of :func:`run_spec_streamed` (no spec):
    ``runner_kwargs`` pass straight to
    :func:`repro.runner.run_cells_detailed`, so tests can force pooling
    (``pool_threshold_s=0``), inject crash cells, or set ``cancel`` and
    observe exactly what the service's executor would see.
    """
    from repro.runner import run_cells_detailed

    loop = asyncio.get_running_loop()

    def emit(result: CellResult) -> None:
        if on_result is not None:
            loop.call_soon_threadsafe(on_result, result)

    def blocking() -> List[CellResult]:
        return run_cells_detailed(cells, on_result=emit, **runner_kwargs)

    return await loop.run_in_executor(executor, blocking)


async def run_spec_streamed(
    spec: Dict[str, Any],
    *,
    jobs: Any = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    cache: Any = USE_DEFAULT_CACHE,
    cancel: Optional[threading.Event] = None,
    on_result: Optional[Callable[[CellResult], None]] = None,
    executor: Any = None,
) -> List[CellResult]:
    """Run one normalized spec off-loop, streaming each final cell result.

    ``on_result`` is invoked *on the event loop* (via
    ``call_soon_threadsafe``) once per cell, in completion order, with the
    cell's final :class:`CellResult` — cache hits first, then settled
    executions. Returns the full ordered result list, exactly as
    :func:`repro.service.registry.run_local` would.

    ``executor`` defaults to the loop's default thread pool; the server
    passes a single-thread executor, so its jobs run one at a time.
    """
    from repro.service.registry import run_local

    loop = asyncio.get_running_loop()

    def emit(result: CellResult) -> None:
        if on_result is not None:
            loop.call_soon_threadsafe(on_result, result)

    def blocking() -> List[CellResult]:
        return run_local(
            spec,
            jobs=jobs,
            timeout_s=timeout_s,
            retries=retries,
            cache=cache,
            on_result=emit,
            cancel=cancel,
        )

    return await loop.run_in_executor(executor, blocking)

"""Async bridge: stream a blocking runner batch onto the event loop.

:func:`repro.runner.run_cells_detailed` is synchronous — it blocks on
worker pools, timeouts, and retries. The service must keep its event loop
responsive (accepting submissions, answering ``jobs``, honouring
cancellation) while a batch runs, so :func:`run_cells_streamed` executes
the batch on a worker thread and every *final* per-cell result hops back
onto the loop through ``loop.call_soon_threadsafe`` as it lands. The
server hands it only the cells admission could not answer: it builds a
job's cells once, at submit, reads the cached ones there on the loop, and
runs the rest through here, where the runner keys, dedups and stores
them. A fully cached job never gets here. Cancellation crosses the other
way as a plain :class:`threading.Event` the runner polls between cells
and attempts.

Pool crashes need no special path here: the hardened runner recovers
``BrokenProcessPool`` in-process and surfaces the damage as per-cell
``crash`` failures, which stream like any other cell event.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, List, Optional

from repro.runner import CellResult

__all__ = ["run_cells_streamed"]


async def run_cells_streamed(
    cells: Any,
    *,
    executor: Any = None,
    on_result: Optional[Callable[[CellResult], None]] = None,
    **runner_kwargs: Any,
) -> List[CellResult]:
    """Run cells off-loop, streaming each final cell result.

    ``on_result`` is invoked *on the event loop* (via
    ``call_soon_threadsafe``) once per cell, in completion order, with the
    cell's final :class:`CellResult` — cache hits first, then settled
    executions. Result indices are positions in ``cells``. Returns the
    full submission-ordered result list.

    ``runner_kwargs`` pass straight to
    :func:`repro.runner.run_cells_detailed` (``jobs``, ``cache``,
    ``cancel``, ...), so tests can force pooling (``pool_threshold_s=0``),
    inject crash cells, or set ``cancel`` and observe exactly what the
    service's executor sees. ``executor`` defaults to the loop's default
    thread pool; the server passes a single-thread executor, so its jobs
    run one at a time.
    """
    from repro.runner import run_cells_detailed

    loop = asyncio.get_running_loop()

    def emit(result: CellResult) -> None:
        if on_result is not None:
            loop.call_soon_threadsafe(on_result, result)

    def blocking() -> List[CellResult]:
        return run_cells_detailed(cells, on_result=emit, **runner_kwargs)

    return await loop.run_in_executor(executor, blocking)

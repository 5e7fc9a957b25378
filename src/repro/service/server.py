"""The asyncio daemon behind ``repro serve``.

One :class:`ReproService` owns:

* a Unix-socket listener speaking the NDJSON protocol
  (:mod:`repro.service.protocol`), one reader task and one writer task
  per connection (a per-connection outbound queue, so a slow subscriber
  never blocks the dispatcher or other clients);
* admission on the event loop: each cell of a submitted job is keyed
  once and probed against the shared warm
  :class:`repro.cache.ResultCache`; the probed hits are read and streamed
  as ``cached`` cells right after ``accepted``, and a job with nothing
  left to run gets its ``done`` there and then;
* the admission queue (:class:`repro.service.scheduler.JobScheduler`) for
  jobs with cells left to run — priority + per-client fairness + bounded
  depth with structured ``queue-full`` rejection, checked before any
  read or event;
* a single-thread executor the dispatcher feeds one job at a time.
  Parallelism lives *inside* a batch (the runner's ``--jobs`` fan-out),
  not across batches;
* per-job hit/miss deltas persisted via
  :meth:`~repro.cache.ResultCache.record_run`, and trace recordings
  exported once per content key (:class:`repro.service.store.JobStore`).

Every event a job produces carries no wall-clock and no scheduling
artifacts beyond arrival order — the client reorders cells by index and
renders locally, which is what makes served output byte-identical to the
in-process fallback.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import threading
import time
from typing import Any, Dict, List, Optional, Set

from repro.cache import cell_key
from repro.errors import ConfigurationError, ProtocolError, ServiceError
from repro.runner import Cell, CellResult, USE_DEFAULT_CACHE
from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    dumps_line,
    encode_failure,
    encode_value,
    error_event,
    loads_line,
    resolve_socket_path,
)
from repro.service.scheduler import (
    DEFAULT_MAX_DEPTH,
    JobScheduler,
    QueuedJob,
    QueueFull,
)
from repro.service.store import JobRecord, JobStore

__all__ = ["ReproService", "ServiceThread", "resolve_socket_path"]


class _Connection:
    """One client connection: identity, its stream pair, its handler task
    and its writer queue."""

    _counter = 0

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        _Connection._counter += 1
        self.name = f"conn-{_Connection._counter}"
        self.reader = reader
        self.writer = writer
        #: The task running :meth:`ReproService._handle_connection`.
        self.handler = asyncio.current_task()
        self.outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self.closed = False

    def send(self, frame: Dict[str, Any]) -> None:
        if not self.closed:
            self.outbox.put_nowait(dumps_line(frame))


class _JobWork:
    """A job's in-flight state, held by its :class:`QueuedJob` only.

    The subscriber, every cell's content key, and the cells admission
    left to run with their indices in the job. The job's record never
    holds it, so it is dropped once the job ends.
    """

    def __init__(
        self, subscriber: _Connection, keys: List[Optional[str]]
    ) -> None:
        self.subscriber = subscriber
        self.keys = keys
        self.cells: List[Cell] = []
        self.indices: List[int] = []
        self.counters = {"completed": 0, "hits": 0, "misses": 0,
                         "deduped": 0, "failures": 0}


class ReproService:
    """The job server (construct, then ``await start()``; see module doc)."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        max_depth: int = DEFAULT_MAX_DEPTH,
        jobs: Any = None,
        timeout_s: Optional[float] = None,
        retries: int = 0,
        cache: Any = USE_DEFAULT_CACHE,
        artifacts_dir: Optional[str] = None,
    ) -> None:
        self.socket_path = resolve_socket_path(socket_path)
        self.scheduler = JobScheduler(max_depth)
        self.store = JobStore(artifacts_dir)
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        if cache is USE_DEFAULT_CACHE:
            from repro.cache import ResultCache, cache_enabled_by_env

            cache = ResultCache() if cache_enabled_by_env() else None
        self.cache = cache
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[_Connection] = set()
        self._work = asyncio.Event()
        self._stopping = asyncio.Event()
        self._finished = asyncio.Event()
        self._dispatcher: Optional[asyncio.Task] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-job"
        )
        self._job_counter = 0
        self._running_job: Optional[str] = None
        self._running_cancel: Optional[threading.Event] = None

    # ---------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Bind the socket (reclaiming a stale one) and start dispatching."""
        if os.path.exists(self.socket_path):
            if await self._socket_alive():
                raise ServiceError(
                    f"a service is already listening on {self.socket_path}",
                    code="already-running",
                )
            os.unlink(self.socket_path)
        self._server = await asyncio.start_unix_server(
            self._handle_connection,
            path=self.socket_path,
            limit=MAX_FRAME_BYTES,
        )
        self._dispatcher = asyncio.ensure_future(self._dispatch_loop())

    async def _socket_alive(self) -> bool:
        try:
            __, writer = await asyncio.wait_for(
                asyncio.open_unix_connection(self.socket_path), timeout=1.0
            )
        except (OSError, asyncio.TimeoutError):
            return False
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
        return True

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or a ``shutdown`` op) completes."""
        await self._finished.wait()

    async def stop(self) -> None:
        """Graceful shutdown: reject new work, cancel queued + running jobs,
        flush every connection, unlink the socket, release the executor,
        and persist the cache deltas no job has recorded yet."""
        if self._stopping.is_set():
            await self._finished.wait()
            return
        self._stopping.set()
        self._work.set()  # wake the dispatcher so it can observe _stopping
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain the queue as explicit cancellations — nothing silent.
        while True:
            job = self.scheduler.next_job()
            if job is None:
                break
            self._finish_cancelled_in_queue(job)
        if self._running_cancel is not None:
            self._running_cancel.set()
        if self._dispatcher is not None:
            await self._dispatcher
        # End every connection's reader at EOF, so each handler returns on
        # its own. A handler still parked in readline() when asyncio.run
        # tears the loop down gets cancelled, and the stream protocol's
        # done-callback then prints a CancelledError traceback.
        handlers = []
        for connection in list(self._connections):
            await self._close_connection(connection)
            connection.reader.feed_eof()
            handlers.append(connection.handler)
        await asyncio.gather(*handlers, return_exceptions=True)
        self._executor.shutdown(wait=True)
        if self.cache is not None:
            # Persist the reads of jobs that never ran (see _finish).
            self.cache.record_run("serve")
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass
        self._finished.set()

    # -------------------------------------------------------- connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        self._connections.add(connection)
        drain = asyncio.ensure_future(self._drain_outbox(connection))
        try:
            while not self._stopping.is_set():
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    connection.send(error_event(
                        "protocol", "frame exceeds the stream limit"
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = loads_line(line)
                    await self._handle_frame(connection, frame)
                except ProtocolError as error:
                    connection.send(error_event(error.code, str(error)))
                except ServiceError as error:
                    connection.send(error_event(
                        error.code, str(error),
                        retry_after_s=error.retry_after_s,
                    ))
        finally:
            connection.closed = True
            connection.outbox.put_nowait(None)
            await drain
            self._connections.discard(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _drain_outbox(self, connection: _Connection) -> None:
        while True:
            payload = await connection.outbox.get()
            if payload is None:
                break
            try:
                connection.writer.write(payload)
                await connection.writer.drain()
            except OSError:
                connection.closed = True
                break

    async def _close_connection(self, connection: _Connection) -> None:
        connection.send({"event": "shutting-down"})
        connection.closed = True
        connection.outbox.put_nowait(None)

    # --------------------------------------------------------------- ops

    async def _handle_frame(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        op = frame.get("op")
        if op == "hello":
            client = frame.get("client")
            if client:
                connection.name = str(client)
            from repro.service.registry import kind_names

            connection.send({
                "event": "hello",
                "version": PROTOCOL_VERSION,
                "kinds": list(kind_names()),
                "max_depth": self.scheduler.max_depth,
                "cache": self.cache is not None,
            })
        elif op == "ping":
            connection.send({"event": "pong"})
        elif op == "submit":
            self._handle_submit(connection, frame)
        elif op == "jobs":
            connection.send({
                "event": "jobs",
                "running": self._running_job,
                "queued": self.scheduler.snapshot(),
                "records": [
                    record.summary() for record in self.store.records()
                ],
            })
        elif op == "cancel":
            self._handle_cancel(connection, frame)
        elif op == "shutdown":
            connection.send({"event": "shutting-down"})
            asyncio.ensure_future(self.stop())
        else:
            raise ProtocolError(f"unknown op {frame.get('op')!r}")

    # ------------------------------------------------------------- submit

    def _handle_submit(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        """Admit one job, answering its cached cells on the spot.

        Each cell is keyed once and probed with ``ResultCache.contains``.
        A job with probe misses must win a queue slot before anything is
        read or sent (else ``queue-full``). Then ``accepted`` goes out,
        each probed hit is read once and streamed as a ``cached`` cell,
        and only the cells left (probe misses, plus any read that failed
        after its probe) are queued to run. A job with none left gets its
        ``done`` here and never takes a slot, the dispatcher or the job
        thread.
        """
        from repro.service.registry import build_cells, normalize_spec

        if self._stopping.is_set():
            raise ServiceError("server is shutting down", code="shutting-down")
        try:
            spec = normalize_spec(frame.get("spec"))
            cells = build_cells(spec)
        except ConfigurationError as error:
            raise ServiceError(str(error), code="bad-request") from None
        priority = frame.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ServiceError(
                f"priority must be an integer, got {priority!r}",
                code="bad-request",
            )
        started = time.perf_counter()
        self._job_counter += 1
        job_id = f"job-{self._job_counter}"
        # Every cell is keyed, cache or not: trace artifacts are named by
        # content key. With a cache, key through its key_for (which is
        # cell_key) so keying time stays on the cache layer's seam.
        cache = self.cache
        key_for = cell_key if cache is None else cache.key_for
        keys = [key_for(cell.fn, cell.args, cell.kwargs) for cell in cells]
        probed = [] if cache is None else [
            index for index, key in enumerate(keys)
            if key is not None and cache.contains(key)
        ]
        job = QueuedJob(
            job_id=job_id,
            client=connection.name,
            priority=priority,
            spec=spec,
            cells=len(cells),
        )
        queued = len(probed) < len(cells)
        if queued:
            try:
                self.scheduler.submit(job)
            except QueueFull:
                self.store.add(JobRecord(
                    job_id=job_id,
                    client=connection.name,
                    priority=priority,
                    spec=spec,
                    cells=len(cells),
                    status="rejected",
                ))
                raise
        record = self.store.add(JobRecord(
            job_id=job_id,
            client=connection.name,
            priority=priority,
            spec=spec,
            cells=len(cells),
            precached=len(probed),
        ))
        connection.send({
            "event": "accepted",
            "job": job_id,
            "cells": len(cells),
            "precached": len(probed),
            "queue_depth": self.scheduler.depth,
        })
        work = job.work = _JobWork(connection, keys)
        left = set(range(len(cells))).difference(probed)
        for index in probed:
            hit, value = cache.get(keys[index])
            if not hit:
                left.add(index)
                continue
            work.counters["hits"] += 1
            work.counters["completed"] += 1
            connection.send(self._cell_event(
                job, record, index,
                CellResult(index, value=value, attempts=0, cached=True),
            ))
        if not left:
            record.duration_s = time.perf_counter() - started
            self._finish(job, record, "done", ran=False)
            return
        work.indices = sorted(left)
        work.cells = [cells[index] for index in work.indices]
        if not queued:
            # Accepted already: a read that failed after its probe queues
            # the job past the depth bound rather than rejecting it now.
            self.scheduler.submit(job, bounded=False)
        self._work.set()

    # ------------------------------------------------------------- cancel

    def _handle_cancel(
        self, connection: _Connection, frame: Dict[str, Any]
    ) -> None:
        """Cancel a queued or running job and acknowledge where it was.

        A queued job never runs: its ``done`` event reports ``cancelled``
        with only the cells answered from the cache at admission
        completed (they were streamed already). A running job stops
        starting cells: the cells in flight finish, every cell not yet
        started is reported ``cancelled``, and the job ends ``cancelled``.
        A cancel acknowledged as ``running`` after the last cell has
        started cancels nothing: that job ends ``done``, with every cell
        reported finished. A job answered entirely at admission is never
        queued or running, so cancelling it is an ``unknown-job`` error.
        """
        job_id = frame.get("job")
        queued = self.scheduler.remove(job_id) if job_id else None
        if queued is not None:
            # Ack before the job's terminal done event so the canceller
            # sees its answer first even when it is also the subscriber.
            connection.send({
                "event": "cancelled", "job": job_id, "where": "queue",
            })
            self._finish_cancelled_in_queue(queued)
            return
        if job_id == self._running_job and self._running_cancel is not None:
            # The runner observes the event between cells/attempts:
            # in-flight cells finish, queued ones surface as cancelled
            # failures in the job's own event stream.
            self._running_cancel.set()
            connection.send({
                "event": "cancelled", "job": job_id, "where": "running",
            })
            return
        raise ServiceError(
            f"no queued or running job {job_id!r}", code="unknown-job"
        )

    def _finish_cancelled_in_queue(self, job: QueuedJob) -> None:
        record = self.store.get(job.job_id)
        if record is not None:
            self._finish(job, record, "cancelled", ran=False)

    def _finish(
        self, job: QueuedJob, record: JobRecord, status: str, ran: bool
    ) -> None:
        """End a job: fill its record, send done.

        A job that ran persists the cache's deltas since the last run
        record (``ResultCache.record_run``). A job that never ran (fully
        cached, or cancelled in the queue) writes no record of its own:
        its admission reads are persisted with the next job that runs, or
        at shutdown, so a warm submit creates no file. The subscriber is
        reached through ``job.work`` only, and nothing keeps the job once
        it has ended, so a finished record pins no connection.
        """
        work: _JobWork = job.work
        counters = work.counters
        record.status = status
        record.hits = counters["hits"]
        record.misses = counters["misses"]
        record.deduped = counters["deduped"]
        record.failures = counters["failures"]
        if ran and self.cache is not None:
            self.cache.record_run(job.job_id)
        work.subscriber.send(dict(
            {"event": "done", "job": job.job_id, "status": status,
             "cells": record.cells},
            **counters,
        ))

    # ----------------------------------------------------------- dispatch

    async def _dispatch_loop(self) -> None:
        while not self._stopping.is_set():
            job = self.scheduler.next_job()
            if job is None:
                self._work.clear()
                stop_wait = asyncio.ensure_future(self._stopping.wait())
                work_wait = asyncio.ensure_future(self._work.wait())
                await asyncio.wait(
                    (stop_wait, work_wait),
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for waiter in (stop_wait, work_wait):
                    waiter.cancel()
                continue
            await self._execute(job)

    async def _execute(self, job: QueuedJob) -> None:
        from repro.service.bridge import run_cells_streamed

        record = self.store.get(job.job_id)
        assert record is not None
        work: _JobWork = job.work
        subscriber = work.subscriber
        indices = work.indices
        counters = work.counters
        record.status = "running"
        cancel = threading.Event()
        self._running_job = job.job_id
        self._running_cancel = cancel
        if self._stopping.is_set():
            cancel.set()
        started = time.perf_counter()

        def on_result(result: CellResult) -> None:
            counters["completed"] += 1
            if result.cached:
                counters["hits"] += 1
            elif result.deduped:
                counters["deduped"] += 1
            elif result.ok or result.failure.kind != "cancelled":
                counters["misses"] += 1
            if not result.ok:
                counters["failures"] += 1
            subscriber.send(self._cell_event(
                job, record, indices[result.index], result
            ))

        try:
            results = await run_cells_streamed(
                work.cells,
                jobs=self.jobs,
                timeout_s=self.timeout_s,
                retries=self.retries,
                cache=self.cache,
                cancel=cancel,
                on_result=on_result,
                executor=self._executor,
            )
        except Exception as error:  # noqa: BLE001 — surfaced as a job event
            record.status = "failed"
            record.duration_s = time.perf_counter() - started
            subscriber.send({
                "event": "done",
                "job": job.job_id,
                "status": "failed",
                "error": repr(error),
                "cells": record.cells,
                "completed": counters["completed"],
                "failures": counters["failures"],
            })
            return
        finally:
            self._running_job = None
            self._running_cancel = None
        duration = time.perf_counter() - started
        self.scheduler.observe_duration(duration)
        cancelled = any(
            not result.ok and result.failure.kind == "cancelled"
            for result in results
        )
        record.duration_s = duration
        self._finish(
            job, record, "cancelled" if cancelled else "done", ran=True
        )

    def _cell_event(
        self,
        job: QueuedJob,
        record: JobRecord,
        index: int,
        result: CellResult,
    ) -> Dict[str, Any]:
        """The ``cell`` event for the job's cell ``index``."""
        if not result.ok:
            status = (
                "cancelled" if result.failure.kind == "cancelled" else "failed"
            )
        elif result.cached:
            status = "cached"
        else:
            status = "ok"
        event: Dict[str, Any] = {
            "event": "cell",
            "job": job.job_id,
            "index": index,
            "status": status,
            "attempts": result.attempts,
            "deduped": result.deduped,
        }
        if result.ok:
            event["value"] = encode_value(result.value)
            trace = self._export_trace(job, index, result)
            if trace is not None:
                record.trace_paths[index] = trace
                event["trace"] = trace
        else:
            event["failure"] = encode_failure(result.failure)
        return event

    def _export_trace(
        self, job: QueuedJob, index: int, result: CellResult
    ) -> Optional[str]:
        if job.spec.get("kind") != "trace":
            return None
        value = result.value
        recording = getattr(value, "recording", None)
        label = getattr(value, "label", f"cell-{index}")
        if recording is None:
            return None
        try:
            return self.store.write_trace(
                job.work.keys[index], label, recording,
                job_id=job.job_id, index=index,
            )
        except OSError:
            return None


class ServiceThread:
    """Run a :class:`ReproService` on a background thread (tests, smoke).

    ``with ServiceThread(path) as service:`` starts the daemon's event
    loop on its own thread, waits for the socket to be listening, and
    guarantees a clean stop (socket unlinked, executor drained) on exit.
    """

    def __init__(self, socket_path: Optional[str] = None, **kwargs: Any) -> None:
        self._kwargs = dict(kwargs, socket_path=socket_path)
        self.service: Optional[ReproService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def socket_path(self) -> str:
        return resolve_socket_path(self._kwargs.get("socket_path"))

    def start(self) -> "ServiceThread":
        """Start the loop thread; returns once the socket is listening."""
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error
        return self

    def _run(self) -> None:
        socket_path = self._kwargs.pop("socket_path")
        service = ReproService(socket_path, **self._kwargs)

        async def main() -> None:
            try:
                await service.start()
            except BaseException as error:  # noqa: BLE001 — re-raised in start()
                self._startup_error = error
                self._ready.set()
                return
            self.service = service
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await service.serve_forever()

        asyncio.run(main())

    def stop(self) -> None:
        """Stop the service and join the loop thread; safe to call twice."""
        if self._loop is not None and self.service is not None:
            service = self.service
            asyncio.run_coroutine_threadsafe(
                service.stop(), self._loop
            ).result(timeout=60)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

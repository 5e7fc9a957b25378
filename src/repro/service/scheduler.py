"""Admission queue: strict priority, per-client fairness, bounded depth.

The scheduler is a pure in-memory policy object — no asyncio, no I/O — so
its invariants are testable without a running server:

* **Strict priority.** A queued job with higher ``priority`` (larger int)
  always dispatches before any lower-priority job, regardless of arrival
  order or owner.
* **Round-robin fairness within a priority.** Clients at the same
  priority take turns: each dispatch serves the least-recently-served
  client that has work, then rotates it to the back. One client
  submitting 100 jobs cannot starve another's single job at the same
  priority; within one client, jobs stay FIFO.
* **Bounded depth.** At most ``max_depth`` jobs may be queued; the next
  submission raises :class:`QueueFull` carrying a ``retry_after_s`` hint
  derived from an EWMA of observed job durations. Rejection is loud and
  structured — a job is either accepted (and will eventually run or be
  cancelled) or rejected at the door; nothing is silently dropped.

Dispatch order is a pure function of (submission order, priorities,
clients), so a fixed submission sequence replays identically — the
server's determinism contract starts here.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ServiceError

__all__ = ["DEFAULT_MAX_DEPTH", "JobScheduler", "QueueFull", "QueuedJob"]

#: Default admission bound: deep enough for a sweep per client, shallow
#: enough that a runaway submitter hits backpressure quickly.
DEFAULT_MAX_DEPTH = 16


class QueueFull(ServiceError):
    """Admission rejected: the queue is at depth; retry after the hint."""

    def __init__(self, depth: int, retry_after_s: float) -> None:
        super().__init__(
            f"queue full ({depth} job(s) queued); "
            f"retry in {retry_after_s:.1f}s",
            code="queue-full",
            retry_after_s=retry_after_s,
        )
        self.depth = depth


@dataclass
class QueuedJob:
    """One admitted job waiting to run."""

    job_id: str
    client: str
    priority: int
    spec: Dict[str, Any]
    #: Admission sequence number: total order on submissions, ties FIFO.
    seq: int = 0
    #: Total cell count (known at admission: specs build deterministically).
    cells: int = 0
    #: The server's in-flight state for the job; the scheduler never reads
    #: it. It lives exactly as long as this object: queued, then running.
    work: Any = None


class JobScheduler:
    """The admission queue (see the module docstring for the policy)."""

    def __init__(
        self,
        max_depth: int = DEFAULT_MAX_DEPTH,
        *,
        ewma_alpha: float = 0.3,
        initial_estimate_s: float = 5.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._seq = 0
        # priority → (client → FIFO of jobs); the OrderedDict's key order
        # IS the round-robin rotation for that priority.
        self._levels: Dict[int, "OrderedDict[str, Deque[QueuedJob]]"] = {}
        self._by_id: Dict[str, QueuedJob] = {}
        self._ewma_alpha = ewma_alpha
        self._duration_ewma_s = initial_estimate_s

    # ------------------------------------------------------------ metrics

    def observe_duration(self, seconds: float) -> None:
        """Fold one completed job's wall time into the EWMA estimate."""
        if seconds >= 0:
            alpha = self._ewma_alpha
            self._duration_ewma_s = (
                alpha * seconds + (1 - alpha) * self._duration_ewma_s
            )

    def retry_after_s(self) -> float:
        """Backpressure hint: the estimated time for one slot to free."""
        return round(max(self._duration_ewma_s, 0.1), 3)

    # ---------------------------------------------------------- admission

    def __len__(self) -> int:
        return len(self._by_id)

    @property
    def depth(self) -> int:
        """Number of queued (not yet dispatched) jobs."""
        return len(self._by_id)

    def submit(self, job: QueuedJob, *, bounded: bool = True) -> QueuedJob:
        """Admit one job, or raise :class:`QueueFull` (nothing dropped).

        ``bounded=False`` admits past ``max_depth``: for a job the server
        has already accepted, which must never be rejected afterwards.
        """
        if bounded and len(self._by_id) >= self.max_depth:
            raise QueueFull(len(self._by_id), self.retry_after_s())
        if job.job_id in self._by_id:
            raise ServiceError(
                f"duplicate job id {job.job_id!r}", code="bad-request"
            )
        self._seq += 1
        job.seq = self._seq
        level = self._levels.setdefault(job.priority, OrderedDict())
        level.setdefault(job.client, deque()).append(job)
        self._by_id[job.job_id] = job
        return job

    def next_job(self) -> Optional[QueuedJob]:
        """Dispatch the next job per policy, or None when idle."""
        if not self._by_id:
            return None
        priority = max(
            p for p, level in self._levels.items()
            if any(level.values())
        )
        level = self._levels[priority]
        # The least-recently-served client with work is the first key;
        # serve it, then rotate it to the back (move_to_end) so the next
        # dispatch at this priority picks a different client.
        for client in list(level):
            queue = level[client]
            if not queue:
                del level[client]
                continue
            job = queue.popleft()
            if queue:
                level.move_to_end(client)
            else:
                del level[client]
            if not level:
                del self._levels[priority]
            del self._by_id[job.job_id]
            return job
        del self._levels[priority]
        return self.next_job()

    def remove(self, job_id: str) -> Optional[QueuedJob]:
        """Withdraw a queued job (cancellation); None if not queued."""
        job = self._by_id.pop(job_id, None)
        if job is None:
            return None
        level = self._levels.get(job.priority)
        if level is not None:
            queue = level.get(job.client)
            if queue is not None:
                try:
                    queue.remove(job)
                except ValueError:
                    pass
                if not queue:
                    del level[job.client]
            if not level:
                del self._levels[job.priority]
        return job

    # -------------------------------------------------------- observation

    def snapshot(self) -> List[Dict[str, Any]]:
        """Queued jobs in dispatch order (what ``repro jobs`` shows)."""
        jobs: List[Dict[str, Any]] = []
        for priority in sorted(self._levels, reverse=True):
            level = self._levels[priority]
            # Interleave clients exactly as dispatch would: repeatedly
            # walk the rotation, taking one job per client per round.
            queues = {
                client: list(queue) for client, queue in level.items() if queue
            }
            rotation = [client for client in level if queues.get(client)]
            position = {client: 0 for client in rotation}
            while rotation:
                client = rotation.pop(0)
                job = queues[client][position[client]]
                position[client] += 1
                jobs.append({
                    "job": job.job_id,
                    "client": job.client,
                    "priority": job.priority,
                    "kind": job.spec.get("kind"),
                    "cells": job.cells,
                })
                if position[client] < len(queues[client]):
                    rotation.append(client)
        return jobs

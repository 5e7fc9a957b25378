"""Job records and the content-addressed trace-artifact store.

The server keeps one :class:`JobRecord` per queued or running job and the
newest :data:`MAX_FINISHED_RECORDS` finished ones, so ``repro jobs`` can
answer without touching the executor. Trace-kind cells additionally
produce Perfetto JSON artifacts:
:meth:`JobStore.write_trace` exports one cell's recording addressed by the
cell's content key — the same SHA-256 the result cache uses, derived
whether or not a cache is attached — so a cell re-submitted with identical
inputs maps to the identical artifact path and the file is simply reused.
The streamed cell event carries the path as a ``trace`` handle instead of
shipping span dicts to every subscriber. A record holds no connection and
no cells: the server keeps a job's in-flight state on its queued job,
which is dropped when the job ends.
"""

from __future__ import annotations

import os
import re
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = [
    "DEFAULT_ARTIFACTS_DIR",
    "MAX_FINISHED_RECORDS",
    "JobRecord",
    "JobStore",
]

#: Default artifact root (next to ``.repro-cache/``, same working-dir
#: scoping as the socket and the cache).
DEFAULT_ARTIFACTS_DIR = ".repro-service"

#: Finished records (done, cancelled, rejected or failed) the store keeps;
#: older ones are dropped as new jobs arrive. A record costs about 3.5 KB,
#: so the bound holds them to about 3.5 MB. Queued and running records are
#: never dropped.
MAX_FINISHED_RECORDS = 1000

_LIVE = ("queued", "running")


@dataclass
class JobRecord:
    """Everything the server remembers about one job."""

    job_id: str
    client: str
    priority: int
    spec: Dict[str, Any]
    cells: int
    #: queued | running | done | cancelled | rejected | failed
    status: str = "queued"
    #: Cells satisfied by the warm cache at submit time.
    precached: int = 0
    #: Per-run cache accounting, filled when the job finishes.
    hits: int = 0
    misses: int = 0
    deduped: int = 0
    failures: int = 0
    duration_s: Optional[float] = None
    trace_paths: Dict[int, str] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        """The ``jobs`` listing row for this record."""
        row: Dict[str, Any] = {
            "job": self.job_id,
            "client": self.client,
            "priority": self.priority,
            "kind": self.spec.get("kind"),
            "status": self.status,
            "cells": self.cells,
            "precached": self.precached,
            "hits": self.hits,
            "misses": self.misses,
            "deduped": self.deduped,
            "failures": self.failures,
        }
        if self.duration_s is not None:
            row["duration_s"] = round(self.duration_s, 3)
        return row


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text).strip("-") or "cell"


class JobStore:
    """In-memory job records plus the on-disk trace-artifact directory."""

    def __init__(self, artifacts_dir: Optional[str] = None) -> None:
        self.artifacts_dir = artifacts_dir or DEFAULT_ARTIFACTS_DIR
        self._records: Dict[str, JobRecord] = {}
        #: The records last seen queued or running: the few a scan of the
        #: oldest records may have to step over.
        self._live: Dict[str, JobRecord] = {}

    # ------------------------------------------------------------ records

    def add(self, record: JobRecord) -> JobRecord:
        """Register (or re-register) a record; insertion order is kept."""
        self._records[record.job_id] = record
        self._live[record.job_id] = record
        self._prune()
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or None."""
        return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        """Every kept record, oldest first."""
        self._prune()
        return list(self._records.values())

    def _prune(self) -> None:
        """Drop the oldest finished records past :data:`MAX_FINISHED_RECORDS`.

        The server finishes a record by setting its status, so the store
        sees it finished at the next :meth:`add` or :meth:`records`.
        """
        self._live = {
            job_id: live for job_id, live in self._live.items()
            if live.status in _LIVE
        }
        excess = len(self._records) - len(self._live) - MAX_FINISHED_RECORDS
        if excess <= 0:
            return
        stale = []
        for job_id in self._records:
            if job_id not in self._live:
                stale.append(job_id)
                if len(stale) == excess:
                    break
        for job_id in stale:
            del self._records[job_id]

    def __len__(self) -> int:
        return len(self._records)

    # ---------------------------------------------------------- artifacts

    def write_trace(
        self,
        key: Optional[str],
        label: str,
        recording: Any,
        *,
        job_id: str,
        index: int,
    ) -> str:
        """Export one cell's recording as Perfetto JSON; returns the path.

        A cell with a content key lands at ``traces/<key>.json``, and a path
        that already exists is reused: same key means same content by
        construction. A cell with no key (an input with no stable encoding)
        gets a name scoped to its job and cell, written every time, so it
        never picks up another job's file. Writes are atomic (temp +
        replace).
        """
        from repro.trace import chrome_trace, dumps

        if key is None:
            name = f"{_slug(job_id)}-{index}-{_slug(label)}"
        else:
            name = key
        path = os.path.join(self.artifacts_dir, "traces", f"{name}.json")
        if key is not None and os.path.exists(path):
            return path
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        text = dumps(chrome_trace([(label, recording)]))
        fd, tmp_name = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

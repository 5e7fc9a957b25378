"""Job records and the content-addressed trace-artifact store.

The server keeps one :class:`JobRecord` per job it has ever seen (queued,
running, or finished) so ``repro jobs`` can answer without touching the
executor. Trace-kind cells additionally produce Perfetto JSON artifacts:
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

__all__ = ["DEFAULT_ARTIFACTS_DIR", "JobRecord", "JobStore"]

#: Default artifact root (next to ``.repro-cache/``, same working-dir
#: scoping as the socket and the cache).
DEFAULT_ARTIFACTS_DIR = ".repro-service"


@dataclass
class JobRecord:
    """Everything the server remembers about one job."""

    job_id: str
    client: str
    priority: int
    spec: Dict[str, Any]
    cells: int
    status: str = "queued"  # queued | running | done | cancelled | rejected
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
        self._order: List[str] = []

    # ------------------------------------------------------------ records

    def add(self, record: JobRecord) -> JobRecord:
        """Register (or re-register) a record; insertion order is kept."""
        if record.job_id not in self._records:
            self._order.append(record.job_id)
        self._records[record.job_id] = record
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id``, or None."""
        return self._records.get(job_id)

    def records(self) -> List[JobRecord]:
        """All records, oldest first."""
        return [self._records[job_id] for job_id in self._order]

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

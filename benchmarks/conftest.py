"""Benchmark fixtures: the two paper platforms, built once per session.

Also the timing trajectory: :func:`record_timing` appends one sample to
``BENCH_results.json`` at the repository root, so successive sessions can
track how the hot paths move (see docs/PERFORMANCE.md).
"""

import json
import time
from pathlib import Path

import pytest

from repro.platform.presets import epyc_7302, epyc_9634

#: The trajectory file: a JSON list of timing samples, append-only.
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_results.json"


@pytest.fixture(scope="session")
def p7302():
    return epyc_7302()


@pytest.fixture(scope="session")
def p9634():
    return epyc_9634()


def record_timing(name: str, seconds: float, **meta) -> dict:
    """Append one timing sample to the BENCH_results.json trajectory.

    Each entry records the bench name, the measured seconds, a UTC
    timestamp, and any extra metadata (seed baselines, speedups, cell
    counts). The file is a flat JSON list; a corrupt or missing file is
    replaced rather than crashing the bench run.
    """
    try:
        history = json.loads(RESULTS_PATH.read_text())
        if not isinstance(history, list):
            history = []
    except (FileNotFoundError, ValueError):
        history = []
    entry = {
        "bench": name,
        "seconds": seconds,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    entry.update(meta)
    history.append(entry)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")
    return entry


@pytest.fixture(scope="session", name="record_timing")
def record_timing_fixture():
    """The :func:`record_timing` helper as a session fixture."""
    return record_timing

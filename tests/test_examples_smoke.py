"""Smoke tests: the fast examples run end to end as subprocesses."""

import functools
import re
import subprocess
import sys
from pathlib import Path

import pytest

_EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Every example, each under three seconds on a 2-core VM.
_FAST_EXAMPLES = [
    "interconnect_wall.py",
    "storage_relay.py",
    "thermal_throttle.py",
    "bandwidth_harvesting.py",
    "noisy_neighbor.py",
    "chiplet_devtree.py",
    "cxl_expansion.py",
    "numa_placement.py",
    "quickstart.py",
    "kv_server.py",
]


@functools.lru_cache(maxsize=None)
def _run(script: str) -> subprocess.CompletedProcess:
    path = _EXAMPLES_DIR / script
    assert path.exists(), path
    return subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("script", _FAST_EXAMPLES)
def test_example_runs(script):
    completed = _run(script)
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"


def test_kv_server_tells_its_colocation_story():
    # The scan raises the P99 over a baseline of the same length, and the
    # 8 GB/s grant brings it back under the noisy one.
    completed = _run("kv_server.py")
    assert completed.returncode == 0, completed.stderr[-2000:]
    section = completed.stdout.split("-- colocation --")[1]
    alone, noisy, paced = (
        float(value) for value in re.findall(r"p99\s+(\d+) ns", section)
    )
    assert noisy > alone
    assert paced < noisy

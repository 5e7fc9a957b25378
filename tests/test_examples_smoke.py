"""Smoke tests: the fast examples run end to end as subprocesses."""

import subprocess
import sys
from pathlib import Path

import pytest

_EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Every example but kv_server.py, each under a second on a 2-core VM.
#: kv_server.py runs its per-event DES sweep for about 17 s there;
#: benchmarks/bench_apps.py times a smaller cut of the same scenario.
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
]


@pytest.mark.parametrize("script", _FAST_EXAMPLES)
def test_example_runs(script):
    path = _EXAMPLES_DIR / script
    assert path.exists(), path
    completed = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert completed.stdout.strip(), "example produced no output"

"""Harness tests for the end-to-end benchmark (not part of tier-1).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs in ``--quick`` mode (tiny sizes, one repeat) as a real
child process, exactly as ``BENCHMARK.json``'s command runs it.
"""

import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT
from benchmarks.e2e.__main__ import _entry
from benchmarks.e2e.compare import BLOCKING, compare, render, verdict
from benchmarks.e2e.harness import DIGESTS_PATH, _end_to_end, load_spec
from benchmarks.e2e.tracing import SEAMS
from benchmarks.e2e.workloads import REFERENCE_S, Repeat

SPEC = load_spec()
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"

#: The workload on which each per-layer metric must read nonzero.
PRIMARY = {
    "transport.path_compile_calls": "des-gated",
    "transport.path_compile_s": "des-gated",
    "transport.txns": "des-plain",
    "sim.des_run_s": "des-plain",
    "sim.des_us_per_txn": "des-plain",
    "sim.batch_closed_s": "sharded-closed",
    "sim.batch_open_s": "kvstore-open",
    "sim.shard_windows": "sharded-closed",
    "sim.shard_messages": "sharded-closed",
    "net.gate_calls": "des-gated",
    "net.recovery_retries": "des-gated",
    "net.recovery_failovers": "des-gated",
    "net.recovery_reclaimed": "des-gated",
    "experiments.cell_self_s": "des-gated",
    "core.shardexec_self_s": "sharded-closed",
    "core.arrivals_s": "kvstore-open",
    "apps.serve_self_s": "kvstore-open",
    "analysis.stats_s": "kvstore-open",
    "fluid.solve_calls": "kvstore-open",
    "fluid.solve_s": "kvstore-open",
    "runner.cells": "service-sweep",
    "runner.cell_s": "service-sweep",
    "runner.self_s": "service-sweep",
    "runner.deduped": "service-sweep",
    "cache.key_s": "service-sweep",
    "cache.get_calls": "service-sweep",
    "cache.get_s": "service-sweep",
    "cache.put_calls": "service-sweep",
    "cache.put_s": "service-sweep",
    "cache.hit_ratio": "service-sweep",
    "service.frame_calls": "service-sweep",
    "service.frame_s": "service-sweep",
    "service.accept_p50_ms": "service-sweep",
    "service.first_result_p50_ms": "service-sweep",
    "service.submit_p99_ms": "service-sweep",
}

#: Nonzero on every workload.
EVERYWHERE = ("platform.materialize_s", "bench.warmup_s", "bench.trace_overhead")

#: Failure counters: zero on every workload.
ZERO = ("runner.failed", "runner.retried")


def _run(workload, trace, tmp_path, cwd=ROOT):
    trace_out = tmp_path / f"{workload}-{trace}.trace.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--quick", "--trace-out", str(trace_out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"], trace_out


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Memoized quick runs: (workload, trace) -> (result, detail, trace path)."""
    runs = {}
    directory = tmp_path_factory.mktemp("e2e")

    def get(workload, trace):
        if (workload, trace) not in runs:
            runs[workload, trace] = _run(workload, trace, directory)
        return runs[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_reports_every_declared_metric(quick_runs, workload, trace):
    result, _, _ = quick_runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_nonzero_on_their_primary_workload(
    quick_runs, workload
):
    metrics = quick_runs(workload, 1)[0]["metrics"]
    for name, primary in PRIMARY.items():
        if primary == workload:
            assert metrics[name]["value"] != 0, name
    for name in EVERYWHERE:
        assert metrics[name]["value"] != 0, name
    for name in ZERO:
        assert metrics[name]["value"] == 0, name


def test_transaction_count_cross_checks_the_op_count(quick_runs):
    # des-plain: warm-up + one reference repeat + the traced repeat.
    result, _, _ = quick_runs("des-plain", 1)
    assert result["metrics"]["transport.txns"]["value"] * 3 == result["attempted"]


def test_every_seam_is_called_by_some_workload(quick_runs):
    called = set()
    for workload in WORKLOADS:
        trace = json.loads(quick_runs(workload, 1)[2].read_text())
        called.update(event["name"] for event in trace["traceEvents"])
        called.update(
            name for name, count in trace["otherData"]["counts"].items()
            if count
        )
    assert {seam.name for seam in SEAMS} <= called


@pytest.mark.parametrize("workload", ["des-gated", "service-sweep"])
def test_traced_counts_repeat_exactly(quick_runs, workload, tmp_path):
    first = quick_runs(workload, 1)[0]["metrics"]
    second = _run(workload, 1, tmp_path)[0]["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {name: first[name]["value"] for name in counts} == {
        name: second[name]["value"] for name in counts
    }


def test_stripped_checkout_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "des-gated",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_held_out_seed_changes_every_recorded_cell():
    recorded = json.loads(DIGESTS_PATH.read_text())
    assert sorted(recorded) == sorted(WORKLOADS)
    for workload, by_seed in recorded.items():
        assert by_seed["0"].keys() == by_seed["1"].keys(), workload
        for label, value in by_seed["0"].items():
            assert value != by_seed["1"][label], (workload, label)


def _child_run(value, failed=0, digest="d0"):
    return {
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "digest": digest, "digests_gated": True, "repeats": 5,
        "metrics": {"ops_per_s": {"value": value, "unit": "ops/s"}},
    }


def test_results_entry_summarises_runs():
    entry = _entry([_child_run(v) for v in (3.0, 1.0, 2.0, 5.0, 4.0)])
    assert entry["correct"] and entry["fail_ratio"] == 0.0
    assert entry["metrics"]["ops_per_s"]["median"] == 3.0
    assert entry["metrics"]["ops_per_s"]["values"] == [3.0, 1.0, 2.0, 5.0, 4.0]
    assert entry["metrics"]["ops_per_s"]["unit"] == "ops/s"
    assert not _entry([_child_run(1.0), _child_run(1.0, digest="d1")])["correct"]
    assert _entry([_child_run(1.0), _child_run(1.0, failed=5)])["fail_ratio"] == 0.25
    assert "error" in _entry([_child_run(1.0), {"error": "run.py exited 1"}])


def test_host_times_are_rescaled_by_the_reference_loop():
    # The host ran at half the reference speed in the first repeat and at
    # it in the second; both took the same reference-host time.
    slow = Repeat(
        cell_s={"c": 2.0}, latencies_s={"c": [2.0]}, cell_ops={"c": 100},
        reference_s=[2 * REFERENCE_S, 2 * REFERENCE_S, 9.0],
    )
    fast = Repeat(
        cell_s={"c": 1.0}, latencies_s={"c": [1.0]}, cell_ops={"c": 100},
        reference_s=[REFERENCE_S],
    )
    setup = [(0.4, 2 * REFERENCE_S), (0.2, REFERENCE_S), (0.2, REFERENCE_S)]
    scaled = _end_to_end(setup, [(slow, 2.0), (fast, 1.0)])
    assert (scaled["setup_s"], scaled["ops_per_s"], scaled["call_ms"]) == (
        0.2, 100.0, 1000.0
    )
    unscaled = _end_to_end(setup, [(slow, 2.0), (fast, 1.0)], scaled=False)
    assert (unscaled["setup_s"], unscaled["ops_per_s"]) == (0.2, 100.0 / 1.5)


def _stats(values):
    ordered = sorted(values)
    n = len(ordered)
    return {
        "median": ordered[n // 2], "q1": ordered[n // 4],
        "q3": ordered[(3 * n) // 4], "min": ordered[0], "values": values,
    }


def test_compare_verdicts():
    steady = _stats([100.0, 101.0, 99.0, 100.5, 99.5])
    assert verdict(steady, _stats([101.0, 100.0, 100.5, 99.0, 100.2]),
                   "higher", 0.1)[0] == "unchanged"
    assert verdict(steady, _stats([120.0, 121.0, 119.0, 120.5, 119.5]),
                   "higher", 0.1)[0] == "better"
    assert verdict(steady, _stats([120.0, 121.0, 119.0, 120.5, 119.5]),
                   "lower", 0.1)[0] == "worse"
    noisy = _stats([70.0, 100.0, 130.0, 85.0, 115.0])
    assert verdict(steady, noisy, "higher", 0.1)[0] == "unresolved"
    # Wide spread, but every B sample beats every A sample.
    assert verdict(noisy, _stats([200.0, 260.0, 230.0, 215.0, 245.0]),
                   "higher", 0.1)[0] == "better"
    # ...while losing to every A sample under a wide spread stays unresolved.
    assert verdict(noisy, _stats([20.0, 26.0, 23.0, 21.5, 24.5]),
                   "higher", 0.1)[0] == "unresolved"


def _document():
    return {"workloads": {
        workload: {
            "metrics": {
                metric["name"]: _stats([1.0, 1.0, 1.0])
                for metric in SPEC["end_to_end"]
            },
            "fail_ratio": 0.0,
        }
        for workload in WORKLOADS
    }}


def test_compare_rows_cover_every_metric_and_fail_ratio():
    b = _document()
    b["workloads"]["des-gated"]["fail_ratio"] = 0.01
    rows = compare(_document(), b, SPEC)
    names = [metric["name"] for metric in SPEC["end_to_end"]] + ["fail_ratio"]
    assert [(row["workload"], row["metric"]) for row in rows] == [
        (workload, name) for workload in WORKLOADS for name in names
    ]
    verdicts = {(row["workload"], row["metric"]): row["verdict"] for row in rows}
    assert verdicts.pop(("des-gated", "fail_ratio")) == "worse"
    assert set(verdicts.values()) == {"unchanged"}


def test_compare_blocks_on_a_crashed_or_absent_workload():
    b = _document()
    b["workloads"]["des-gated"] = {"error": "run.py exited 1"}
    del b["workloads"]["service-sweep"]
    del b["workloads"]["des-plain"]["metrics"]["setup_s"]
    rows = compare(_document(), b, SPEC)
    missing = {
        (row["workload"], row["metric"])
        for row in rows if row["verdict"] == "missing"
    }
    names = [metric["name"] for metric in SPEC["end_to_end"]] + ["fail_ratio"]
    assert missing == {
        (workload, name)
        for workload in ("des-gated", "service-sweep") for name in names
    } | {("des-plain", "setup_s")}
    assert "missing" in BLOCKING
    assert "missing" in render(rows)

"""Measure one workload in this process and print its result line.

The measurement, for ``--trace 0``:

1. set up (import ``repro``, build platforms, start servers) here and in
   four fresh child processes; ``setup_s`` is the median of the five;
2. one warm-up repeat, discarded from the timings;
3. timed repeats until ``--seconds`` have passed and at least five ran.

``ops_per_s`` is the repeat's operations over the sum of each cell's median
time across the timed repeats, and ``call_ms`` the mean across cells of
each cell's median call latency. Medians taken cell by cell, over many
short samples rather than a few whole repeats, keep a run's value steady
against the host's drift within the run. Every host time is first rescaled
to the reference host speed (``workloads.REFERENCE_S``) by the reference
loop timed beside it: within its repeat for the cells, within its process
for set-up. That keeps runs made minutes or hours apart comparable on a
host whose speed swings by tens of percent; the detail line carries the
unscaled values too.

With ``--trace 1`` the run instead times three or more untraced repeats as
the reference, then wraps the library's layer seams (:mod:`tracing`),
sets up afresh and runs one traced repeat, and reports the per-layer
metrics. Every repeat's per-cell digests must equal the warm-up's, and,
for seeds recorded in ``digests.json``, the recorded ones; a cell that
raises or mismatches counts its operations as failed.

The last stdout line is the result JSON; the line before it carries the
detail (digests, repeat times, machine metadata).
"""

from __future__ import annotations

import argparse
import json
import os
import platform as host
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import ROOT, tracing
from benchmarks.e2e.workloads import (
    REFERENCE_S,
    WORKLOADS,
    Repeat,
    ServiceSweep,
    Workload,
    digest,
    time_reference,
)

#: Stored per-cell digests for the gated seeds (0, and held-out 1).
DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Extra set-up samples, each in a fresh process (plus this process's own).
SETUP_PROBES = 4

#: Reference-loop samples after each set-up; their median rescales it.
SETUP_REFERENCES = 5

#: Timed repeats at least, per run kind.
MIN_REPEATS = 5
MIN_TRACE_REFERENCE_REPEATS = 3


def load_spec() -> Dict[str, Any]:
    """The benchmark declaration (metrics, units, directions, bounds)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def ensure_library() -> None:
    """Put ``src/`` on the import path; exit when the checkout lacks it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"e2e: no src/repro under {ROOT}; run from a full checkout")
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)


def pin_to_one_cpu() -> None:
    """Run this process, its later threads and its children on one CPU.

    The work is one Python thread at a time anyway (the service's threads
    take turns under the interpreter lock); on a small VM, wakeups across
    CPUs made the warm-submit latency swing between 3 and 5.5 ms from run
    to run, and pinned runs held within 5%.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def metadata(seed: int) -> Dict[str, Any]:
    """Machine and code identity, recorded beside every result."""
    import numpy  # not at module level: set-up timing covers its import

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "python": host.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": host.machine(),
        "seed": seed,
    }


def _setup(
    workload: Workload, seed: int, quick: bool
) -> Tuple[Any, Tuple[float, float]]:
    """(state, (set-up seconds, the process's reference-loop seconds))."""
    began = time.perf_counter()
    state = workload.setup(seed, quick)
    elapsed = time.perf_counter() - began
    reference = statistics.median(
        time_reference() for _ in range(SETUP_REFERENCES)
    )
    return state, (elapsed, reference)


def _probe_setup(name: str, seed: int, quick: bool) -> Tuple[float, float]:
    """(set-up seconds, reference-loop seconds) in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).with_name("run.py")),
        "--workload", name, "--seed", str(seed), "--setup-probe",
    ] + (["--quick"] if quick else [])
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170,
        check=True,
    )
    elapsed, reference = done.stdout.split()
    return float(elapsed), float(reference)


def _timed(workload: Workload, state: Any) -> Tuple[Repeat, float]:
    began = time.perf_counter()
    repeat = workload.repeat(state)
    return repeat, time.perf_counter() - began


def _expected_digests(name: str, seed: int) -> Optional[Dict[str, str]]:
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    return recorded.get(name, {}).get(str(seed))


def _check(
    repeats: Sequence[Repeat], expected: Optional[Dict[str, str]]
) -> Tuple[int, int, Dict[str, str]]:
    """(attempted ops, failed ops, problems by cell) across repeats.

    The first repeat is the reference every later one must reproduce.
    """
    reference = repeats[0].digests
    attempted = failed = 0
    problems: Dict[str, str] = {}
    for repeat in repeats:
        for label, value in repeat.digests.items():
            attempted += repeat.cell_ops[label]
            if value is None:
                problem = repeat.errors.get(label, "failed")
            elif value != reference.get(label):
                problem = f"digest {value} differs from the first repeat's"
            elif expected is not None and value != expected.get(label):
                problem = f"digest {value} != recorded {expected.get(label)}"
            else:
                continue
            failed += repeat.cell_ops[label]
            problems.setdefault(label, problem)
    return attempted, failed, problems


def _percentile_ms(samples: Sequence[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1e3 if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def _untraced(
    workload: Workload, seed: int, seconds: float, trace: bool, quick: bool
) -> Tuple[
    List[Tuple[float, float]], Tuple[Repeat, float], List[Tuple[Repeat, float]]
]:
    """(set-up samples, warm-up, timed repeats) with tracing off."""
    state, sample = _setup(workload, seed, quick)
    setup_samples = [sample]
    try:
        if not trace:
            setup_samples += [
                _probe_setup(workload.name, seed, quick)
                for _ in range(SETUP_PROBES)
            ]
        warmup = _timed(workload, state)
        repeats: List[Tuple[Repeat, float]] = []
        least = 1 if quick else (
            MIN_TRACE_REFERENCE_REPEATS if trace else MIN_REPEATS
        )
        deadline = time.perf_counter() + (seconds / 2 if trace else seconds)
        while len(repeats) < least or (
            not quick and time.perf_counter() < deadline
        ):
            repeats.append(_timed(workload, state))
    finally:
        workload.close(state)
    return setup_samples, warmup, repeats


def _end_to_end(
    setup_samples: List[Tuple[float, float]],
    repeats: List[Tuple[Repeat, float]],
    scaled: bool = True,
) -> Dict[str, float]:
    """The end-to-end metrics; host times at the reference speed if scaled."""
    timed = [repeat for repeat, _ in repeats]
    cells = timed[0].cell_ops
    scales = [repeat.scale if scaled else 1.0 for repeat in timed]
    seconds = sum(
        statistics.median(
            repeat.cell_s[label] * scale
            for repeat, scale in zip(timed, scales)
        )
        for label in cells
    )
    return {
        "setup_s": statistics.median(
            elapsed * (REFERENCE_S / reference if scaled else 1.0)
            for elapsed, reference in setup_samples
        ),
        "ops_per_s": sum(cells.values()) / seconds,
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        # Cell by cell first: pooled, the median of calls whose latencies
        # differ by cell lands between two cells' samples and jumps; and a
        # median across cells reads out one cell, whose cost moves with the
        # seed, where the mean spreads that over every cell.
        "call_ms": statistics.mean(
            statistics.median(
                latency * scale
                for repeat, scale in zip(timed, scales)
                for latency in repeat.latencies_s[label]
            )
            for label in cells
        ) * 1e3,
    }


def _traced(
    workload: Workload,
    seed: int,
    quick: bool,
    warmup: Tuple[Repeat, float],
    repeats: List[Tuple[Repeat, float]],
    trace_out: Optional[Path],
) -> Tuple[Repeat, Dict[str, float]]:
    """Set up afresh and run one repeat with every seam wrapped.

    Returns the traced repeat (its digests are checked like any other) and
    the per-layer metrics; the untraced ``repeats`` are the reference for
    the trace overhead and supply the client-side service latencies. The
    spans go to ``trace_out`` as Chrome/Perfetto JSON when it is given.
    """
    tracer = tracing.Tracer().install()
    try:
        with tracer.span("setup"):
            state = workload.setup(seed, quick)
        try:
            with tracer.span("repeat"):
                traced, traced_wall = _timed(workload, state)
        finally:
            workload.close(state)
    finally:
        tracer.uninstall()
    silent = [
        layer for layer in workload.layers
        if tracing.layer_calls(tracer, layer) == 0
    ]
    if silent:
        raise RuntimeError(
            f"traced {workload.name} recorded no calls into layer(s) "
            f"{', '.join(silent)}: a wrapper is bound to a name nobody calls"
        )
    values = tracing.layer_metrics(tracer)
    untraced = [repeat for repeat, _ in repeats]
    submits = [
        s for repeat in untraced
        for latencies in repeat.latencies_s.values() for s in latencies
    ] if isinstance(workload, ServiceSweep) else []
    values["service.accept_p50_ms"] = _percentile_ms(
        [s for repeat in untraced for s in repeat.accept_s], 50
    )
    values["service.first_result_p50_ms"] = _percentile_ms(
        [s for repeat in untraced for s in repeat.first_result_s], 50
    )
    values["service.submit_p99_ms"] = _percentile_ms(submits, 99)
    # Repeat walls at the reference host speed, like the end-to-end times.
    reference = statistics.median(wall * repeat.scale for repeat, wall in repeats)
    values["bench.warmup_s"] = warmup[1] * warmup[0].scale - reference
    values["bench.trace_overhead"] = traced_wall * traced.scale / reference - 1.0
    print(tracer.table(), file=sys.stderr)
    if trace_out is not None:
        tracer.write_chrome(trace_out, workload.name)
        print(f"[e2e] wrote {trace_out}", file=sys.stderr)
    return traced, values


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool = False,
    trace_out: Optional[Path] = None,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one workload; returns (result line, detail)."""
    spec = load_spec()
    workload = WORKLOADS[name]
    setup_samples, warmup, repeats = _untraced(
        workload, seed, seconds, trace, quick
    )
    checked = [warmup[0]] + [repeat for repeat, _ in repeats]
    unscaled = None
    if trace:
        traced, values = _traced(
            workload, seed, quick, warmup, repeats, trace_out
        )
        checked.append(traced)
        declared = spec["per_layer"]
    else:
        values = _end_to_end(setup_samples, repeats)
        unscaled = _end_to_end(setup_samples, repeats, scaled=False)
        declared = spec["end_to_end"]
    if sorted(metric["name"] for metric in declared) != sorted(values):
        raise RuntimeError(
            f"measured metrics {sorted(values)} != declared "
            f"{sorted(metric['name'] for metric in declared)}"
        )

    expected = None if quick else _expected_digests(name, seed)
    attempted, failed, problems = _check(checked, expected)
    for label, problem in sorted(problems.items()):
        print(f"[e2e] {name} cell {label}: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in declared
        },
    }
    detail = {
        "workload": name,
        "trace": trace,
        "quick": quick,
        "meta": metadata(seed),
        "repeats": len(repeats),
        "repeat_s": [wall for _, wall in repeats],
        "setup_s": [elapsed for elapsed, _ in setup_samples],
        "reference_s": {
            "setup": [reference for _, reference in setup_samples],
            "repeats": [
                statistics.median(repeat.reference_s) for repeat, _ in repeats
            ],
        },
        "unscaled": unscaled,
        "digest": digest(*(
            f"{label}={value}"
            for label, value in sorted(warmup[0].digests.items())
        )),
        "digests_gated": expected is not None,
        "fail_ratio": failed / attempted,
        "problems": problems,
    }
    return result, detail


def cell_digests(name: str, seed: int) -> Dict[str, Optional[str]]:
    """One untimed repeat's per-cell digests (what ``digests.json`` stores)."""
    workload = WORKLOADS[name]
    state = workload.setup(seed, quick=False)
    try:
        return workload.repeat(state).digests
    finally:
        workload.close(state)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="Run one end-to-end benchmark workload.",
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="where --trace 1 writes its Chrome trace JSON")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes and one repeat, for the harness tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    ensure_library()
    pin_to_one_cpu()
    if args.setup_probe:
        workload = WORKLOADS[args.workload]
        state, (elapsed, reference) = _setup(workload, args.seed, args.quick)
        workload.close(state)
        print(repr(elapsed), repr(reference))
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = load_spec()["run_seconds"]
    result, detail = measure(
        args.workload, args.seed, seconds, bool(args.trace), args.quick,
        args.trace_out,
    )
    shown = ", ".join(
        f"{key}={value['value']:.6g}{value['unit']}"
        for key, value in result["metrics"].items()
    ) if not args.trace else f"{len(result['metrics'])} per-layer metrics"
    print(
        f"[e2e] {args.workload} seed={args.seed}: {shown}; "
        f"repeats={detail['repeats']} failed={result['failed']}/"
        f"{result['attempted']} digest={detail['digest']}",
        file=sys.stderr,
    )
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps(result), flush=True)
    return 0

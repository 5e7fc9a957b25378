"""``python -m benchmarks.e2e``: run every workload, compare, record digests.

From the repository root::

    python -m benchmarks.e2e run --seed 0 --out results.json
    python -m benchmarks.e2e run --trace --seed 0 --out traced.json
    python -m benchmarks.e2e compare results-a.json results-b.json
    python -m benchmarks.e2e record-digests

``run`` measures every workload ``RUNS`` times, each run in its own fresh
child process (``benchmarks/e2e/run.py``), taking the workloads in turn so
that a slow spell of the host lands on several workloads rather than on
every run of one. It writes one JSON file holding, for every metric, the
median, quartiles, minimum, count and values of the runs, plus the git sha,
Python and numpy versions, CPU count, seed and repeat counts. With
``--trace`` it makes one traced run per workload, records the per-layer
metrics instead, and merges the children's spans into one Chrome/Perfetto
trace next to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from benchmarks.e2e import ROOT
from benchmarks.e2e.compare import BLOCKING, compare, render
from benchmarks.e2e.harness import (
    DIGESTS_PATH,
    cell_digests,
    ensure_library,
    load_spec,
    metadata,
)

RUN_SCRIPT = Path(__file__).with_name("run.py")

#: Runs per workload in one results file; ``compare`` judges each metric
#: by the spread between them. With ten, the quartiles leave out the two
#: runs at either end, so one slow spell of the host spanning a round or
#: two of the workloads does not widen the spread.
RUNS = 10

#: The seeds ``digests.json`` gates: 0, and 1 held out for later claims.
GATED_SEEDS = (0, 1)


def _run_child(
    name: str, seed: int, seconds: float, trace_out: Optional[Path]
) -> Dict[str, Any]:
    """One run of one workload; its result line with the detail folded in."""
    command = [
        sys.executable, str(RUN_SCRIPT), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0" if trace_out is None else "1",
    ] + ([] if trace_out is None else ["--trace-out", str(trace_out)])
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    if done.returncode != 0:
        return {"error": f"run.py exited {done.returncode}"}
    lines = done.stdout.splitlines()
    detail = json.loads(lines[-2])["detail"]
    return dict(json.loads(lines[-1]), **{
        key: detail[key] for key in ("digest", "digests_gated", "repeats")
    })


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, minimum, count and the values themselves."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "n": len(values),
        "values": values,
    }


def _entry(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A workload's row in the results file, summarising its runs."""
    errors = [run["error"] for run in runs if "error" in run]
    if errors:
        return {"error": "; ".join(errors), "runs": runs}
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    digests = sorted({run["digest"] for run in runs})
    metrics = {
        key: dict(
            summary([run["metrics"][key]["value"] for run in runs]),
            unit=value["unit"],
        )
        for key, value in runs[0]["metrics"].items()
    }
    return {
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digests": digests,
        "digests_gated": runs[0]["digests_gated"],
        "repeats": [run["repeats"] for run in runs],
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ensure_library()
    out = Path(args.out)
    runs = 1 if args.trace else RUNS
    document: Dict[str, Any] = {
        "meta": dict(
            metadata(args.seed), seconds=spec["run_seconds"], runs=runs
        ),
        "trace": args.trace,
        "workloads": {},
    }
    by_workload: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    events: List[Dict[str, Any]] = []
    for index in range(runs):
        for name in names:
            trace_out = (
                out.with_name(f"{out.stem}.{name}.trace.json")
                if args.trace else None
            )
            run = _run_child(name, args.seed, spec["run_seconds"], trace_out)
            by_workload[name].append(run)
            if trace_out is not None and trace_out.is_file():
                events += json.loads(trace_out.read_text())["traceEvents"]
                trace_out.unlink()
            print(f"[e2e] {name} run {index + 1}/{runs}: {_headline(run)}",
                  file=sys.stderr)
    for name in names:
        document["workloads"][name] = _entry(by_workload[name])
    out.write_text(json.dumps(document, indent=1) + "\n")
    print(f"[e2e] wrote {out}", file=sys.stderr)
    if args.trace:
        trace_path = out.with_name(out.stem + ".trace.json")
        trace_path.write_text(json.dumps({"traceEvents": events}))
        print(f"[e2e] wrote {trace_path}", file=sys.stderr)
    return 0 if all(
        entry.get("correct") for entry in document["workloads"].values()
    ) else 1


def _headline(run: Dict[str, Any]) -> str:
    if "error" in run:
        return run["error"]
    return (
        f"correct={run['correct']} failed={run['failed']}/"
        f"{run['attempted']} repeats={run['repeats']} digest={run['digest']}"
    )


def compare_files(args: argparse.Namespace) -> int:
    docs = [json.loads(Path(path).read_text()) for path in (args.a, args.b)]
    rows = compare(docs[0], docs[1], load_spec())
    print(render(rows))
    return 1 if any(row["verdict"] in BLOCKING for row in rows) else 0


def record_digests(args: argparse.Namespace) -> int:
    ensure_library()
    recorded: Dict[str, Dict[str, Dict[str, Optional[str]]]] = {}
    for name in (w["name"] for w in load_spec()["workloads"]):
        for seed in GATED_SEEDS:
            digests = cell_digests(name, seed)
            failed = sorted(label for label, value in digests.items() if value is None)
            if failed:
                print(f"[e2e] {name} seed {seed}: cells failed: {failed}",
                      file=sys.stderr)
                return 1
            recorded.setdefault(name, {})[str(seed)] = digests
            print(f"[e2e] {name} seed {seed}: {len(digests)} cells",
                  file=sys.stderr)
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"[e2e] wrote {DIGESTS_PATH}", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure workloads, write results")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", required=True, help="results JSON path")
    run.add_argument("--trace", action="store_true",
                     help="per-layer metrics and one merged trace JSON")
    run.set_defaults(handler=run_all)
    diff = commands.add_parser("compare", help="verdict per (workload, metric)")
    diff.add_argument("a", help="baseline results JSON")
    diff.add_argument("b", help="candidate results JSON")
    diff.set_defaults(handler=compare_files)
    record = commands.add_parser(
        "record-digests", help="store per-cell output digests for gated seeds"
    )
    record.set_defaults(handler=record_digests)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())

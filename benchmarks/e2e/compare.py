"""Compare two result files, one row per (workload, metric).

Each end-to-end metric's runs in a results file give its median and its
run-to-run spread (IQR / median). The verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* **unresolved** — the spread of either side exceeds the bound, so the
  bound cannot be resolved; unless every run of B reads better than every
  run of A (**better**);
* **worse** / **better** — B's median moved by more than the bound;
* **unchanged** — otherwise;
* **missing** — either file lacks the workload or the metric, or records
  that the workload's run failed.

``fail_ratio`` has an absolute bound of zero: any increase is worse.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Verdicts that fail ``compare`` (exit status 1).
BLOCKING = ("worse", "unresolved", "missing")


def _spread(stats: Dict[str, Any]) -> float:
    median = abs(stats["median"])
    if median == 0:
        return float("inf") if stats["q3"] != stats["q1"] else 0.0
    return (stats["q3"] - stats["q1"]) / median


def verdict(
    a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, signed relative change; positive means B is better)."""
    sign = 1.0 if better == "higher" else -1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    if max(_spread(a), _spread(b)) > bound:
        # Oriented so that larger always reads better.
        a_values = [sign * value for value in a["values"]]
        b_values = [sign * value for value in b["values"]]
        if min(b_values) > max(a_values):
            return "better", change
        return "unresolved", change
    if change < -bound:
        return "worse", change
    if change > bound:
        return "better", change
    return "unchanged", change


def _measured(doc: Dict[str, Any], workload: str) -> Dict[str, Any]:
    """The workload's entry, or {} when absent or its run failed."""
    entry = doc["workloads"].get(workload) or {}
    return {} if "error" in entry else entry


def _missing(
    workload: str,
    metric: str,
    unit: str,
    a: Optional[Dict[str, Any]],
    b: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    return {
        "workload": workload, "metric": metric, "unit": unit,
        "a": a, "b": b, "change": None, "verdict": "missing",
    }


def compare(
    a_doc: Dict[str, Any], b_doc: Dict[str, Any], spec: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """A row for every declared workload and metric, in declaration order."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a = _measured(a_doc, workload)
        b = _measured(b_doc, workload)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a_stats = a.get("metrics", {}).get(name)
            b_stats = b.get("metrics", {}).get(name)
            if a_stats is None or b_stats is None:
                rows.append(
                    _missing(workload, name, metric["unit"], a_stats, b_stats)
                )
                continue
            result, change = verdict(
                a_stats, b_stats, metric["better"], metric["bound"]
            )
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": a_stats, "b": b_stats, "change": change, "verdict": result,
            })
        fail_a, fail_b = a.get("fail_ratio"), b.get("fail_ratio")
        if fail_a is None or fail_b is None:
            rows.append(_missing(
                workload, "fail_ratio", "fraction",
                _constant(fail_a), _constant(fail_b),
            ))
            continue
        rows.append({
            "workload": workload, "metric": "fail_ratio", "unit": "fraction",
            "a": _constant(fail_a), "b": _constant(fail_b),
            "change": fail_a - fail_b,
            "verdict": (
                "worse" if fail_b > fail_a
                else "better" if fail_b < fail_a else "unchanged"
            ),
        })
    return rows


def _constant(value: Optional[float]) -> Optional[Dict[str, float]]:
    return None if value is None else {"median": value, "q1": value, "q3": value}


def _cells(stats: Optional[Dict[str, Any]]) -> str:
    if stats is None:
        return f"{'-':>12} {'-':>10}"
    return f"{stats['median']:>12.5g} {stats['q3'] - stats['q1']:>10.3g}"


def render(rows: Sequence[Dict[str, Any]]) -> str:
    """The comparison as an aligned text table."""
    lines = [
        f"{'workload':<15} {'metric':<12} {'unit':<9} {'A median':>12} "
        f"{'A IQR':>10} {'B median':>12} {'B IQR':>10} {'change':>8}  verdict"
    ]
    for row in rows:
        change = "-" if row["change"] is None else f"{row['change']:+.1%}"
        lines.append(
            f"{row['workload']:<15} {row['metric']:<12} {row['unit']:<9} "
            f"{_cells(row['a'])} {_cells(row['b'])} {change:>8}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)

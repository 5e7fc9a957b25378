"""The submittable cell kinds and their job specs.

A *job spec* is the JSON-friendly description of one batch a client
submits: which experiment kind, on which platform preset, with which
parameters. :func:`normalize_spec` canonicalizes a raw spec (fills
defaults, validates every field, sorts structure) so that two clients
asking for the same work produce byte-identical specs — and therefore
the same cells, the same cache keys, and the same dedup behaviour.

Five kinds cover the service's surface, one per family of the repo's
experiment layers:

* ``netstack`` — the §4 stack-on/off contention comparison
  (:func:`repro.experiments.netstack.run_point`), one cell per
  (backend, arm);
* ``chaos`` — the graceful-degradation severity sweep
  (:func:`repro.experiments.chaos.run_point`), one cell per severity;
* ``trace`` — the span-traced cells
  (:mod:`repro.experiments.trace`), whose values carry
  :class:`~repro.trace.TraceRecording` artifacts the server exports as
  Perfetto JSON handles;
* ``kvstore`` — the open-loop serving-tail sweep
  (:func:`repro.experiments.kvserve.run_point`), one cell per
  (value tier, background arm) on the hybrid batched/fluid engine;
* ``explore`` — the generated-topology design-space sweep
  (:func:`repro.experiments.explore.run_point`), one cell per
  (topology, workload, routing). The spec's ``platform`` field is
  carried (and validated) for spec uniformity but ignored: each cell's
  platform comes from its generated topology.

Each kind's cells are its experiment module's ``cells()``, and its
normalizer here is the only place its params get defaults and range
checks: ``repro <kind>`` builds and normalizes the same spec as
``repro submit <kind>``, so the two doors run the same cells and reject
the same inputs. Every choice that changes a result is a cell argument,
so a spec's cells alone determine their cache keys.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runner import Cell, CellResult, USE_DEFAULT_CACHE, run_cells_detailed

__all__ = [
    "KINDS",
    "PLATFORMS",
    "build_cells",
    "canonical_platform",
    "kind_names",
    "normalize_spec",
    "render_results",
    "resolve_platform",
    "run_local",
]

#: The submittable experiment kinds, in presentation order.
KINDS: Tuple[str, ...] = ("netstack", "chaos", "trace", "kvstore", "explore")

#: Platform presets by canonical name: the factory's name in
#: :mod:`repro.platform.presets`. The CLI and the service share this table.
_PRESETS: Dict[str, str] = {
    "7302": "epyc_7302",
    "9634": "epyc_9634",
    "synthetic": "synthetic_ucie",
}

#: The accepted platform names, in presentation order.
PLATFORMS: Tuple[str, ...] = tuple(_PRESETS)

#: Long-form spellings accepted anywhere a platform name is (e.g. scripts
#: that pass the marketing name verbatim).
_PLATFORM_ALIASES = {
    "epyc7302": "7302",
    "epyc-7302": "7302",
    "epyc9634": "9634",
    "epyc-9634": "9634",
}

#: Presets built so far in this process, by canonical name.
_built: Dict[str, Any] = {}


def kind_names() -> Tuple[str, ...]:
    """The accepted ``kind`` values, for help strings and validation."""
    return KINDS


def canonical_platform(name: Any) -> str:
    """The preset name ``name`` denotes, ignoring case and padding.

    Accepts the short names and the long aliases; raises
    :class:`ConfigurationError` (not SystemExit) on unknown names so the
    server can turn it into a structured ``bad-request`` event.
    """
    text = str(name).strip().lower()
    canonical = _PLATFORM_ALIASES.get(text, text)
    _require(
        canonical in _PRESETS,
        f"unknown platform {name!r} (choose from {', '.join(PLATFORMS)})",
    )
    return canonical


def resolve_platform(name: Any):
    """The platform preset ``name`` denotes, built once per process.

    Sharing one instance is safe: a :class:`~repro.platform.topology.Platform`
    has no mutators and :meth:`~repro.platform.topology.Platform.graph`
    returns a copy. Two threads racing on the first call at worst build
    equal presets twice. The factory is looked up in
    :mod:`repro.platform.presets` when the preset is first built, so code
    that wraps a factory there sees that build.
    """
    canonical = canonical_platform(name)
    platform = _built.get(canonical)
    if platform is None:
        from repro.platform import presets

        platform = getattr(presets, _PRESETS[canonical])()
        _built[canonical] = platform
    return platform


# ------------------------------------------------------------- validation


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _as_int(value: Any, field: str, minimum: int) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{field} must be an integer, got {value!r}",
    )
    _require(value >= minimum, f"{field} must be >= {minimum}, got {value}")
    return value


def _normalize_netstack(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.netstack import ARMS

    arms = params.get("arms")
    if arms is None:
        arms = list(ARMS)
    _require(
        isinstance(arms, list) and arms,
        f"params.arms must be a non-empty list, got {arms!r}",
    )
    for arm in arms:
        _require(
            arm in ARMS,
            f"unknown arm {arm!r} (choose from {', '.join(ARMS)})",
        )
    transactions = _as_int(
        params.get("transactions_per_core", 400),
        "params.transactions_per_core", 1,
    )
    return {"arms": arms, "transactions_per_core": transactions}


def _normalize_chaos(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.chaos import SEVERITIES

    severities = params.get("severities")
    if severities is None:
        severities = list(SEVERITIES)
    _require(
        isinstance(severities, list) and severities,
        f"params.severities must be a non-empty list, got {severities!r}",
    )
    normalized = []
    for severity in severities:
        _require(
            isinstance(severity, (int, float)) and not isinstance(severity, bool)
            and 0.0 <= float(severity) <= 1.0,
            f"severity must be a number in [0, 1], got {severity!r}",
        )
        normalized.append(float(severity))
    transactions = _as_int(
        params.get("transactions_per_core", 200),
        "params.transactions_per_core", 1,
    )
    return {"severities": normalized, "transactions_per_core": transactions}


def _normalize_trace(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.trace import CELLS, default_samples

    cell = params.get("cell", "netstack")
    _require(
        cell in CELLS,
        f"unknown trace cell {cell!r} (choose from {', '.join(CELLS)})",
    )
    samples = params.get("samples")
    if samples is None:
        samples = default_samples(cell)
    samples = _as_int(samples, "params.samples", 10)
    return {"cell": cell, "samples": samples}


def _normalize_kvserve(params: Dict[str, Any]) -> Dict[str, Any]:
    qps = params.get("qps", 2_000_000.0)
    _require(
        isinstance(qps, (int, float)) and not isinstance(qps, bool)
        and 0.0 < float(qps) < math.inf,
        f"params.qps must be a finite positive number, got {qps!r}",
    )
    requests = _as_int(params.get("requests", 100_000), "params.requests", 10)
    return {"qps": float(qps), "requests": requests}


def _normalize_explore(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.explore import ROUTINGS, WORKLOADS
    from repro.platform.generator import catalog_names

    known = catalog_names()
    topologies = params.get("topologies")
    if topologies is None:
        topologies = list(known)
    _require(
        isinstance(topologies, list) and topologies,
        f"params.topologies must be a non-empty list, got {topologies!r}",
    )
    for name in topologies:
        _require(
            name in known,
            f"unknown topology {name!r} (choose from {', '.join(known)})",
        )
    routings = params.get("routings")
    if routings is None:
        routings = list(ROUTINGS)
    _require(
        isinstance(routings, list) and routings,
        f"params.routings must be a non-empty list, got {routings!r}",
    )
    for routing in routings:
        _require(
            routing in ROUTINGS,
            f"unknown routing {routing!r} (choose from {', '.join(ROUTINGS)})",
        )
    workloads = params.get("workloads")
    if workloads is None:
        workloads = list(WORKLOADS)
    _require(
        isinstance(workloads, list) and workloads,
        f"params.workloads must be a non-empty list, got {workloads!r}",
    )
    for workload in workloads:
        _require(
            workload in WORKLOADS,
            f"unknown workload {workload!r} "
            f"(choose from {', '.join(WORKLOADS)})",
        )
    packets = _as_int(
        params.get("packets_per_sender", 60), "params.packets_per_sender", 1
    )
    return {
        "topologies": topologies,
        "routings": routings,
        "workloads": workloads,
        "packets_per_sender": packets,
    }


_NORMALIZERS: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "netstack": _normalize_netstack,
    "chaos": _normalize_chaos,
    "trace": _normalize_trace,
    "kvstore": _normalize_kvserve,
    "explore": _normalize_explore,
}


def normalize_spec(spec: Any) -> Dict[str, Any]:
    """Canonicalize one raw job spec; invalid specs raise ConfigurationError.

    The returned dict always has exactly the keys ``kind``, ``platform``,
    ``seed``, ``params``, with every default filled in, so
    equal requests normalize to equal specs regardless of which optional
    fields the client spelled out.
    """
    _require(isinstance(spec, dict), f"spec must be an object, got {spec!r}")
    unknown = set(spec) - {"kind", "platform", "seed", "params"}
    _require(
        not unknown,
        f"unknown spec field(s): {', '.join(sorted(unknown))}",
    )
    kind = spec.get("kind")
    _require(
        kind in KINDS,
        f"unknown kind {kind!r} (choose from {', '.join(KINDS)})",
    )
    platform = canonical_platform(spec.get("platform", "7302"))
    seed = spec.get("seed", 0)
    _require(
        isinstance(seed, int) and not isinstance(seed, bool),
        f"seed must be an integer, got {seed!r}",
    )
    params = spec.get("params") or {}
    _require(
        isinstance(params, dict),
        f"params must be an object, got {params!r}",
    )
    return {
        "kind": kind,
        "platform": platform,
        "seed": seed,
        "params": _NORMALIZERS[kind](params),
    }


# ------------------------------------------------------------------ cells


def build_cells(spec: Dict[str, Any]) -> List[Cell]:
    """The runner cells one normalized spec denotes, in submission order.

    Each kind's cell list is its experiment module's ``cells()``, so
    ``repro <kind>`` and a submitted spec run the same cells. Deterministic:
    the same normalized spec always yields the same cells in the same
    order, which is what makes per-cell events addressable by index alone.
    """
    platform = resolve_platform(spec["platform"])
    kind, params, seed = spec["kind"], spec["params"], spec["seed"]
    if kind == "netstack":
        from repro.experiments import netstack

        return netstack.cells(
            platform, params["arms"], seed=seed,
            transactions_per_core=params["transactions_per_core"],
        )
    if kind == "chaos":
        from repro.experiments import chaos

        return chaos.cells(
            platform, params["severities"], seed=seed,
            transactions_per_core=params["transactions_per_core"],
        )
    if kind == "kvstore":
        from repro.experiments import kvserve

        return kvserve.cells(
            platform, qps=params["qps"], requests=params["requests"],
            engine="hybrid", seed=seed,
        )
    if kind == "explore":
        from repro.experiments import explore

        # The generated topologies replace the spec's (ignored) preset.
        return explore.cells(
            params["topologies"], params["routings"], params["workloads"],
            seed=seed, packets_per_sender=params["packets_per_sender"],
        )
    from repro.experiments import trace

    return trace.cells(
        platform, params["cell"], seed=seed, samples=params["samples"]
    )


def render_results(spec: Dict[str, Any], results: Sequence[CellResult]) -> str:
    """The spec's human-readable artifact, identical to the CLI's rendering.

    Pure function of (spec, decoded results): the client renders locally
    from streamed values, and the output is byte-identical to running the
    same spec in process.
    """
    platform = resolve_platform(spec["platform"])
    if spec["kind"] == "netstack":
        from repro.experiments.netstack import render

        return render(platform.name, results)
    if spec["kind"] == "chaos":
        from repro.experiments.chaos import render

        return render(platform.name, results)
    if spec["kind"] == "kvstore":
        from repro.experiments.kvserve import render

        return render(platform.name, results)
    if spec["kind"] == "explore":
        from repro.experiments.explore import render

        return render(results)
    from repro.experiments.trace import render

    return render(platform, spec["params"]["cell"], results)


def run_local(
    spec: Dict[str, Any],
    *,
    jobs: Any = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    fail_fast: bool = False,
    cache: Any = USE_DEFAULT_CACHE,
    on_result: Optional[Callable[[CellResult], None]] = None,
    cancel: Any = None,
) -> List[CellResult]:
    """Execute one normalized spec in this process.

    The client's in-process fallback and the ``repro <kind>`` path. The
    server runs the same :func:`build_cells` output through the same
    :func:`~repro.runner.run_cells_detailed` (built once, at submit), which
    is what makes the fallback byte-identical to the served path.
    """
    return run_cells_detailed(
        build_cells(spec),
        jobs=jobs,
        timeout_s=timeout_s,
        retries=retries,
        fail_fast=fail_fast,
        cache=cache,
        on_result=on_result,
        cancel=cancel,
    )

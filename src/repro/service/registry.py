"""The artifact kinds and their job specs.

A *job spec* is the JSON-friendly description of one batch a client
submits: which artifact kind, on which platform preset, with which
parameters. :func:`normalize_spec` canonicalizes a raw spec (fills
defaults, validates every field, sorts structure) so that two clients
asking for the same work produce byte-identical specs — and therefore
the same cells, the same cache keys, and the same dedup behaviour.

Every artifact the CLI prints is a kind, one entry of :data:`KINDS`: the
paper's tables and figures (``table1``–``table3``, ``fig3``–``fig6``),
the cross-platform ``suite``, the §4 explorations (``os-scaling``,
``accel``, ``devtree``, ``io-relay``, ``collective``), the §2–§3
micro-studies (``noc-routing``, ``core-to-core``, ``patterns``), the
engine comparison ``sharded``, and the service-era sweeps ``netstack``,
``chaos``, ``trace``, ``kvstore`` and ``explore``. A kind

* normalizes a spec's params — its normalizer here is the only place
  they get defaults and range checks;
* builds one spec's runner cells, from its module's ``cells()``;
* renders the ordered ``(spec, results)`` pairs of one invocation (one
  pair per platform). Side-by-side artifacts (``table2``, ``table3``,
  ``fig3``, ``fig4``, ``os-scaling``, ``patterns``) put every platform
  into one table; the rest print one section per platform, and a spec
  with no cells (``fig6`` or ``accel`` without CXL) prints nothing.

``repro <kind>`` and ``repro submit <kind>`` build and normalize the same
specs and render them the same way, so the two doors run the same cells,
print the same bytes and reject the same inputs. Every choice that
changes a result is a cell argument, so a spec's cells alone determine
their cache keys. ``explore`` carries (and validates) the spec's
``platform`` for uniformity but ignores it: each cell's platform comes
from its generated topology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.runner import (
    Cell,
    CellResult,
    USE_DEFAULT_CACHE,
    run_cells_detailed,
    values_of,
)

__all__ = [
    "KINDS",
    "PLATFORMS",
    "Kind",
    "build_cells",
    "canonical_platform",
    "kind_names",
    "normalize_spec",
    "render_pairs",
    "render_results",
    "resolve_platform",
    "run_local",
]

#: One invocation's ordered ``(normalized spec, results)`` pairs.
Pairs = Sequence[Tuple[Dict[str, Any], Sequence[CellResult]]]

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
    return tuple(KINDS)


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


def _counts(**defaults: int) -> Callable[[Dict[str, Any]], Dict[str, Any]]:
    """A normalizer for params that are all counts (integers >= 1)."""

    def normalize(params: Dict[str, Any]) -> Dict[str, Any]:
        """Each count param, defaulted and checked to be >= 1."""
        return {
            name: _as_int(params.get(name, default), f"params.{name}", 1)
            for name, default in defaults.items()
        }

    return normalize


def _choice_list(
    params: Dict[str, Any], field: str, label: str, choices: Sequence[Any]
) -> List[Any]:
    """A non-empty list param drawn from ``choices`` (default: all of them)."""
    value = params.get(field)
    if value is None:
        return list(choices)
    _require(
        isinstance(value, list) and value,
        f"params.{field} must be a non-empty list, got {value!r}",
    )
    for item in value:
        _require(
            item in choices,
            f"unknown {label} {item!r} (choose from {', '.join(choices)})",
        )
    return value


def _normalize_netstack(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.netstack import ARMS

    return {
        "arms": _choice_list(params, "arms", "arm", ARMS),
        **_counts(transactions_per_core=400)(params),
    }


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
    return {
        "severities": normalized,
        **_counts(transactions_per_core=200)(params),
    }


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

    return {
        "topologies": _choice_list(
            params, "topologies", "topology", catalog_names()
        ),
        "routings": _choice_list(params, "routings", "routing", ROUTINGS),
        "workloads": _choice_list(params, "workloads", "workload", WORKLOADS),
        **_counts(packets_per_sender=60)(params),
    }


def _normalize_sharded(params: Dict[str, Any]) -> Dict[str, Any]:
    # The shard count's upper bound is the platform's CCD count, which
    # sharded_cell.cells checks when it resolves the default.
    from repro.experiments.sharded_cell import ENGINES

    shards = params.get("shards")
    return {
        "engines": _choice_list(params, "engines", "engine", ENGINES),
        "shards": None if shards is None else _as_int(
            shards, "params.shards", 1
        ),
        **_counts(transactions_per_core=150)(params),
    }


# ------------------------------------------------------------------ kinds


def _values(pairs: Pairs) -> List[Any]:
    """Every cell value of one invocation, in order (a failure re-raises)."""
    return [value for __, results in pairs for value in values_of(results)]


def _by_platform(pairs: Pairs) -> Dict[str, Any]:
    """The values by their ``platform`` name, for side-by-side tables."""
    return {value.platform: value for value in _values(pairs)}


def _joined(sections: Iterable[str]) -> str:
    """One section per item, blank-line separated; empty sections dropped."""
    return "\n\n".join(section for section in sections if section)


def _name(spec: Dict[str, Any]) -> str:
    return resolve_platform(spec["platform"]).name


# Cell builders, ``(module, platform, seed, params) -> cells``.


def _seeded(m: Any, platform: Any, seed: int, params: Dict[str, Any]):
    """``module.cells(platform, seed=seed, **params)``."""
    return m.cells(platform, seed=seed, **params)


def _unseeded(m: Any, platform: Any, seed: int, params: Dict[str, Any]):
    """``module.cells(platform)``: the artifact takes no seed or params."""
    return m.cells(platform)


def _one_cell(function: str) -> Callable[..., List[Cell]]:
    """A builder of the one cell ``module.<function>(platform)``."""
    return lambda m, platform, seed, params: [
        Cell(getattr(m, function), (platform,))
    ]


# Renderers, ``(module, pairs) -> text``.


def _side_by_side(m: Any, pairs: Pairs) -> str:
    """One table with every platform's value, keyed by platform name."""
    return m.render(_by_platform(pairs))


def _listed(m: Any, pairs: Pairs) -> str:
    """One table over every value, in order."""
    return m.render(_values(pairs))


def _each_value(function: str = "render") -> Callable[..., str]:
    """One section per value: ``module.<function>(value)``."""
    return lambda m, pairs: _joined(map(getattr(m, function), _values(pairs)))


def _each_platform(m: Any, pairs: Pairs) -> str:
    """One section per platform, failed cells as rows of it."""
    return _joined(m.render(_name(spec), results) for spec, results in pairs)


@dataclass(frozen=True)
class Kind:
    """One artifact kind: where its code lives, and spec → cells → text.

    ``cells(module, platform, seed, params)`` is one normalized spec's
    runner cells and ``render(module, pairs)`` the artifact of one
    invocation's :data:`Pairs`, where ``module`` is the kind's module,
    imported on first use. ``normalize(params)`` fills the defaults and
    range-checks every param.
    """

    module: str
    cells: Callable[..., List[Cell]]
    render: Callable[..., str]
    normalize: Callable[[Dict[str, Any]], Dict[str, Any]] = _counts()


#: Every artifact kind, in presentation order. A renderer that reads
#: values (:func:`_values`) needs every cell: a failed cell re-raises its
#: error and no partial artifact is printed. The others render failed
#: cells as rows.
KINDS: Dict[str, Kind] = {
    # Both presets in one table, printed once whatever the platform.
    "table1": Kind(
        "repro.experiments.table1",
        lambda m, platform, seed, params: m.cells(),
        lambda m, pairs: m.render(_values(pairs)[0]),
    ),
    "table2": Kind(
        "repro.experiments.table2", _seeded, _side_by_side,
        _counts(iterations=2000),
    ),
    "table3": Kind("repro.experiments.table3", _seeded, _side_by_side),
    "fig3": Kind(
        "repro.experiments.fig3", _seeded, _listed,
        _counts(transactions_per_core=800),
    ),
    "fig4": Kind("repro.experiments.fig4", _unseeded, _listed),
    "fig5": Kind(
        "repro.experiments.fig5", _unseeded, _each_value("harvest_line")
    ),
    "fig6": Kind("repro.experiments.fig6", _unseeded, _each_value()),
    "suite": Kind(
        "repro.core.suite",
        lambda m, platform, seed, params: m.CharacterizationSuite(
            seed=seed
        ).cells(platform),
        lambda m, pairs: _joined(
            m.CharacterizationSuite().report(
                resolve_platform(spec["platform"]), values_of(results)
            ).render()
            for spec, results in pairs
        ),
    ),
    "os-scaling": Kind(
        "repro.experiments.os_scaling", _unseeded, _side_by_side
    ),
    "accel": Kind(
        "repro.experiments.accel_dispatch", _seeded,
        lambda m, pairs: _joined(
            m.render({report.mode: report for report in values_of(results)})
            for __, results in pairs
            if results
        ),
        _counts(dispatch_jobs=8),
    ),
    "chaos": Kind(
        "repro.experiments.chaos", _seeded, _each_platform, _normalize_chaos
    ),
    "netstack": Kind(
        "repro.experiments.netstack", _seeded, _each_platform,
        _normalize_netstack,
    ),
    "sharded": Kind(
        "repro.experiments.sharded_cell", _seeded, _each_platform,
        _normalize_sharded,
    ),
    "trace": Kind(
        "repro.experiments.trace", _seeded,
        lambda m, pairs: _joined(
            m.render(
                resolve_platform(spec["platform"]), spec["params"]["cell"],
                results,
            )
            for spec, results in pairs
        ),
        _normalize_trace,
    ),
    "kvstore": Kind(
        "repro.experiments.kvserve", _seeded, _each_platform,
        _normalize_kvserve,
    ),
    "explore": Kind(
        "repro.experiments.explore",
        # The generated topologies replace the spec's (ignored) preset.
        lambda m, platform, seed, params: m.cells(seed=seed, **params),
        lambda m, pairs: _joined(m.render(results) for __, results in pairs),
        _normalize_explore,
    ),
    "devtree": Kind(
        "repro.telemetry.devtree", _one_cell("build_devtree"),
        _each_value("render_dts"),
    ),
    "io-relay": Kind(
        "repro.io.relay", _one_cell("sweep_designs"), _each_value()
    ),
    "collective": Kind(
        "repro.collective.model", _one_cell("allreduce_table"),
        _each_value(),
    ),
    "noc-routing": Kind(
        "repro.experiments.noc_routing", _unseeded,
        lambda m, pairs: _joined(
            m.render({
                result.lanes_per_sender: result
                for result in values_of(results)
            })
            for __, results in pairs
        ),
    ),
    "core-to-core": Kind("repro.core.coretocore", _unseeded, _each_value()),
    "patterns": Kind("repro.experiments.patterns", _seeded, _side_by_side),
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
        isinstance(kind, str) and kind in KINDS,
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
        "params": KINDS[kind].normalize(params),
    }


# ------------------------------------------------------------------ cells


def build_cells(spec: Dict[str, Any]) -> List[Cell]:
    """The runner cells one normalized spec denotes, in submission order.

    Each kind's cell list comes from its module's ``cells()``, so
    ``repro <kind>`` and a submitted spec run the same cells. Deterministic:
    the same normalized spec always yields the same cells in the same
    order, which is what makes per-cell events addressable by index alone.
    A spec its platform cannot run (no Figure 3 panels, too many shards)
    raises :class:`ConfigurationError`.
    """
    kind = KINDS[spec["kind"]]
    return kind.cells(
        import_module(kind.module), resolve_platform(spec["platform"]),
        spec["seed"], spec["params"],
    )


def render_pairs(pairs: Pairs) -> str:
    """One invocation's artifact from its ordered (spec, results) pairs.

    Pure function of the decoded results: the client renders locally from
    streamed values, byte-identical to running the same specs in process.
    Every pair is of one kind.
    """
    kind = KINDS[pairs[0][0]["kind"]]
    return kind.render(import_module(kind.module), pairs)


def render_results(spec: Dict[str, Any], results: Sequence[CellResult]) -> str:
    """One spec's artifact: :func:`render_pairs` of a single pair."""
    return render_pairs([(spec, results)])


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

    The client's in-process fallback. The server runs the same
    :func:`build_cells` output through the same
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

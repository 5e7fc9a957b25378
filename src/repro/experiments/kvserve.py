"""``repro kvstore`` — open-loop kvstore serving tails, hybrid engine.

The sweep the ROADMAP's million-user item asks for: for each value-tier
placement (local DRAM vs CXL) × background arm (off, an unthrottled
same-CCD hog, the hog paced by a QoS grant), serve an open-loop Poisson
request stream through the hybrid batched/fluid engine
(:mod:`repro.apps.kvserve`) and report the p50/p99/p999 tail. One cell
per arm keeps every point independent, cacheable, and fan-out friendly;
``engine="des"`` runs the same cell on the per-event reference model
(:class:`repro.apps.kvstore.KvServerModel`) for small-cell validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.apps.kvserve import HybridKvServer
from repro.apps.kvstore import KvServerModel, KvWorkload
from repro.errors import ConfigurationError
from repro.platform.topology import Platform
from repro.runner import Cell, CellResult

__all__ = [
    "ARMS",
    "ENGINES",
    "KvPointOutcome",
    "arms_for",
    "default_workers",
    "hog_cores",
    "run_point",
    "cells",
    "render",
]

#: Background arms, in presentation order: no background, an unthrottled
#: same-CCD streaming hog, the same hog under an 8 GB/s QoS grant.
ARMS: Tuple[str, ...] = ("off", "hog", "qos")

ENGINES: Tuple[str, ...] = ("hybrid", "des")

#: The QoS grant (GB/s) the ``qos`` arm paces the hog to — what a traffic
#: manager admission grant would enforce.
QOS_RATE_GBPS = 8.0


@dataclass(frozen=True)
class KvPointOutcome:
    """One (tier, background) serving point, summarized."""

    tier: str
    background: str
    engine: str
    requests: int
    workers: int
    mean_ns: float
    p50_ns: float
    p99_ns: float
    p999_ns: float
    max_ns: float
    achieved_qps: float


def default_workers(platform: Platform, server_ccd: int = 0) -> int:
    """Worker-pool size leaving same-CCD cores free for the hog arms."""
    cores = len(platform.cores_of_ccd(server_ccd))
    return 4 if cores >= 7 else max(1, cores // 2)


def hog_cores(
    platform: Platform, server_ccd: int = 0, workers: Optional[int] = None
) -> Tuple[int, ...]:
    """The server CCD's non-worker cores — where the hog arms run."""
    workers = default_workers(platform, server_ccd) if workers is None else workers
    return tuple(
        core.core_id
        for core in platform.cores_of_ccd(server_ccd)[workers:]
    )


def arms_for(platform: Platform) -> List[Tuple[str, str]]:
    """The (tier, background) grid, CXL rows only where the tier exists."""
    tiers = ["dram"] + (["cxl"] if platform.cxl_devices else [])
    return [(tier, background) for tier in tiers for background in ARMS]


def run_point(
    platform: Platform,
    tier: str,
    background: str,
    qps: float = 2_000_000.0,
    requests: int = 100_000,
    server_ccd: int = 0,
    workers: Optional[int] = None,
    engine: str = "hybrid",
    seed: int = 0,
) -> KvPointOutcome:
    """One serving arm as an independent, hardened-runner-friendly cell."""
    if background not in ARMS:
        raise ConfigurationError(
            f"unknown background arm {background!r} (choose from {ARMS})"
        )
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r} (choose from {ENGINES})"
        )
    workers = default_workers(platform, server_ccd) if workers is None else workers
    workload = KvWorkload(qps=qps, requests=requests, value_tier=tier)
    cores = list(hog_cores(platform, server_ccd, workers)) or None
    background_cores = cores if background != "off" else None
    if background != "off" and background_cores is None:
        raise ConfigurationError(
            f"CCD {server_ccd} of {platform.name} has no spare cores "
            f"for the {background!r} arm with {workers} workers"
        )
    rate = QOS_RATE_GBPS if background == "qos" else None
    if engine == "hybrid":
        report = HybridKvServer(platform, seed=seed).serve(
            workload,
            server_ccd=server_ccd,
            workers=workers,
            background_cores=background_cores,
            background_rate_gbps=rate,
        )
    else:
        # The per-event reference, jitter off so both engines time the
        # same deterministic fabric (the conformance comparison).
        report = KvServerModel(
            platform, server_ccd=server_ccd, workers=workers,
            seed=seed, with_dram_jitter=False,
        ).serve(
            workload,
            background_cores=background_cores,
            background_rate_gbps=rate,
        )
    stats = report.latency
    return KvPointOutcome(
        tier=tier,
        background=background,
        engine=engine,
        requests=requests,
        workers=workers,
        mean_ns=stats.mean,
        p50_ns=stats.p50,
        p99_ns=stats.p99,
        p999_ns=stats.p999,
        max_ns=stats.maximum,
        achieved_qps=report.achieved_qps,
    )


def cells(
    platform: Platform,
    qps: float = 2_000_000.0,
    requests: int = 100_000,
    engine: str = "hybrid",
    seed: int = 0,
) -> List[Cell]:
    """Every (tier, background) arm, one runner cell each."""
    return [
        Cell(
            run_point,
            (platform, tier, background),
            dict(qps=qps, requests=requests, engine=engine, seed=seed),
        )
        for tier, background in arms_for(platform)
    ]


def render(platform_name: str, results: Sequence[CellResult]) -> str:
    """The serving-tail table, one row per (tier, background) arm."""
    headers = [
        "tier", "background", "engine", "requests",
        "mean ns", "p50 ns", "p99 ns", "p999 ns", "achieved qps",
    ]
    rows = []
    for result in results:
        if not result.ok:
            rows.append([
                f"cell {result.index}", f"FAILED ({result.failure.kind})",
                "-", "-", "-", "-", "-", "-", "-",
            ])
            continue
        point: KvPointOutcome = result.value
        rows.append([
            point.tier,
            point.background,
            point.engine,
            str(point.requests),
            f"{point.mean_ns:.1f}",
            f"{point.p50_ns:.1f}",
            f"{point.p99_ns:.1f}",
            f"{point.p999_ns:.1f}",
            f"{point.achieved_qps:.0f}",
        ])
    return render_table(
        headers, rows,
        title=f"Open-loop kvstore serving tails ({platform_name})",
    )

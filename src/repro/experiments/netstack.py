"""``repro netstack`` — the networking stack vs. sender-driven partitioning.

The paper's closing argument (§4): chiplet fabrics need a real networking
stack, because the hardware's sender-driven, aggressive bandwidth
partitioning (§3.5, Figures 4–6) lets a noisy stream crush a victim. This
experiment re-runs the contention cell those figures built — here shaped as
Figure 4 case 2, a *small* paced victim (one CCX) against an *aggressive*
whole-chiplet hog, both forced onto the victim's NPS4 memory endpoints —
three times:

* **off** — the hardware as-is (demand-proportional FIFO splitting);
* **credits** — receiver-driven credit control: each endpoint splits its
  BDP-sized credit budget equally between the streams;
* **credits+qos** — the victim rides the latency class (2× fill weight),
  the hog the bulk class (half the credit share).

Each arm runs on *both* backends — the fluid steady state via
:func:`repro.net.stack.fluid_allocation` and the DES via
:func:`repro.net.inject.install` interposing credit gates — and reports
victim/hog throughput, the victim's share of its demand, Jain fairness,
and (DES) the victim's p50/p99 loaded latency. Every (arm, backend) pair
is one independent hardened-runner cell, so ``--jobs`` fan-out keeps the
output byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.analysis.report import render_table
from repro.analysis.stats import jain_index
from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.core.loadgen import ClosedLoopIssuer, lower_stream
from repro.errors import ConfigurationError
from repro.experiments.contention import (
    VICTIM_DEMAND_GBPS,
    contention_streams,
    shared_umc_ids,
)
from repro.net.inject import install
from repro.net.qos import QosClass
from repro.net.stack import NetStackConfig, fluid_allocation
from repro.platform.topology import Platform
from repro.runner import Cell, CellResult
from repro.sim.engine import Environment
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

__all__ = [
    "ARMS", "BACKENDS", "NetPoint", "config_for", "run_point",
    "run_point_traced", "cells", "render",
]

#: The stack arms, in presentation order.
ARMS: Tuple[str, ...] = ("off", "credits", "credits+qos")

#: The two simulation backends every arm runs on.
BACKENDS: Tuple[str, ...] = ("fluid", "des")

#: Offered rate of the aggressive hog (GB/s) — far above its fair share of
#: the two shared ~21 GB/s endpoints, mirroring Figure 4's 0.90-fraction
#: aggressive sender.
_HOG_DEMAND_GBPS = 64.0


@dataclass(frozen=True)
class NetPoint:
    """One (arm, backend) cell of the netstack comparison."""

    arm: str
    backend: str
    victim_gbps: float
    hog_gbps: float
    victim_share: float
    jain: float
    #: Victim loaded-latency percentiles (DES backend only; NaN on fluid).
    p50_ns: float
    p99_ns: float


def config_for(arm: str) -> NetStackConfig:
    """The stack configuration one arm name denotes."""
    if arm == "off":
        return NetStackConfig.off()
    if arm == "credits":
        return NetStackConfig.with_credits()
    if arm == "credits+qos":
        return NetStackConfig.with_qos(
            {"victim": QosClass.LATENCY, "hog": QosClass.BULK}
        )
    raise ConfigurationError(
        f"unknown arm {arm!r} (choose from {', '.join(ARMS)})"
    )


def _cell_streams(platform: Platform) -> Tuple[StreamSpec, StreamSpec]:
    """The small-victim / aggressive-hog variant of the contention cell,
    both streams on the victim chiplet's NPS4 UMCs."""
    victim_cores = tuple(
        core.core_id for core in platform.cores_of_ccx(0)
    )
    victim, hog = contention_streams(
        platform,
        victim_cores=victim_cores,
        hog_demand_gbps=_HOG_DEMAND_GBPS,
    )
    shared = tuple(shared_umc_ids(platform))
    return replace(victim, endpoints=shared), replace(hog, endpoints=shared)


def _run_fluid(platform: Platform, config: NetStackConfig) -> NetPoint:
    fabric = FabricModel(platform)
    victim, hog = _cell_streams(platform)
    grants = fluid_allocation(fabric, [victim, hog], config)
    return NetPoint(
        arm=config.label,
        backend="fluid",
        victim_gbps=grants["victim"],
        hog_gbps=grants["hog"],
        victim_share=grants["victim"] / VICTIM_DEMAND_GBPS,
        jain=jain_index([grants["victim"], grants["hog"]]),
        p50_ns=math.nan,
        p99_ns=math.nan,
    )


def _run_des(
    platform: Platform,
    config: NetStackConfig,
    seed: int,
    transactions_per_core: int,
    tracer=None,
) -> NetPoint:
    victim, hog = _cell_streams(platform)
    env = Environment()
    if tracer is not None:
        tracer.attach(env)
    resolver = PathResolver(env, platform, seed=seed)
    installation = install(
        resolver, config,
        flows=[victim.name, hog.name],
        endpoints=[f"umc{umc_id}" for umc_id in victim.endpoints],
    )
    window = platform.spec.bandwidth.mlp_read
    issuers: Dict[str, ClosedLoopIssuer] = {}
    finished = []
    for spec in (victim, hog):
        executor = TransactionExecutor(env, flow=spec.name)
        gate = installation.gate(executor, spec.name)
        issuer = lower_stream(
            env, gate, resolver, spec,
            window=window, count_per_worker=transactions_per_core,
        )
        issuers[spec.name] = issuer
        finished.append(issuer.start())
    env.run(env.all_of(finished))
    installation.assert_credits_home()
    results = {name: issuer.result() for name, issuer in issuers.items()}
    victim_result = results[victim.name]
    rates = [results[victim.name].achieved_gbps, results[hog.name].achieved_gbps]
    return NetPoint(
        arm=config.label,
        backend="des",
        victim_gbps=rates[0],
        hog_gbps=rates[1],
        victim_share=rates[0] / VICTIM_DEMAND_GBPS,
        jain=jain_index(rates),
        p50_ns=victim_result.stats.p50,
        p99_ns=victim_result.stats.p99,
    )


def run_point(
    platform: Platform,
    arm: str,
    backend: str,
    seed: int = 0,
    transactions_per_core: int = 400,
) -> NetPoint:
    """One (arm, backend) cell (independent, hardened-runner friendly)."""
    config = config_for(arm)
    if backend == "fluid":
        return _run_fluid(platform, config)
    if backend == "des":
        return _run_des(platform, config, seed, transactions_per_core)
    raise ConfigurationError(
        f"unknown backend {backend!r} (choose from {', '.join(BACKENDS)})"
    )


def run_point_traced(
    platform: Platform,
    arm: str,
    seed: int = 0,
    transactions_per_core: int = 40,
    profiler_top_k: int = 4,
):
    """One traced DES cell: ``(NetPoint, TraceRecording, profiler report)``.

    Tracing only observes the simulated clock, so the returned
    :class:`NetPoint` is bit-identical to ``run_point(..., "des")`` with
    the same arguments (asserted in the conformance suite). The attached
    :class:`~repro.telemetry.profiler.FlowProfiler` receives one sample
    per completed transaction keyed by the span's flow label, so spans
    and profiler telemetry share flow identities.
    """
    from repro.telemetry.profiler import FlowProfiler
    from repro.trace import Tracer

    profiler = FlowProfiler(top_k=profiler_top_k)
    tracer = Tracer(profiler=profiler)
    point = _run_des(
        platform, config_for(arm), seed, transactions_per_core, tracer=tracer
    )
    return point, tracer.recording(arm=arm), profiler.report()


def cells(
    platform: Platform,
    arms: Sequence[str] = ARMS,
    seed: int = 0,
    transactions_per_core: int = 400,
) -> List[Cell]:
    """All (arm, backend) cells, for :func:`repro.runner.run_cells_detailed`.

    Submission order is backends-major (all fluid arms, then all DES arms),
    matching the rendered table; output is byte-identical for any --jobs
    and with or without a result cache.
    """
    return [
        Cell(
            run_point,
            (platform, arm, backend),
            dict(seed=seed, transactions_per_core=transactions_per_core),
        )
        for backend in BACKENDS
        for arm in arms
    ]


def render(platform_name: str, results: Sequence[CellResult]) -> str:
    """The stack-on/off comparison table, one row per (backend, arm)."""
    headers = [
        "backend", "stack", "victim GB/s", "hog GB/s", "victim share",
        "Jain", "p50 ns", "p99 ns",
    ]
    rows = []
    for result in results:
        if result.ok:
            point = result.value
            rows.append([
                point.backend,
                point.arm,
                f"{point.victim_gbps:.2f}",
                f"{point.hog_gbps:.2f}",
                f"{point.victim_share:.3f}",
                f"{point.jain:.4f}",
                "-" if math.isnan(point.p50_ns) else f"{point.p50_ns:.1f}",
                "-" if math.isnan(point.p99_ns) else f"{point.p99_ns:.1f}",
            ])
        else:
            rows.append([
                f"cell {result.index}",
                f"FAILED ({result.failure.kind})",
                "-", "-", "-", "-", "-", "-",
            ])
    return render_table(
        headers, rows,
        title=(
            "Netstack: receiver-driven credits vs sender-driven "
            f"partitioning ({platform_name})"
        ),
    )

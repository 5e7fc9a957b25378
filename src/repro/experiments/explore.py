"""``repro explore`` — topology × routing × workload design-space sweep.

The generator (:mod:`repro.platform.generator`) turns the two calibrated
presets into points of a design space; this experiment walks that space the
way RapidChiplet walks chiplet design sweeps. Every (topology, routing,
workload) cell builds the generated platform, compiles its routed fabric
for the chosen policy, and scores the point on four axes:

* **victim share** — the Figure 4–6 contention probe on the generated
  mesh: a paced single-CCX victim against a whole-chiplet hog, both on
  the victim's memory endpoints; reported for the fluid steady state and
  the DES packet model independently;
* **Jain fairness** — across every stream's achieved throughput;
* **p99 latency** — tail packet latency through the DES mesh
  (:class:`~repro.noc.router.AdaptiveMeshNetwork`), open-loop paced
  injection;
* **bisection utilization** — mean fluid utilization of the mesh links
  crossing the vertical midline: how much of the topology's bisection the
  workload actually keeps busy.

The scalar ``score`` folds them into one ranking number::

    score = 100 × jain × bisection_util × share_term / p99_us

with ``share_term`` the fluid victim share on the contention workload and
1.0 on workloads without a victim — fair, bisection-busy, low-tail points
win. Every cell is one hardened-runner :class:`~repro.runner.Cell` whose
arguments fold the full :class:`~repro.platform.generator.TopologyGen`
spec into the content-addressed cache key, so sweeps re-run incrementally
and ``--jobs`` fan-out stays byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.analysis.stats import jain_index
from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.errors import ConfigurationError
from repro.experiments.contention import (
    VICTIM_DEMAND_GBPS,
    contention_streams,
    shared_umc_ids,
)
from repro.noc.router import AdaptiveMeshNetwork
from repro.noc.routing import RoutingPolicy
from repro.platform.generator import TopologyGen, catalog_names, from_catalog
from repro.platform.topology import Platform
from repro.runner import Cell, CellResult
from repro.sim.engine import Environment
from repro.sim.rng import SplitRng
from repro.transport.message import OpKind

__all__ = [
    "ROUTINGS", "WORKLOADS", "ExplorePoint", "run_point", "cells", "render",
]

#: Routing policies the sweep compares, in presentation order.
ROUTINGS: Tuple[str, ...] = ("xy", "adaptive")

#: Workloads the sweep drives, in presentation order.
WORKLOADS: Tuple[str, ...] = ("contention", "uniform")

#: Offered rate of the contention hog (GB/s), as in ``repro netstack``.
_HOG_DEMAND_GBPS = 64.0

#: DES packet size: one pipelined mesh FLIT train (4 KiB transfer).
_PACKET_BYTES = 4096


@dataclass(frozen=True)
class ExplorePoint:
    """One scored (topology, routing, workload) cell of the sweep."""

    topology: str
    routing: str
    workload: str
    #: Fluid / DES victim share of demand (NaN on victim-less workloads).
    victim_share: float
    des_victim_share: float
    jain: float
    p99_ns: float
    bisection_util: float
    score: float


def _workload_streams(platform: Platform, workload: str) -> List[StreamSpec]:
    """The workload's streams, each on the UMC interleave set it targets."""
    if workload == "contention":
        victim_cores = tuple(
            core.core_id for core in platform.cores_of_ccx(0)
        )
        victim, hog = contention_streams(
            platform,
            victim_cores=victim_cores,
            hog_demand_gbps=_HOG_DEMAND_GBPS,
        )
        shared = tuple(shared_umc_ids(platform))
        return [
            replace(victim, endpoints=shared), replace(hog, endpoints=shared)
        ]
    if workload == "uniform":
        # Every chiplet offers its full GMI rate, interleaved over all
        # memory channels (NPS1) — the all-to-all background the bisection
        # metric is about.
        rate = platform.spec.bandwidth.gmi_read_gbps
        return [
            StreamSpec(
                f"ccd{ccd_id}",
                OpKind.READ,
                tuple(core.core_id for core in platform.cores_of_ccd(ccd_id)),
                demand_gbps=rate,
                endpoints=tuple(sorted(platform.umcs)),
            )
            for ccd_id in sorted(platform.ccds)
        ]
    raise ConfigurationError(
        f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})"
    )


def _bisection_utilization(
    fabric: FabricModel, specs: Sequence[StreamSpec]
) -> float:
    """Mean read-direction utilization of the mesh links crossing x=W/2."""
    routing = fabric.routing
    assert routing is not None
    mid = routing.grid.width / 2.0
    utilizations = fabric.utilizations(specs)
    cut = [
        value
        for name, value in sorted(utilizations.items())
        if name.startswith("mesh:") and name.endswith(":r")
        and _crosses_midline(name, mid)
    ]
    return sum(cut) / len(cut) if cut else 0.0


def _crosses_midline(channel_name: str, mid: float) -> bool:
    stem = channel_name.split(":")[1]  # "x,y,z>x,y,z"
    src, dst = stem.split(">")
    src_x = int(src.split(",")[0])
    dst_x = int(dst.split(",")[0])
    return (src_x < mid) != (dst_x < mid)


def _des_metrics(
    gen: TopologyGen,
    policy: RoutingPolicy,
    specs: Sequence[StreamSpec],
    platform: Platform,
    seed: int,
    packets_per_sender: int,
) -> Tuple[float, float]:
    """(victim share, p99 ns) from open-loop paced DES packet injection.

    One sender per stream, placed at the stream's chiplet mesh stop,
    striping packets over its endpoints' stops. Injection is
    open-loop (each packet is its own process released at its due time),
    so congested paths grow queues and stretch the sender's makespan —
    achieved throughput and tail latency emerge rather than being assumed.
    """
    routing = gen.noc_routing(policy)
    env = Environment()
    net = AdaptiveMeshNetwork(
        env,
        routing.grid,
        port_gbps=routing.link_read_gbps,
        x_hop_ns=routing.x_hop_ns,
        y_hop_ns=routing.y_hop_ns,
        z_hop_ns=routing.z_hop_ns,
        policy=policy,
    )
    rng = SplitRng(seed)
    latencies: List[float] = []
    finished: Dict[str, List[float]] = {}
    starts: Dict[str, float] = {}

    def packet(src, dst, due, stream_name):
        if env.now < due:
            yield due - env.now
        latency = yield from net.send(src, dst, _PACKET_BYTES)
        latencies.append(latency)
        finished[stream_name].append(env.now)

    for index, spec in enumerate(specs):
        demand = spec.demand_gbps or platform.spec.bandwidth.gmi_read_gbps
        interval = _PACKET_BYTES / demand
        stream_rng = rng.stream(f"explore/{spec.name}")
        offset = float(stream_rng.uniform(0.0, interval))
        ccd_id = platform.core(spec.core_ids[0]).ccd_id
        src = routing.ccd_coords3[ccd_id % len(routing.ccd_coords3)]
        starts[spec.name] = offset
        finished[spec.name] = []
        for i in range(packets_per_sender):
            dst_umc = spec.endpoints[(index + i) % len(spec.endpoints)]
            dst = routing.umc_coords3[dst_umc % len(routing.umc_coords3)]
            due = offset + i * interval
            if src == dst:
                # Co-located stop: delivery never enters the mesh. Count
                # it at its due time with zero mesh latency so the
                # sender's achieved rate reflects the local path.
                latencies.append(0.0)
                finished[spec.name].append(due)
                continue
            env.process(packet(src, dst, due, spec.name))
    env.run()

    def achieved(name: str) -> float:
        completions = finished[name]
        if not completions:
            return 0.0
        span = max(completions) - starts[name]
        return len(completions) * _PACKET_BYTES / span if span > 0 else 0.0

    if specs[0].name == "victim":
        # A paced sender cannot beat its own demand; the clamp absorbs the
        # one-interval makespan bias of all-local delivery.
        victim_share = min(
            1.0, achieved("victim") / (specs[0].demand_gbps or 1.0)
        )
    else:
        victim_share = math.nan
    import numpy as np

    p99 = float(np.percentile(np.asarray(latencies), 99.0))
    return victim_share, p99


def run_point(
    topology: str,
    gen: TopologyGen,
    routing: str,
    workload: str,
    seed: int = 0,
    packets_per_sender: int = 60,
) -> ExplorePoint:
    """One scored sweep cell (independent, hardened-runner friendly).

    ``gen`` rides along as an explicit argument so the runner's cache key
    folds the full generator spec (via ``TopologyGen.__repro_cache_key__``)
    — editing a topology's geometry invalidates exactly its cells.
    """
    if routing not in ROUTINGS:
        raise ConfigurationError(
            f"unknown routing {routing!r} (choose from {', '.join(ROUTINGS)})"
        )
    policy = RoutingPolicy(routing)
    platform = gen.platform()
    fabric = FabricModel(platform, routing=gen.noc_routing(policy))
    specs = _workload_streams(platform, workload)
    achieved = fabric.achieved_gbps(specs)
    rates = [achieved[spec.name] for spec in specs]
    jain = jain_index(rates)
    if workload == "contention":
        victim_share = achieved["victim"] / VICTIM_DEMAND_GBPS
    else:
        victim_share = math.nan
    bisection = _bisection_utilization(fabric, specs)
    des_victim_share, p99_ns = _des_metrics(
        gen, policy, specs, platform, seed, packets_per_sender
    )
    share_term = 1.0 if math.isnan(victim_share) else victim_share
    p99_us = max(p99_ns / 1000.0, 1e-9)
    score = 100.0 * jain * bisection * share_term / p99_us
    return ExplorePoint(
        topology=topology,
        routing=routing,
        workload=workload,
        victim_share=victim_share,
        des_victim_share=des_victim_share,
        jain=jain,
        p99_ns=p99_ns,
        bisection_util=bisection,
        score=score,
    )


def cells(
    topologies: Optional[Sequence[str]] = None,
    routings: Sequence[str] = ROUTINGS,
    workloads: Sequence[str] = WORKLOADS,
    seed: int = 0,
    packets_per_sender: int = 60,
) -> List[Cell]:
    """The sweep's cells (default: the whole catalog), one per point.

    Submission order is topology-major (all of one topology's cells, then
    the next), matching the rendered table; output is byte-identical for
    any ``--jobs`` and with or without a result cache.
    """
    names = list(topologies) if topologies is not None else list(catalog_names())
    return [
        Cell(
            run_point,
            (name, from_catalog(name), routing, workload),
            dict(seed=seed, packets_per_sender=packets_per_sender),
        )
        for name in names
        for workload in workloads
        for routing in routings
    ]


def render(results: Sequence[CellResult]) -> str:
    """The scored sweep table, one row per (topology, workload, routing)."""
    headers = [
        "topology", "workload", "routing", "victim share", "victim (DES)",
        "Jain", "p99 ns", "bisection", "score",
    ]
    rows = []
    for result in results:
        if result.ok:
            point = result.value
            rows.append([
                point.topology,
                point.workload,
                point.routing,
                "-" if math.isnan(point.victim_share)
                else f"{point.victim_share:.3f}",
                "-" if math.isnan(point.des_victim_share)
                else f"{point.des_victim_share:.3f}",
                f"{point.jain:.4f}",
                f"{point.p99_ns:.1f}",
                f"{point.bisection_util:.3f}",
                f"{point.score:.3f}",
            ])
        else:
            rows.append([
                f"cell {result.index}",
                f"FAILED ({result.failure.kind})",
                "-", "-", "-", "-", "-", "-", "-",
            ])
    return render_table(
        headers, rows,
        title="Explore: generated topology x routing x workload sweep",
    )

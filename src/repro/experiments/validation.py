"""Cross-model validation: the DES and fluid engines must agree.

DESIGN.md's modelling decision is to use two engines — transaction-level
DES for latency, fluid flows for sustained bandwidth. Where their domains
overlap (steady-state throughput of saturating streams), they must agree,
or the Figure 3 panels and Table 3 would describe different machines. This
experiment measures that agreement, plus an in-mesh hotspot study on the
detailed hop-by-hop network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.report import render_table
from repro.core.microbench import MicroBench
from repro.core.flows import Scope
from repro.noc.mesh import Mesh
from repro.noc.router import MeshNetwork
from repro.platform.topology import Platform
from repro.sim.engine import Environment
from repro.transport.message import OpKind

__all__ = ["AgreementPoint", "des_vs_fluid", "mesh_hotspot", "render"]


@dataclass(frozen=True)
class AgreementPoint:
    """One scenario measured by both engines."""

    scenario: str
    des_gbps: float
    fluid_gbps: float

    @property
    def ratio(self) -> float:
        return self.des_gbps / self.fluid_gbps


#: The overlap scenarios both engines must agree on.
_AGREEMENT_SCENARIOS: List[Tuple[str, Scope, OpKind]] = [
    ("core-read", Scope.CORE, OpKind.READ),
    ("core-nt-write", Scope.CORE, OpKind.NT_WRITE),
    ("ccx-read", Scope.CCX, OpKind.READ),
    ("ccd-read", Scope.CCD, OpKind.READ),
    ("ccd-nt-write", Scope.CCD, OpKind.NT_WRITE),
]


def _agreement_cell(
    platform: Platform,
    name: str,
    scope: Scope,
    op: OpKind,
    transactions_per_core: int,
    seed: int,
) -> AgreementPoint:
    """One overlap scenario measured by both engines (a runner cell)."""
    from repro.core.flows import StreamSpec

    bench = MicroBench(platform, seed=seed)
    fluid = bench.stream_bandwidth(scope, op)
    cores = list(StreamSpec.cores_for_scope(platform, scope))
    des = bench.loaded_latency(
        cores, op, offered_gbps=None,
        transactions_per_core=transactions_per_core,
    )
    return AgreementPoint(name, des.achieved_gbps, fluid)


def des_vs_fluid(
    platform: Platform,
    transactions_per_core: int = 1500,
    seed: int = 0,
    jobs=None,
) -> List[AgreementPoint]:
    """Saturating-stream throughput from both engines, several scopes.

    Each scenario builds its own MicroBench (own Environment, own seed
    streams), so the scenarios fan out over worker processes and return in
    canonical order regardless of ``jobs``.
    """
    from repro.runner import Cell, run_cells

    return run_cells(
        [
            Cell(
                _agreement_cell,
                (platform, name, scope, op, transactions_per_core, seed),
            )
            for name, scope, op in _AGREEMENT_SCENARIOS
        ],
        jobs=jobs,
    )


@dataclass(frozen=True)
class HotspotResult:
    """In-mesh traversal latency: all-to-one vs all-to-all traffic."""

    hotspot_mean_ns: float
    spread_mean_ns: float

    @property
    def slowdown(self) -> float:
        return self.hotspot_mean_ns / self.spread_mean_ns


def mesh_hotspot(
    platform: Platform, packets_per_sender: int = 200
) -> HotspotResult:
    """Drive the hop-by-hop mesh with hotspot vs spread patterns.

    All CCD ports inject packets either at one UMC stop (hotspot — the
    head-of-line blocking §2.3's buffered routers suffer) or round-robin
    over all UMC stops (spread). The detailed router model makes the
    difference visible where the collapsed path model cannot.
    """
    lat = platform.spec.latency
    mesh = Mesh(
        platform.spec.mesh_grid[0], platform.spec.mesh_grid[1],
        lat.x_hop_ns, lat.y_hop_ns, max(0.0, lat.turn_ns),
    )
    umc_coords = sorted({umc.coord for umc in platform.umcs.values()})
    ccd_coords = sorted({ccd.coord for ccd in platform.ccds.values()})
    port_gbps = platform.spec.bandwidth.noc_read_gbps / (
        2.0 * len(ccd_coords)
    )

    def run(pattern: str, lanes_per_sender: int = 4) -> float:
        env = Environment()
        network = MeshNetwork(env, mesh, port_gbps=port_gbps)
        latencies: List[float] = []

        def lane(src, index):
            for i in range(packets_per_sender // lanes_per_sender):
                if pattern == "hotspot":
                    dst = umc_coords[0]
                else:
                    dst = umc_coords[(index + i) % len(umc_coords)]
                if dst == src:
                    dst = umc_coords[(index + i + 1) % len(umc_coords)]
                measured = yield env.process(network.send(src, dst, 64))
                latencies.append(measured)

        for index, src in enumerate(ccd_coords):
            for lane_id in range(lanes_per_sender):
                env.process(lane(src, index + lane_id))
        env.run()
        return sum(latencies) / len(latencies)

    return HotspotResult(run("hotspot"), run("spread"))


def render(
    agreement: Dict[str, List[AgreementPoint]],
    hotspots: Dict[str, HotspotResult],
) -> str:
    """Render the result as an aligned paper-style text table."""
    rows = []
    for platform_name, points in agreement.items():
        for point in points:
            rows.append([
                platform_name, point.scenario,
                f"{point.des_gbps:.1f}", f"{point.fluid_gbps:.1f}",
                f"{point.ratio:.3f}",
            ])
    lines = [render_table(
        ["platform", "scenario", "DES GB/s", "fluid GB/s", "ratio"],
        rows, title="Cross-model validation: DES vs fluid throughput",
    )]
    lines.append("")
    for platform_name, result in hotspots.items():
        lines.append(
            f"mesh hotspot ({platform_name}): all-to-one "
            f"{result.hotspot_mean_ns:.1f} ns vs spread "
            f"{result.spread_mean_ns:.1f} ns "
            f"({result.slowdown:.2f}x slower under the hotspot)"
        )
    return "\n".join(lines)

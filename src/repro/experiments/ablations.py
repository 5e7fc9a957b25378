"""Ablations for the design points DESIGN.md calls out.

* :func:`manager_vs_sender_driven` — re-runs the Figure 4 cases under the
  §4-proposed global traffic manager (max-min fair) and contrasts the
  allocations and Jain fairness with the hardware's sender-driven split.
* :func:`detailed_vs_collapsed_noc` — validates the collapsed-latency path
  model against the hop-by-hop mesh simulation (they must agree unloaded).
* :func:`token_pool_ablation` — Figure 3 panel (d) with the traffic-control
  modules removed, showing the queueing the Phantom-Queue-like structure
  bounds (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.core.loadgen import lower_stream
from repro.core.partition import contend
from repro.experiments.fig4 import CASES, link_capacity_gbps
from repro.fluid.solver import Policy
from repro.manager.manager import ManagedAllocation
from repro.noc.mesh import Mesh
from repro.noc.router import MeshNetwork
from repro.platform.numa import Position
from repro.platform.topology import Platform
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = [
    "ManagerAblation",
    "manager_vs_sender_driven",
    "detailed_vs_collapsed_noc",
    "token_pool_ablation",
]


@dataclass(frozen=True)
class ManagerAblation:
    """Sender-driven vs managed allocation for one Figure 4 case."""

    case: str
    requested: Dict[str, float]
    sender_driven: Dict[str, float]
    managed: Dict[str, float]

    def fairness(self) -> Tuple[float, float]:
        """(sender-driven, managed) Jain indices."""
        return (
            ManagedAllocation(self.sender_driven, Policy.DEMAND_PROPORTIONAL)
            .jain_fairness(),
            ManagedAllocation(self.managed, Policy.MAX_MIN).jain_fairness(),
        )


def manager_vs_sender_driven(
    platform: Platform, link: str = "gmi"
) -> Dict[str, ManagerAblation]:
    """Figure 4 cases under both allocation disciplines."""
    capacity = link_capacity_gbps(platform, link)
    out: Dict[str, ManagerAblation] = {}
    for case, (frac0, frac1) in CASES.items():
        requested = {"flow0": frac0 * capacity, "flow1": frac1 * capacity}
        out[case] = ManagerAblation(
            case=case,
            requested=requested,
            sender_driven=contend(capacity, requested, Policy.DEMAND_PROPORTIONAL),
            managed=contend(capacity, requested, Policy.MAX_MIN),
        )
    return out


def detailed_vs_collapsed_noc(
    platform: Platform, size_bytes: int = CACHELINE
) -> Dict[str, float]:
    """Unloaded mesh traversal: hop-by-hop DES vs the analytic collapse.

    The detailed network adds per-hop serialization (bytes/port-rate) that
    the analytic model folds into the path's fixed service deduction, so the
    comparison subtracts it explicitly.
    """
    lat = platform.spec.latency
    mesh = Mesh(
        width=platform.spec.mesh_grid[0],
        height=platform.spec.mesh_grid[1],
        x_hop_ns=lat.x_hop_ns,
        y_hop_ns=lat.y_hop_ns,
        turn_ns=lat.turn_ns,
    )
    env = Environment()
    port_gbps = platform.spec.bandwidth.noc_read_gbps / platform.spec.ccd_count
    network = MeshNetwork(env, mesh, port_gbps=port_gbps)
    src = platform.ccds[0].coord
    results: Dict[str, float] = {}
    for position in Position:
        umcs = platform.umcs_at(0, position)
        if not umcs:
            continue
        dst = umcs[0].coord
        done = env.process(network.send(src, dst, size_bytes))
        measured = env.run(done)
        hops = mesh.hop_count(src, dst)
        serialization = hops * size_bytes / port_gbps
        analytic = mesh.cost_ns(src, dst)
        detailed = measured - serialization
        # Express-channel (negative turn) credit is analytic-only.
        if mesh.turn_ns < 0 and mesh.turns(src, dst):
            detailed += mesh.turn_ns
        results[position.value] = detailed - analytic
    return results


def token_pool_ablation(
    platform: Platform,
    transactions_per_core: int = 400,
    seed: int = 0,
) -> Dict[str, Dict[str, float]]:
    """GMI saturation with and without the traffic-control modules.

    End-to-end latency is conserved (Little's law: the in-flight requests
    wait *somewhere*), but the token pools move the backlog from the I/O
    die's buffers to the chiplet edge — exactly what the Phantom-Queue-like
    "queueless structure … tokens and backpressure" of §3.2 is for. Returns,
    per variant, the mean latency and the deepest I/O-die-side (GMI) backlog.
    """
    spec = StreamSpec(
        "probe", OpKind.READ,
        tuple(c.core_id for c in platform.cores_of_ccd(0)),
    )
    spec = replace(spec, endpoints=FabricModel(platform).endpoints_of(spec))
    out: Dict[str, Dict[str, float]] = {}
    for label, use_pools in (("with_tokens", True), ("without_tokens", False)):
        env = Environment()
        resolver = PathResolver(env, platform, seed=seed)
        executor = TransactionExecutor(env)
        issuer = lower_stream(
            env, executor, resolver, spec,
            window=platform.spec.bandwidth.mlp_read,
            count_per_worker=transactions_per_core,
            use_token_pools=use_pools,
        )
        result = issuer.run()
        gmi = resolver.gmi_arbiter(0)
        out[label] = {
            "mean_latency_ns": result.stats.mean,
            "gmi_max_backlog": float(gmi.read_dir.max_queue_len),
        }
    return out

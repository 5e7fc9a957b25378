"""Cost models for shared-memory vs multikernel state maintenance.

Both designs are parameterized entirely by the platform's measured
characteristics (Table 2 latencies, IF link capacities), so the comparison
changes when the chiplet network does — which is the point of §4 #2.

Queueing uses the M/D/1 waiting-time formula ``W = ρ·S / (2(1−ρ))`` — the
update service is deterministic (a line transfer or a message apply), and
arrivals from many independent cores are approximately Poisson.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.platform.topology import Platform
from repro.units import CACHELINE

__all__ = [
    "cacheline_transfer_ns",
    "DesignPoint",
    "SharedMemoryDesign",
    "MultikernelDesign",
]


def _md1_wait_ns(service_ns: float, utilization: float) -> float:
    """M/D/1 mean waiting time; infinite at or beyond saturation."""
    if utilization >= 1.0:
        return float("inf")
    if utilization <= 0.0:
        return 0.0
    return utilization * service_ns / (2.0 * (1.0 - utilization))


def cacheline_transfer_ns(
    platform: Platform, src_ccd: int, dst_ccd: int
) -> float:
    """Dirty-line transfer latency between two cores' caches.

    Same chiplet: an L3-slice hit. Across chiplets: the snoop and data
    response traverse IF → mesh → IF — the "extended data path" of §3.2.
    """
    lat = platform.spec.latency
    if src_ccd == dst_ccd:
        return lat.l3_ns
    src = platform.ccds[src_ccd].coord
    dst = platform.ccds[dst_ccd].coord
    dx, dy = platform.mesh_offset(src, dst)
    # Request out (IF + CCM), mesh both ways, response back (CCM + IF),
    # plus the victim L3 lookup on the far side.
    return (
        lat.l3_ns
        + 2.0 * (lat.if_link_ns + lat.ccm_ns)
        + 2.0 * lat.mesh_cost_ns(dx, dy)
        + lat.l3_ns
    )


@dataclass(frozen=True)
class DesignPoint:
    """One design evaluated at one offered update rate."""

    design: str
    platform: str
    offered_mops: float            # million updates / second
    #: Mean latency until the update is globally visible (ns); inf when the
    #: design cannot sustain the offered rate.
    visibility_ns: float
    #: Mean latency the *updating core* observes (ns).
    local_ns: float
    #: Utilization of the design's binding resource.
    utilization: float

    @property
    def sustainable(self) -> bool:
        return self.utilization < 1.0


class SharedMemoryDesign:
    """One shared object; writers migrate the line to themselves."""

    def __init__(self, platform: Platform, writer_ccds: Optional[int] = None):
        self.platform = platform
        self.writer_ccds = (
            writer_ccds if writer_ccds is not None else platform.spec.ccd_count
        )
        if not 1 <= self.writer_ccds <= platform.spec.ccd_count:
            raise ConfigurationError(
                f"writer_ccds must be in [1, {platform.spec.ccd_count}]"
            )

    def mean_transfer_ns(self) -> float:
        """Average line-migration cost over uniformly random writer pairs."""
        ccds = list(range(self.writer_ccds))
        total = 0.0
        for src in ccds:
            for dst in ccds:
                total += cacheline_transfer_ns(self.platform, src, dst)
        return total / (len(ccds) ** 2)

    def max_mops(self) -> float:
        """Updates serialize on the line: 1 / mean transfer cost."""
        return 1e3 / self.mean_transfer_ns()  # ns⁻¹ → Mops

    def evaluate(self, offered_mops: float) -> DesignPoint:
        """The design point at one offered update rate."""
        if offered_mops < 0:
            raise ConfigurationError("offered rate must be non-negative")
        service = self.mean_transfer_ns()
        utilization = offered_mops / self.max_mops()
        wait = _md1_wait_ns(service, utilization)
        # The writer holds the line for the whole transfer; visibility and
        # local completion coincide (it IS the shared object).
        latency = service + wait
        return DesignPoint(
            "shared-memory", self.platform.name, offered_mops,
            visibility_ns=latency, local_ns=latency, utilization=utilization,
        )


class MultikernelDesign:
    """Per-chiplet replicas synchronized with asynchronous messages."""

    def __init__(
        self,
        platform: Platform,
        replica_ccds: Optional[int] = None,
        message_bytes: int = CACHELINE,
        per_message_cpu_ns: float = 25.0,
    ) -> None:
        self.platform = platform
        self.replicas = (
            replica_ccds if replica_ccds is not None else platform.spec.ccd_count
        )
        if not 2 <= self.replicas <= platform.spec.ccd_count:
            raise ConfigurationError(
                f"replicas must be in [2, {platform.spec.ccd_count}]"
            )
        self.message_bytes = message_bytes
        #: Marshalling + dispatch cost per message on the receiving kernel
        #: (the multikernel's CPU tax).
        self.per_message_cpu_ns = per_message_cpu_ns

    def message_path_ns(self) -> float:
        """One-way message latency between the two most distant replicas."""
        lat = self.platform.spec.latency
        worst = 0.0
        for src in range(self.replicas):
            for dst in range(self.replicas):
                if src == dst:
                    continue
                dx, dy = self.platform.mesh_offset(
                    self.platform.ccds[src].coord,
                    self.platform.ccds[dst].coord,
                )
                cost = (
                    lat.if_link_ns + lat.ccm_ns
                    + lat.mesh_cost_ns(dx, dy)
                    + lat.ccm_ns + lat.if_link_ns
                )
                worst = max(worst, cost)
        return worst

    def max_mops(self) -> float:
        """The tighter of the IF-link budget and the receive-CPU budget."""
        if_cap = self.platform.link("if/ccd0").write_gbps
        link_bound = (
            if_cap * 1e3
            / (self.message_bytes * (self.replicas - 1) * 2.0)
            * self.replicas
        )
        # Each update is applied on replicas−1 receivers; one core per
        # replica drains its queue.
        cpu_bound = (
            self.replicas
            * 1e3
            / (self.per_message_cpu_ns * (self.replicas - 1))
        )
        return min(link_bound, cpu_bound)

    def evaluate(self, offered_mops: float) -> DesignPoint:
        """The design point at one offered update rate."""
        if offered_mops < 0:
            raise ConfigurationError("offered rate must be non-negative")
        lat = self.platform.spec.latency
        local = lat.l3_ns  # apply to the local replica
        utilization = offered_mops / self.max_mops()
        # Receive-side queueing: each replica's apply loop is an M/D/1
        # server draining (replicas-1)/replicas of the offered rate.
        service = self.per_message_cpu_ns
        per_replica_mops = offered_mops * (self.replicas - 1) / self.replicas
        rho_cpu = per_replica_mops * service / 1e3
        wait = _md1_wait_ns(service, min(rho_cpu, utilization))
        visibility = (
            local + self.message_path_ns() + service + wait
        )
        return DesignPoint(
            "multikernel", self.platform.name, offered_mops,
            visibility_ns=visibility, local_ns=local, utilization=utilization,
        )

"""Hop-by-hop mesh network simulation.

The transaction-level experiments collapse a route's switching hops into a
single latency term for speed (see :mod:`repro.transport.path`). This module
keeps the *detailed* alternative: a full mesh of routers with per-hop output
serializers, used to validate the collapsed model (they agree on unloaded
latency by construction) and to study in-mesh contention directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.noc.flowcontrol import TokenPool
from repro.noc.mesh import Mesh
from repro.noc.routing import Coord3, RouterGrid, RoutingPolicy
from repro.sim.engine import Environment, Event, Resource

Coord = Tuple[int, int]

__all__ = ["MeshNetwork", "AdaptiveMeshNetwork"]


@dataclass
class _Port:
    """One router output port: a serializer plus the wire to the next stop."""

    resource: Resource
    hop_ns: float
    gbps: float
    bytes_forwarded: int = 0


class MeshNetwork:
    """A mesh of routers with XY routing and per-port FIFO serialization."""

    def __init__(
        self,
        env: Environment,
        mesh: Mesh,
        port_gbps: float,
        lanes_per_port: int = 1,
    ) -> None:
        self.env = env
        self.mesh = mesh
        self.port_gbps = port_gbps
        self._ports: Dict[Tuple[Coord, Coord], _Port] = {}
        for x in range(mesh.width):
            for y in range(mesh.height):
                here = (x, y)
                for neighbor in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                    if mesh.contains(neighbor):
                        hop_ns = (
                            mesh.x_hop_ns
                            if neighbor[0] != x
                            else mesh.y_hop_ns
                        )
                        self._ports[(here, neighbor)] = _Port(
                            Resource(env, capacity=lanes_per_port),
                            hop_ns,
                            port_gbps,
                        )

    def port(self, src: Coord, dst: Coord) -> _Port:
        """The output port from one stop to an adjacent stop."""
        try:
            return self._ports[(src, dst)]
        except KeyError:
            raise TopologyError(f"no port from {src} to {dst}") from None

    def send(
        self, src: Coord, dst: Coord, size_bytes: int
    ) -> Generator[Event, None, float]:
        """DES process: forward one packet along the XY route.

        Returns the network traversal latency (ns) experienced by the packet.
        """
        start = self.env.now
        path = self.mesh.route(src, dst)
        hops = list(zip(path, path[1:]))
        previous_axis = None
        for here, nxt in hops:
            axis = "x" if nxt[0] != here[0] else "y"
            if previous_axis is not None and axis != previous_axis:
                # XY routing turns at most once (x-moves precede y-moves).
                # Express channels (negative turn_ns) cannot make the DES go
                # backwards; they are handled analytically in Mesh.cost_ns.
                yield max(0.0, self.mesh.turn_ns)
            previous_axis = axis
            port = self.port(here, nxt)
            with port.resource.request() as grant:
                yield grant
                service = size_bytes / port.gbps
                port.bytes_forwarded += size_bytes
                yield service + port.hop_ns
        return self.env.now - start


@dataclass
class _AdaptivePort:
    """One output port of the adaptive router.

    On top of the serializer + wire of :class:`_Port`, each port carries a
    BDP-sized downstream-credit pool
    (:func:`repro.net.credits.link_credit_budget`)
    — the telemetry the adaptive outport selection reads.
    """

    resource: Resource
    credits: TokenPool
    hop_ns: float
    gbps: float
    bytes_forwarded: int = 0


class AdaptiveMeshNetwork:
    """Credit-aware adaptive minimal routing over a :class:`RouterGrid`.

    The routing discipline the ISSUE's tentpole asks for: at each router,
    among the minimal-quadrant outports take those of minimum link weight
    (:meth:`RouterGrid.adaptive_ports`), pick the one with the most
    downstream credits, break ties round-robin. When no candidate has a
    free credit — or under ``RoutingPolicy.XY`` always — the packet takes
    the escape-VC dimension-ordered hop instead
    (:meth:`RouterGrid.escape_next`), whose channel-dependency graph is
    acyclic by construction, so the network cannot deadlock (Duato).

    Works over 2D meshes and 3D sparse-pillar grids alike; hop latencies
    are per-axis, with vertical (TSV) hops typically slower.
    """

    def __init__(
        self,
        env: Environment,
        grid: RouterGrid,
        port_gbps: float,
        x_hop_ns: float,
        y_hop_ns: float,
        z_hop_ns: Optional[float] = None,
        policy: RoutingPolicy = RoutingPolicy.ADAPTIVE,
        credit_config: Optional["CreditConfig"] = None,
        lanes_per_port: int = 1,
    ) -> None:
        from repro.net.credits import CreditConfig, link_credit_budget

        if port_gbps <= 0:
            raise TopologyError(f"port_gbps must be positive, got {port_gbps}")
        self.env = env
        self.grid = grid
        self.policy = policy
        self.port_gbps = port_gbps
        config = credit_config or CreditConfig()
        hop_ns = {
            "x": x_hop_ns,
            "y": y_hop_ns,
            "z": z_hop_ns if z_hop_ns is not None else (x_hop_ns + y_hop_ns),
        }
        self._ports: Dict[Tuple[Coord3, Coord3], _AdaptivePort] = {}
        for here, neighbor in grid.links():
            axis = (
                "z" if neighbor[2] != here[2]
                else "x" if neighbor[0] != here[0]
                else "y"
            )
            # Credit loop RTT = hop out + credit return over the same wire.
            depth = link_credit_budget(
                port_gbps, 2.0 * hop_ns[axis], config
            )
            self._ports[(here, neighbor)] = _AdaptivePort(
                Resource(env, capacity=lanes_per_port),
                TokenPool(env, depth, name=f"crd:{here}>{neighbor}"),
                hop_ns[axis],
                port_gbps,
            )
        self._rr: Dict[Coord3, int] = {}

    def port(self, src: Coord3, dst: Coord3) -> _AdaptivePort:
        """The output port from one router to an adjacent router."""
        try:
            return self._ports[(src, dst)]
        except KeyError:
            raise TopologyError(f"no port from {src} to {dst}") from None

    def _pick_adaptive(self, here: Coord3, dst: Coord3) -> Optional[Coord3]:
        """The credit-aware outport choice, or None to fall back to escape."""
        if self.policy is not RoutingPolicy.ADAPTIVE:
            return None
        candidates: List[Coord3] = [
            port
            for port in self.grid.adaptive_ports(here, dst)
            if self._ports[(here, port)].credits.available > 0
        ]
        if not candidates:
            return None
        best = max(
            self._ports[(here, port)].credits.available
            for port in candidates
        )
        tied = [
            port
            for port in candidates
            if self._ports[(here, port)].credits.available == best
        ]
        slot = self._rr.get(here, 0)
        self._rr[here] = slot + 1
        return tied[slot % len(tied)]

    def send(
        self, src: Coord3, dst: Coord3, size_bytes: int
    ) -> Generator[Event, None, float]:
        """DES process: forward one packet from ``src`` to ``dst``.

        Every hop re-runs the outport selection, so a packet's path reacts
        to congestion encountered mid-flight. Returns the network traversal
        latency (ns) experienced by the packet.
        """
        start = self.env.now
        here, vc = src, 0
        while here != dst:
            nxt = self._pick_adaptive(here, dst)
            adaptive = nxt is not None
            if not adaptive:
                nxt, vc = self.grid.escape_next(here, dst, vc)
            port = self.port(here, nxt)
            if adaptive:
                yield port.credits.acquire()
            with port.resource.request() as grant:
                yield grant
                service = size_bytes / port.gbps
                port.bytes_forwarded += size_bytes
                yield service + port.hop_ns
            if adaptive:
                # The credit returns once the flit has cleared the wire.
                port.credits.release()
            here = nxt
        return self.env.now - start

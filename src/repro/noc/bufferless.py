"""Bufferless (hot-potato) mesh routing.

§2.3: the chiplet network's switches "use either bufferless or buffered
routing protocols". :class:`~repro.noc.router.MeshNetwork` is the buffered
variant (FIFO queues at every output port); this module implements the
bufferless alternative in the BLESS/hot-potato tradition the paper cites
(Moscibroda & Mutlu): a packet never waits in a queue — if its productive
XY output is busy it is *deflected* through any free port and routes again
from wherever it lands.

The trade the comparison experiment exposes: bufferless needs no router
buffering (and has no head-of-line blocking to manage) but converts
contention into extra hops, so latency degrades faster — and less
predictably — as load grows.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Tuple

from repro.errors import SimulationError, TopologyError
from repro.noc.mesh import Mesh
from repro.sim.engine import Environment, Event, Resource

Coord = Tuple[int, int]

__all__ = ["BufferlessMeshNetwork"]


class BufferlessMeshNetwork:
    """A deflection-routed mesh: packets always move, never queue."""

    def __init__(
        self,
        env: Environment,
        mesh: Mesh,
        port_gbps: float,
        max_hops: int = 256,
    ) -> None:
        if max_hops < 1:
            raise SimulationError("max_hops must be >= 1")
        self.env = env
        self.mesh = mesh
        self.port_gbps = port_gbps
        self.max_hops = max_hops
        self._ports: Dict[Tuple[Coord, Coord], Resource] = {}
        for x in range(mesh.width):
            for y in range(mesh.height):
                here = (x, y)
                for neighbor in self._neighbors(here):
                    self._ports[(here, neighbor)] = Resource(env, capacity=1)
        self.deflections = 0
        self.delivered = 0

    def _neighbors(self, coord: Coord) -> List[Coord]:
        x, y = coord
        return [
            n
            for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
            if self.mesh.contains(n)
        ]

    def _productive(self, here: Coord, dst: Coord) -> Coord:
        """The XY-routing next hop (x dimension first)."""
        if here[0] != dst[0]:
            step = 1 if dst[0] > here[0] else -1
            return (here[0] + step, here[1])
        step = 1 if dst[1] > here[1] else -1
        return (here[0], here[1] + step)

    def _hop_ns(self, here: Coord, nxt: Coord) -> float:
        return (
            self.mesh.x_hop_ns if nxt[0] != here[0] else self.mesh.y_hop_ns
        )

    def _port_free(self, here: Coord, nxt: Coord) -> bool:
        port = self._ports[(here, nxt)]
        return port.count < port.capacity and port.queue_length == 0

    def send(
        self, src: Coord, dst: Coord, size_bytes: int
    ) -> Generator[Event, None, float]:
        """DES process: hot-potato route one packet; returns (latency, hops)
        packed as the latency float (hops tracked on the network counters).
        """
        for coord in (src, dst):
            if not self.mesh.contains(coord):
                raise TopologyError(f"coordinate {coord} outside the mesh")
        start = self.env.now
        here = src
        hops = 0
        while here != dst:
            if hops >= self.max_hops:
                raise SimulationError(
                    f"packet exceeded {self.max_hops} hops (livelock?)"
                )
            productive = self._productive(here, dst)
            nxt = None
            if self._port_free(here, productive):
                nxt = productive
            else:
                # Deflect through any free port, preferring neighbors that
                # do not increase the distance when possible.
                candidates = sorted(
                    self._neighbors(here),
                    key=lambda n: self.mesh.hop_count(n, dst),
                )
                for candidate in candidates:
                    if candidate != productive and self._port_free(
                        here, candidate
                    ):
                        nxt = candidate
                        self.deflections += 1
                        break
            if nxt is None:
                # Every output busy: the packet circulates on the router's
                # internal crossbar for one hop time (BLESS's re-injection
                # stall), then tries again.
                yield self._hop_ns(here, productive)
                continue
            port = self._ports[(here, nxt)]
            with port.request() as grant:
                yield grant
                service = size_bytes / self.port_gbps
                yield service + self._hop_ns(here, nxt)
            here = nxt
            hops += 1
        self.delivered += 1
        return self.env.now - start

    @property
    def deflection_rate(self) -> float:
        """Deflections per delivered packet."""
        if self.delivered == 0:
            return 0.0
        return self.deflections / self.delivered

"""Tests for the hop-by-hop mesh network."""

import pytest

from repro.errors import TopologyError
from repro.noc.mesh import Mesh
from repro.noc.router import MeshNetwork
from repro.sim.engine import Environment


@pytest.fixture
def mesh():
    return Mesh(3, 2, x_hop_ns=8.5, y_hop_ns=7.0, turn_ns=5.0)


class TestPorts:
    def test_ports_connect_neighbors_only(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=100.0)
        assert net.port((0, 0), (1, 0)).hop_ns == 8.5
        assert net.port((0, 0), (0, 1)).hop_ns == 7.0
        with pytest.raises(TopologyError):
            net.port((0, 0), (2, 0))  # not adjacent

    def test_port_count(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=100.0)
        # 3x2 grid: horizontal 2*2 per row direction... count directed edges:
        # horizontal edges: 2 per row x 2 rows x 2 directions = 8;
        # vertical edges: 3 columns x 1 x 2 directions = 6.
        assert len(net._ports) == 14


class TestSend:
    def test_unloaded_latency_matches_analytic(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=100.0)
        done = env.process(net.send((0, 0), (2, 1), 64))
        measured = env.run(done)
        hops = mesh.hop_count((0, 0), (2, 1))
        expected = mesh.cost_ns((0, 0), (2, 1)) + hops * 64 / 100.0
        assert measured == pytest.approx(expected)

    def test_send_to_self_is_free(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=100.0)
        done = env.process(net.send((1, 1), (1, 1), 64))
        assert env.run(done) == 0.0

    def test_straight_route_has_no_turn(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=100.0)
        done = env.process(net.send((0, 0), (2, 0), 64))
        measured = env.run(done)
        assert measured == pytest.approx(2 * 8.5 + 2 * 64 / 100.0)

    def test_bytes_forwarded_accounting(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=100.0)
        env.run(env.process(net.send((0, 0), (2, 0), 64)))
        # Two hops, each forwards 64 bytes.
        forwarded = [port.bytes_forwarded for port in net._ports.values()]
        assert sum(forwarded) == 128

    def test_contention_serializes_on_shared_port(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=1.0)  # 64 ns per hop service
        latencies = []

        def sender():
            result = yield env.process(net.send((0, 0), (1, 0), 64))
            latencies.append(result)

        env.process(sender())
        env.process(sender())
        env.run()
        # Second packet queues behind the first on the (0,0)->(1,0) port.
        assert max(latencies) > min(latencies)
        assert max(latencies) >= min(latencies) + 64.0

    def test_disjoint_routes_do_not_interact(self, mesh):
        env = Environment()
        net = MeshNetwork(env, mesh, port_gbps=1.0)
        latencies = []

        def sender(src, dst):
            result = yield env.process(net.send(src, dst, 64))
            latencies.append(result)

        env.process(sender((0, 0), (1, 0)))
        env.process(sender((0, 1), (1, 1)))
        env.run()
        assert latencies[0] == pytest.approx(latencies[1])


def _mean_traversal_ns(platform, pattern: str, packets_per_sender: int = 200,
                       lanes_per_sender: int = 4) -> float:
    """Mean in-mesh latency with every CCD port sending 64 B packets.

    ``"hotspot"`` sends every packet to one UMC stop (the head-of-line
    blocking §2.3's buffered routers suffer); ``"spread"`` round-robins
    over all UMC stops.
    """
    lat = platform.spec.latency
    mesh = Mesh(
        platform.spec.mesh_grid[0], platform.spec.mesh_grid[1],
        lat.x_hop_ns, lat.y_hop_ns, max(0.0, lat.turn_ns),
    )
    umc_coords = sorted({umc.coord for umc in platform.umcs.values()})
    ccd_coords = sorted({ccd.coord for ccd in platform.ccds.values()})
    env = Environment()
    network = MeshNetwork(
        env, mesh,
        port_gbps=platform.spec.bandwidth.noc_read_gbps / (2.0 * len(ccd_coords)),
    )
    latencies = []

    def lane(src, index):
        for i in range(packets_per_sender // lanes_per_sender):
            if pattern == "hotspot":
                dst = umc_coords[0]
            else:
                dst = umc_coords[(index + i) % len(umc_coords)]
            if dst == src:
                dst = umc_coords[(index + i + 1) % len(umc_coords)]
            latencies.append((yield env.process(network.send(src, dst, 64))))

    for index, src in enumerate(ccd_coords):
        for lane_id in range(lanes_per_sender):
            env.process(lane(src, index + lane_id))
    env.run()
    return sum(latencies) / len(latencies)


def test_hotspot_blocks_where_the_collapsed_model_cannot(p7302):
    # All-to-one traffic queues inside the hop-by-hop mesh; the collapsed
    # path model has no in-mesh queues to show it.
    hotspot = _mean_traversal_ns(p7302, "hotspot")
    spread = _mean_traversal_ns(p7302, "spread")
    assert hotspot > 1.2 * spread

"""Tests for bufferless (hot-potato) mesh routing."""

import pytest

from repro.errors import SimulationError, TopologyError
from repro.noc.bufferless import BufferlessMeshNetwork
from repro.noc.mesh import Mesh
from repro.sim.engine import Environment


@pytest.fixture
def mesh():
    return Mesh(3, 2, x_hop_ns=8.0, y_hop_ns=8.0, turn_ns=0.0)


def network(env, mesh, gbps=100.0, **kwargs):
    return BufferlessMeshNetwork(env, mesh, port_gbps=gbps, **kwargs)


class TestUnloaded:
    def test_unloaded_follows_xy(self, mesh):
        env = Environment()
        net = network(env, mesh)
        done = env.process(net.send((0, 0), (2, 1), 64))
        latency = env.run(done)
        hops = mesh.hop_count((0, 0), (2, 1))
        expected = hops * (8.0 + 64 / 100.0)
        assert latency == pytest.approx(expected)
        assert net.deflections == 0
        assert net.delivered == 1

    def test_send_to_self(self, mesh):
        env = Environment()
        net = network(env, mesh)
        done = env.process(net.send((1, 1), (1, 1), 64))
        assert env.run(done) == 0.0

    def test_outside_mesh_rejected(self, mesh):
        env = Environment()
        net = network(env, mesh)
        with pytest.raises(TopologyError):
            env.run(env.process(net.send((0, 0), (9, 9), 64)))

    def test_validation(self, mesh):
        env = Environment()
        with pytest.raises(SimulationError):
            BufferlessMeshNetwork(env, mesh, port_gbps=10.0, max_hops=0)


class TestContention:
    def test_contention_causes_deflections(self, mesh):
        env = Environment()
        net = network(env, mesh, gbps=1.0)  # slow ports: heavy contention

        def sender():
            yield env.process(net.send((0, 0), (2, 0), 64))

        for __ in range(6):
            env.process(sender())
        env.run()
        assert net.delivered == 6
        assert net.deflections > 0

    def test_all_packets_still_delivered(self, mesh):
        env = Environment()
        net = network(env, mesh, gbps=0.5)
        count = 12

        def sender(i):
            dst = [(2, 0), (2, 1), (1, 1)][i % 3]
            yield env.process(net.send((0, 0), dst, 64))

        for i in range(count):
            env.process(sender(i))
        env.run()
        assert net.delivered == count

    def test_deflection_rate_grows_with_load(self, mesh):
        def rate(senders):
            env = Environment()
            net = network(env, mesh, gbps=1.0)
            for i in range(senders):
                src = [(0, 0), (0, 1)][i % 2]
                env.process(net.send(src, (2, 0), 64))
            env.run()
            return net.deflection_rate

        assert rate(10) > rate(2)

    def test_idle_deflection_rate_zero(self, mesh):
        env = Environment()
        assert network(env, mesh).deflection_rate == 0.0


class TestExperiment:
    def test_comparison_shape(self, p7302):
        from repro.experiments import noc_routing

        light = noc_routing.run(p7302, lanes_per_sender=1, packets_per_lane=40)
        heavy = noc_routing.run(p7302, lanes_per_sender=6, packets_per_lane=40)
        # At light load the two protocols are comparable...
        assert light.bufferless_mean_ns == pytest.approx(
            light.buffered_mean_ns, rel=0.25
        )
        # ...under load, deflections make bufferless clearly worse.
        assert heavy.bufferless_mean_ns > heavy.buffered_mean_ns
        assert heavy.deflection_rate > light.deflection_rate

    def test_heavy_load_pays_in_deflections(self, p7302):
        from repro.experiments import noc_routing

        light = noc_routing.run(p7302, lanes_per_sender=1)
        heavy = noc_routing.run(p7302, lanes_per_sender=8)
        assert light.bufferless_mean_ns < 1.3 * light.buffered_mean_ns
        # Bufferless pays for contention in deflected hops: a higher mean,
        # a much higher tail, more than one deflection per packet.
        assert heavy.bufferless_mean_ns > 1.2 * heavy.buffered_mean_ns
        assert heavy.bufferless_p99_ns > 2.0 * heavy.buffered_p99_ns
        assert heavy.deflection_rate > 1.0

    def test_render(self, p7302):
        from repro.experiments import noc_routing

        results = {
            1: noc_routing.run(p7302, lanes_per_sender=1, packets_per_lane=30)
        }
        text = noc_routing.render(results)
        assert "deflections/pkt" in text

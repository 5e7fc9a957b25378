"""Tests for dual-socket (xGMI) support — an extension beyond the paper's
per-socket measurements, matching its 2-socket Dell 7525 testbed."""

import pytest

from repro.core.fabric import FabricModel
from repro.core.flows import Scope, StreamSpec
from repro.core.microbench import MicroBench
from repro.errors import ConfigurationError, TopologyError
from repro.platform.numa import Position
from repro.transport.message import OpKind
from repro.units import MIB


def _nearest_umc(platform):
    """CCD 0's nearest UMC."""
    return min(
        (umc.umc_id for umc in platform.umcs_at(0, Position.NEAR)),
        key=lambda umc_id: platform.dram_latency_ns(0, umc_id),
    )


class TestPlatformRemote:
    def test_7302_has_remote_socket(self, p7302):
        assert p7302.has_remote_socket

    def test_9634_has_no_remote_socket(self, p9634):
        assert not p9634.has_remote_socket
        with pytest.raises(TopologyError):
            p9634.remote_dram_latency_ns(0, 0)

    def test_remote_latency_adds_xgmi(self, p7302):
        umc_id = _nearest_umc(p7302)
        local = p7302.dram_latency_ns(0, umc_id)
        remote = p7302.remote_dram_latency_ns(0, umc_id)
        assert remote == pytest.approx(local + 105.0)

    def test_remote_near_is_229ns(self, p7302):
        # The textbook 2S Rome remote-NUMA figure.
        remote = p7302.remote_dram_latency_ns(0, _nearest_umc(p7302))
        assert remote == pytest.approx(229.0, abs=1.0)

    def test_xgmi_link_registered(self, p7302, p9634):
        assert p7302.link("xgmi").read_gbps == pytest.approx(70.0)
        with pytest.raises(TopologyError):
            p9634.link("xgmi")

    def test_remote_slower_than_any_local_position(self, p7302):
        remote_near = p7302.remote_dram_latency_ns(0, _nearest_umc(p7302))
        worst_local = max(
            p7302.dram_latency_at(0, pos) for pos in Position
        )
        assert remote_near > worst_local


class TestRemoteMicrobench:
    def test_remote_pointer_chase(self, p7302):
        bench = MicroBench(p7302)
        __, stats = bench.pointer_chase(
            256 * MIB, remote_socket=True, iterations=400
        )
        assert stats.mean == pytest.approx(229.0, rel=0.03)

    def test_remote_chase_forces_dram(self, p7302):
        # Even an L1-sized working set is DRAM when homed remotely.
        bench = MicroBench(p7302)
        level, stats = bench.pointer_chase(
            8 * 1024, remote_socket=True, iterations=300
        )
        assert level.value == "DRAM"
        assert stats.mean > 200.0

    def test_remote_core_bandwidth_lower(self, p7302):
        bench = MicroBench(p7302)
        local = bench.stream_bandwidth(Scope.CORE, OpKind.READ)
        remote = bench.stream_bandwidth(
            Scope.CORE, OpKind.READ, remote_socket=True
        )
        # Same MLP over a longer latency: ~124/229 of the local rate.
        assert remote == pytest.approx(local * 124.0 / 229.0, rel=0.05)

    def test_remote_cpu_bandwidth_binds_on_xgmi(self, p7302):
        bench = MicroBench(p7302)
        remote = bench.stream_bandwidth(
            Scope.CPU, OpKind.READ, remote_socket=True
        )
        assert remote == pytest.approx(70.0, rel=0.03)

    def test_remote_on_single_socket_rejected(self, p9634):
        bench = MicroBench(p9634)
        with pytest.raises((ConfigurationError, TopologyError)):
            bench.stream_bandwidth(
                Scope.CORE, OpKind.READ, remote_socket=True
            )


class TestRemoteFabric:
    def test_xgmi_channels_only_on_two_socket(self, p7302, p9634):
        assert "xgmi:r" in FabricModel(p7302).channels
        assert "xgmi:r" not in FabricModel(p9634).channels

    def test_remote_stream_loads_xgmi(self, p7302):
        fabric = FabricModel(p7302)
        spec = StreamSpec("s", OpKind.READ, (0,), remote=True)
        flow = fabric.flows_for(spec)[0]
        names = [channel.name for channel, __ in flow.path]
        assert "xgmi:r" in names

    def test_local_stream_does_not_load_xgmi(self, p7302):
        fabric = FabricModel(p7302)
        flow = fabric.flows_for(StreamSpec("s", OpKind.READ, (0,)))[0]
        names = [channel.name for channel, __ in flow.path]
        assert "xgmi:r" not in names

    def test_remote_requires_dram_target(self):
        with pytest.raises(ConfigurationError):
            StreamSpec("s", OpKind.READ, (0,), target="cxl", remote=True)

    def test_local_and_remote_share_the_noc(self, p7302):
        fabric = FabricModel(p7302)
        cores = StreamSpec.cores_for_scope(p7302, Scope.CPU)
        half = len(cores) // 2
        local = StreamSpec("local", OpKind.READ, cores[:half])
        remote = StreamSpec("remote", OpKind.READ, cores[half:], remote=True)
        achieved = fabric.achieved_gbps([local, remote])
        # The remote stream is xGMI-bound; both fit under the NoC ceiling.
        assert achieved["remote"] <= 70.0 * 1.01
        total = achieved["local"] + achieved["remote"]
        assert total <= p7302.spec.bandwidth.noc_read_gbps * 1.01

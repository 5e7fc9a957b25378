"""Integration tests crossing module boundaries (end-to-end scenarios)."""

import pytest

from repro import MicroBench, OpKind, Position, Scope, StreamSpec
from repro.core.fabric import FabricModel
from repro.manager.manager import TrafficManager
from repro.telemetry.devtree import build_devtree, render_dts
from repro.telemetry.matrix import TrafficMatrix
from repro.telemetry.profiler import FlowProfiler, FlowSample
from repro.units import MIB


class TestQuickstartFlow:
    """The README quickstart, end to end."""

    def test_latency_then_bandwidth(self, p9634):
        bench = MicroBench(p9634)
        level, stats = bench.pointer_chase(64 * MIB, iterations=300)
        assert level.value == "DRAM"
        assert stats.mean == pytest.approx(141.0, rel=0.05)
        peak = bench.stream_bandwidth(Scope.CPU, OpKind.READ)
        assert peak == pytest.approx(366.2, rel=0.05)


class TestNoisyNeighborScenario:
    """A latency-sensitive service next to a bandwidth hog, with and
    without the traffic manager."""

    def test_manager_restores_victim_bandwidth(self, p9634):
        fabric = FabricModel(p9634)
        ccd0 = [c.core_id for c in p9634.cores_of_ccd(0)]
        victim = StreamSpec(
            "victim", OpKind.READ, tuple(ccd0[:2]), demand_gbps=10.0
        )
        hog = StreamSpec("hog", OpKind.READ, tuple(ccd0[2:]))
        # Sender-driven: the hog's in-flight pressure squeezes the victim.
        raw = fabric.achieved_gbps([victim, hog])
        # Managed: max-min protects the victim's modest demand.
        manager = TrafficManager(fabric)
        manager.register(victim)
        manager.register(hog)
        managed = manager.allocate().grants_gbps
        assert managed["victim"] == pytest.approx(10.0, abs=0.2)
        assert managed["victim"] >= raw["victim"]
        # The hog still gets the leftovers — work conservation.
        assert managed["hog"] > 0.5 * raw["hog"]

    def test_shaped_hog_behaves_under_hardware_policy(self, p9634):
        fabric = FabricModel(p9634)
        ccd0 = [c.core_id for c in p9634.cores_of_ccd(0)]
        victim = StreamSpec(
            "victim", OpKind.READ, tuple(ccd0[:2]), demand_gbps=10.0
        )
        hog = StreamSpec("hog", OpKind.READ, tuple(ccd0[2:]))
        manager = TrafficManager(fabric)
        manager.register(victim)
        manager.register(hog)
        shaped = manager.shaped_streams()
        achieved = fabric.achieved_gbps(shaped)
        assert achieved["victim"] == pytest.approx(10.0, abs=0.3)


class TestTelemetryPipeline:
    """Fluid allocation feeding the traffic matrix and profiler."""

    def test_matrix_from_streams(self, p9634):
        fabric = FabricModel(p9634)
        specs = [
            StreamSpec("dram-stream", OpKind.READ,
                       tuple(c.core_id for c in p9634.cores_of_ccd(0))),
            StreamSpec("cxl-stream", OpKind.READ,
                       tuple(c.core_id for c in p9634.cores_of_ccd(1)),
                       target="cxl"),
        ]
        achieved = fabric.achieved_gbps(specs)
        matrix = TrafficMatrix(["ccd0", "ccd1"], ["dram", "cxl"])
        matrix.record("ccd0", "dram", achieved["dram-stream"])
        matrix.record("ccd1", "cxl", achieved["cxl-stream"])
        assert matrix.total_gbps() == pytest.approx(sum(achieved.values()))

    def test_profiler_orders_streams(self, p9634):
        fabric = FabricModel(p9634)
        cores = tuple(c.core_id for c in p9634.cores_of_ccd(0))
        specs = [
            StreamSpec("big", OpKind.READ, cores[:5]),
            StreamSpec("small", OpKind.READ, cores[5:6], demand_gbps=2.0),
        ]
        achieved = fabric.achieved_gbps(specs)
        profiler = FlowProfiler(top_k=2)
        window_ns = 1000.0
        for name, gbps in achieved.items():
            profiler.record(FlowSample(name, int(gbps * window_ns), window_ns))
        top = profiler.top_flows()
        assert top[0][0] == "big"

    def test_devtree_roundtrip_against_platform(self, p9634):
        tree = build_devtree(p9634)
        text = render_dts(tree)
        # Every UMC and CCD of the platform appears in the rendered tree.
        for name in list(p9634.umcs) + list(p9634.ccds):
            pass
        for umc in p9634.umcs.values():
            assert f"{umc.name} {{" in text
        for ccd in p9634.ccds.values():
            assert f"{ccd.name} {{" in text


class TestCrossModelConsistency:
    """The DES and the fluid model must agree where their domains overlap."""

    def test_single_core_bandwidth_des_vs_fluid(self, p7302):
        bench = MicroBench(p7302)
        fluid = bench.stream_bandwidth(Scope.CORE, OpKind.READ)
        # Long enough that the ramp-up/drain edges of the closed loop
        # amortize (each of the 29 issue lanes runs ~100 rounds).
        des = bench.loaded_latency(
            [0], OpKind.READ, offered_gbps=None, transactions_per_core=3000
        )
        assert des.achieved_gbps == pytest.approx(fluid, rel=0.12)

    def test_pointer_chase_matches_platform_analytic(self, platform):
        bench = MicroBench(platform)
        for position in Position:
            __, stats = bench.pointer_chase(
                256 * MIB, position=position, iterations=250
            )
            analytic = platform.dram_latency_at(0, position)
            assert stats.mean == pytest.approx(analytic, rel=0.05)

    def test_ccx_scope_bandwidth_des_vs_fluid(self, p9634):
        bench = MicroBench(p9634)
        fluid = bench.stream_bandwidth(Scope.CCX, OpKind.READ)
        cores = [c.core_id for c in p9634.cores_of_ccx(0)]
        des = bench.loaded_latency(
            cores, OpKind.READ, offered_gbps=None, transactions_per_core=300
        )
        assert des.achieved_gbps == pytest.approx(fluid, rel=0.15)

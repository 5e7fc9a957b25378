"""Tests for telemetry: counters, sketch, matrix, devtree, profiler."""

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.platform.interconnect import LinkKind, LinkSpec
from repro.telemetry.counters import CounterRegistry, LinkCounters
from repro.telemetry.devtree import build_devtree, proc_chiplet_net, render_dts
from repro.telemetry.matrix import TrafficMatrix
from repro.telemetry.profiler import FlowProfiler, FlowSample
from repro.telemetry.sketch import CountMinSketch


def make_link(name="l0", read=32.0, write=16.0):
    return LinkSpec(name, LinkKind.GMI, 1.0, read, write)


class TestCounters:
    def test_record_and_totals(self):
        counters = LinkCounters(make_link())
        counters.record(64, is_write=False)
        counters.record(64, is_write=False)
        counters.record(128, is_write=True)
        assert counters.read_bytes == 128
        assert counters.write_bytes == 128
        assert counters.read_txns == 2
        assert counters.write_txns == 1

    def test_negative_size_rejected(self):
        with pytest.raises(MeasurementError):
            LinkCounters(make_link()).record(-1, False)

    def test_utilization(self):
        counters = LinkCounters(make_link(read=32.0))
        counters.record(320, is_write=False)
        # 320 bytes over 20 ns = 16 GB/s on a 32 GB/s direction.
        assert counters.utilization(False, 20.0) == pytest.approx(0.5)

    def test_utilization_clamped(self):
        counters = LinkCounters(make_link(read=1.0))
        counters.record(1000, is_write=False)
        assert counters.utilization(False, 1.0) == 1.0

    def test_utilization_invalid_window(self):
        with pytest.raises(MeasurementError):
            LinkCounters(make_link()).utilization(False, 0.0)

    def test_registry(self):
        registry = CounterRegistry()
        link = make_link()
        registry.record(link, 64, False)
        registry.record(link, 64, True)
        assert registry.get("l0").read_bytes == 64
        assert registry.get("missing") is None
        assert "l0" in registry.snapshot()


class TestSketch:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch(0, 4)
        with pytest.raises(ConfigurationError):
            CountMinSketch(16, 0)

    def test_never_underestimates(self):
        sketch = CountMinSketch(width=64, depth=4)
        truth = {}
        for i in range(500):
            key = f"flow-{i % 37}"
            sketch.add(key, i % 7 + 1)
            truth[key] = truth.get(key, 0) + i % 7 + 1
        for key, count in truth.items():
            assert sketch.estimate(key) >= count

    def test_exact_when_uncrowded(self):
        sketch = CountMinSketch(width=4096, depth=4)
        sketch.add("a", 10)
        sketch.add("b", 20)
        assert sketch.estimate("a") == 10
        assert sketch.estimate("b") == 20

    def test_unknown_key_is_bounded(self):
        sketch = CountMinSketch(width=4096, depth=4)
        sketch.add("a", 100)
        assert sketch.estimate("zzz") <= sketch.error_bound() + 100

    def test_error_bound_formula(self):
        sketch = CountMinSketch(width=1024, depth=4)
        sketch.add("a", 1000)
        import math

        assert sketch.error_bound() == pytest.approx(math.e / 1024 * 1000)

    def test_from_error_bounds(self):
        sketch = CountMinSketch.from_error_bounds(epsilon=0.01, delta=0.01)
        assert sketch.width >= 272
        assert sketch.depth >= 4  # ceil(ln 100) = 5

    def test_from_error_bounds_validation(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch.from_error_bounds(0.0, 0.5)

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            CountMinSketch().add("a", -1)

    def test_total_tracks_sum(self):
        sketch = CountMinSketch()
        sketch.add("a", 5)
        sketch.add("b", 7)
        assert sketch.total == 12

    def test_memory_cells(self):
        assert CountMinSketch(128, 3).memory_cells == 384


class TestTrafficMatrix:
    def test_record_and_sums(self):
        matrix = TrafficMatrix(["ccd0", "ccd1"], ["dram", "cxl"])
        matrix.record("ccd0", "dram", 10.0)
        matrix.record("ccd0", "cxl", 5.0)
        matrix.record("ccd1", "dram", 20.0)
        assert matrix.row_sums() == pytest.approx({"ccd0": 15.0, "ccd1": 20.0})
        assert matrix.col_sums() == pytest.approx({"dram": 30.0, "cxl": 5.0})
        assert matrix.total_gbps() == pytest.approx(35.0)

    def test_unknown_endpoint_rejected(self):
        matrix = TrafficMatrix(["a"], ["b"])
        with pytest.raises(MeasurementError):
            matrix.record("x", "b", 1.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficMatrix(["a", "a"], ["b"])

    def test_gravity_exact_for_product_form(self):
        # NPS1 interleave spreads every source proportionally: the gravity
        # estimate is then exact.
        truth = TrafficMatrix(["s0", "s1"], ["d0", "d1"])
        for src, out in (("s0", 10.0), ("s1", 30.0)):
            for dst, frac in (("d0", 0.25), ("d1", 0.75)):
                truth.record(src, dst, out * frac)
        estimate = TrafficMatrix.gravity_estimate(
            truth.row_sums(), truth.col_sums()
        )
        for src in ("s0", "s1"):
            for dst in ("d0", "d1"):
                assert estimate.rate(src, dst) == pytest.approx(
                    truth.rate(src, dst), abs=1e-9
                )

    def test_gravity_mismatched_totals_rejected(self):
        with pytest.raises(MeasurementError):
            TrafficMatrix.gravity_estimate({"s": 10.0}, {"d": 20.0})



class TestDevtree:
    def test_tree_structure(self, p9634):
        tree = build_devtree(p9634)
        assert tree["compatible"] == "amd,epyc 9634".replace(" ", "-")
        assert len(tree["compute-chiplets"]) == 12
        assert len(tree["io-chiplet"]["memory-controllers"]) == 12
        hubs = tree["io-chiplet"]["io-hubs"]
        assert "iohub0" in hubs
        devices = hubs["iohub0"]["root-complexes"]["rc0"]["devices"]
        assert "cxl0" in devices
        assert devices["cxl0"]["flit-bytes"] == 68

    def test_tree_without_cxl(self, p7302):
        tree = build_devtree(p7302)
        rc = tree["io-chiplet"]["io-hubs"]["iohub0"]["root-complexes"]["rc0"]
        # No CXL memory on the 7302 — only its generic PCIe endpoint.
        assert list(rc["devices"]) == ["pcie0"]
        assert rc["devices"]["pcie0"]["class"] == "pcie-nic"

    def test_render_dts(self, p7302):
        text = render_dts(build_devtree(p7302))
        assert text.startswith("chiplet-net {")
        assert text.rstrip().endswith("};")
        assert "ccd0 {" in text
        assert 'microarchitecture = "Zen 2";' in text
        assert text.count("{") == text.count("}")

    def test_render_dts_lists_cxl_devices(self, p9634):
        assert "cxl0" in render_dts(build_devtree(p9634))

    def test_proc_report(self, p7302):
        registry = CounterRegistry()
        registry.record(p7302.link("gmi/ccd0"), 6400, False)
        report = proc_chiplet_net(p7302, registry, elapsed_ns=1000.0)
        assert "chiplet-net: EPYC 7302" in report
        assert "gmi/ccd0" in report
        lines = [l for l in report.splitlines() if l.startswith("gmi/ccd0")]
        assert "6400" in lines[0]


class TestProfiler:
    def test_top_flows(self):
        profiler = FlowProfiler(top_k=2)
        for i, (flow, size) in enumerate(
            [("big", 1000)] * 10 + [("mid", 100)] * 10 + [("small", 1)] * 10
        ):
            profiler.record(FlowSample(flow, size, float(i)))
        top = profiler.top_flows()
        assert top[0][0] == "big"
        assert top[1][0] == "mid"

    def test_report_lists_flows(self):
        profiler = FlowProfiler(top_k=3)
        for t in range(5):
            profiler.record(FlowSample("alpha", 64, float(t)))
        report = profiler.report()
        assert "alpha" in report
        assert "5 samples" in report

    def test_eviction_keeps_heavy_hitters(self):
        profiler = FlowProfiler(top_k=2, sketch_width=4096)
        for i in range(500):
            profiler.record(FlowSample(f"light-{i}", 1, float(i)))
        for __ in range(50):
            profiler.record(FlowSample("heavy", 1000, 1000.0))
        assert profiler.top_flows()[0][0] == "heavy"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlowProfiler(top_k=0)

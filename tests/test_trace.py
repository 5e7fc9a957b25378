"""Tests for the span-tracing subsystem (repro.trace)."""

import json

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.experiments import netstack
from repro.runner import run_cells_detailed
from repro.sim.engine import Environment
from repro.telemetry.counters import CounterRegistry
from repro.telemetry.profiler import FlowProfiler
from repro.trace import (
    TraceRecording,
    Tracer,
    assert_tiles,
    chrome_trace,
    dumps,
    event_count,
    fill_counters,
    hop_stats,
    render_breakdown,
    txn_latency_stats,
)

_TXNS = 20


@pytest.fixture(scope="module")
def traced(p7302):
    """One traced netstack DES cell shared across this module's tests."""
    point, recording, profile = netstack.run_point_traced(
        p7302, "credits", transactions_per_core=_TXNS
    )
    return point, recording, profile


class TestTracerCore:
    def test_spans_carry_copied_clock_boundaries(self):
        env = Environment()
        tracer = Tracer(env)

        def proc():
            span = tracer.begin("txn0", "txn", "t0", size=64)
            hop = tracer.begin("hop0", "hop", "t0", parent=span)
            yield env.timeout(5.0)
            tracer.end(hop, service_ns=3.0)
            tracer.end(span)

        env.process(proc())
        env.run()
        recording = tracer.recording()
        assert len(recording.spans) == 2
        hop, txn = (
            next(s for s in recording.spans if s["name"] == "hop0"),
            next(s for s in recording.spans if s["name"] == "txn0"),
        )
        assert hop["ts"] == 0.0 and hop["end"] == 5.0 and hop["dur"] == 5.0
        assert hop["parent"] == txn["seq"]
        assert hop["args"] == {"service_ns": 3.0}
        assert txn["args"] == {"size": 64}
        assert recording.dropped_open == 0

    def test_open_spans_counted_not_fabricated(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.begin("never-closed", "txn", "t0")
        recording = tracer.recording()
        assert recording.spans == ()
        assert recording.dropped_open == 1

    def test_double_attach_rejected(self):
        env = Environment()
        Tracer(env)
        with pytest.raises(ConfigurationError):
            Tracer(env)

    def test_reattach_same_tracer_is_idempotent(self):
        env = Environment()
        tracer = Tracer(env)
        assert tracer.attach(env) is tracer

    def test_environment_defaults_to_no_tracer(self):
        assert Environment().tracer is None

    def test_recording_sorted_by_begin_time(self, traced):
        __, recording, __p = traced
        keys = [(span["ts"], span["seq"]) for span in recording.spans]
        assert keys == sorted(keys)

    def test_elapsed_covers_all_spans(self, traced):
        __, recording, __p = traced
        assert recording.elapsed_ns() == max(
            s["end"] for s in recording.spans
        ) - min(s["ts"] for s in recording.spans)


class TestBitIdentity:
    """Tracing must observe, never perturb: the tentpole invariant."""

    def test_traced_netstack_point_identical(self, p7302, traced):
        point, __, __p = traced
        untraced = netstack.run_point(
            p7302, "credits", "des", transactions_per_core=_TXNS
        )
        assert point == untraced  # exact float equality, field for field

    def test_traced_pointer_chase_stats_identical(self, p7302):
        from repro.core.microbench import MicroBench

        base = MicroBench(p7302, seed=3).pointer_chase(
            64 << 20, iterations=60
        )
        traced = MicroBench(p7302, seed=3).pointer_chase(
            64 << 20, iterations=60, tracer=Tracer()
        )
        assert base[0] is traced[0]
        assert base[1] == traced[1]

    def test_cache_resident_chase_ignores_tracer(self, p7302):
        from repro.core.microbench import MicroBench

        tracer = Tracer()
        level, __ = MicroBench(p7302).pointer_chase(
            4096, iterations=50, tracer=tracer
        )
        assert level.name != "DRAM"
        assert tracer.recording().spans == ()


class TestTiling:
    def test_real_recording_tiles_exactly(self, traced):
        __, recording, __p = traced
        txns = sum(1 for s in recording.spans if s["cat"] == "txn")
        assert txns > 0
        assert assert_tiles(recording) == txns

    def test_gap_detected(self, traced):
        __, recording, __p = traced
        doctored = [dict(span) for span in recording.spans]
        for span in doctored:
            if span["cat"] in ("wait", "hop") and span["dur"] > 0:
                span["ts"] += 1e-9  # introduce a gap before this hop
                break
        with pytest.raises(MeasurementError):
            assert_tiles(TraceRecording(spans=tuple(doctored)))

    def test_short_final_hop_detected(self, traced):
        __, recording, __p = traced
        doctored = [dict(span) for span in recording.spans]
        parents = {s["seq"] for s in doctored if s["cat"] == "txn"}
        children = [s for s in doctored if s.get("parent") in parents]
        last = max(children, key=lambda s: (s["parent"], s["seq"]))
        last["end"] -= 1e-9
        with pytest.raises(MeasurementError):
            assert_tiles(TraceRecording(spans=tuple(doctored)))

    def test_txn_without_hops_detected(self):
        span = {
            "name": "p", "cat": "txn", "track": "t", "ts": 0.0,
            "end": 1.0, "dur": 1.0, "seq": 1, "parent": None,
        }
        with pytest.raises(MeasurementError):
            assert_tiles(TraceRecording(spans=(span,)))


class TestBreakdown:
    def test_hop_sum_reproduces_end_to_end_mean(self, traced):
        __, recording, __p = traced
        txns = assert_tiles(recording)
        __, mean_ns = txn_latency_stats(recording)
        attributed = sum(
            stat.total_ns
            for stat in hop_stats(recording)
            if not stat.hop.startswith("credits/")
        )
        assert attributed / txns == pytest.approx(mean_ns, rel=1e-12)

    def test_hop_stats_first_appearance_order_and_queue_split(self, traced):
        __, recording, __p = traced
        stats = hop_stats(recording)
        names = [stat.hop for stat in stats]
        assert names == list(dict.fromkeys(names))
        for stat in stats:
            assert stat.total_ns == pytest.approx(
                stat.service_ns + stat.queue_ns
            )
            assert stat.mean_ns >= 0.0

    def test_warmup_skip_matches_issuer_stats(self, p7302):
        from repro.core.microbench import MicroBench

        iterations = 50
        tracer = Tracer()
        __, stats = MicroBench(p7302, seed=1).pointer_chase(
            64 << 20, iterations=iterations, tracer=tracer
        )
        recording = tracer.recording()
        count, mean = txn_latency_stats(
            recording, skip_per_track=int(iterations * 0.1)
        )
        assert count == stats.count
        assert mean == pytest.approx(stats.mean, rel=1e-12)

    def test_render_is_self_checking(self, traced):
        __, recording, __p = traced
        text = render_breakdown("title", recording)
        assert "tiles exactly" in text
        assert "noc" in text and "fixed" in text
        assert "-0.00" not in text

    def test_fill_counters_replays_link_hops(self, p7302, traced):
        __, recording, __p = traced
        registry = CounterRegistry()
        recorded = fill_counters(registry, p7302, recording)
        assert recorded > 0
        snapshot = registry.snapshot()
        assert "noc" in snapshot
        assert all("tokens/" not in name for name in snapshot)
        assert all("credits/" not in name for name in snapshot)
        # Every recorded transfer is a real 64B transaction replayed 1:1.
        assert snapshot["noc"].read_bytes == snapshot["noc"].read_txns * 64


class TestProfilerWiring:
    def test_one_sample_per_transaction_with_flow_identity(self, traced):
        __, recording, profile = traced
        txns = sum(1 for s in recording.spans if s["cat"] == "txn")
        assert f"{txns} samples" in profile
        assert "victim" in profile and "hog" in profile

    def test_tracer_without_profiler_skips_sampling(self):
        env = Environment()
        tracer = Tracer(env)
        tracer.sample_flow("f", 64)  # must not raise

    def test_recording_meta_carries_the_arm(self, p7302):
        point, recording, __ = netstack.run_point_traced(
            p7302, "off", transactions_per_core=_TXNS, profiler_top_k=2
        )
        assert point.backend == "des"
        assert recording.meta == {"arm": "off"}


class TestExporter:
    def test_chrome_trace_structure(self, traced):
        __, recording, __p = traced
        trace = chrome_trace([("netstack/credits", recording)])
        events = trace["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        ms = [e for e in events if e["ph"] == "M"]
        assert len(xs) == len(recording.spans)
        assert event_count(trace) == len(xs)
        assert {e["pid"] for e in xs} == {1}
        process_names = [m for m in ms if m["name"] == "process_name"]
        assert process_names[0]["args"]["name"] == "netstack/credits"
        thread_names = {
            m["args"]["name"] for m in ms if m["name"] == "thread_name"
        }
        assert thread_names == {span["track"] for span in recording.spans}
        for event in xs:
            assert event["ts"] >= 0.0 and event["dur"] >= 0.0

    def test_timestamps_are_microseconds(self, traced):
        __, recording, __p = traced
        trace = chrome_trace([("c", recording)])
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert max(e["ts"] for e in xs) == pytest.approx(
            max(s["ts"] for s in recording.spans) / 1000.0
        )

    def test_multi_cell_pids_and_determinism(self, traced):
        __, recording, __p = traced
        pair = [("a", recording), ("b", recording)]
        text = dumps(chrome_trace(pair))
        assert text == dumps(chrome_trace(pair))
        parsed = json.loads(text)
        pids = {e["pid"] for e in parsed["traceEvents"] if e["ph"] == "X"}
        assert pids == {1, 2}

    def test_dumps_is_compact_and_sorted(self, traced):
        __, recording, __p = traced
        text = dumps(chrome_trace([("c", recording)]))
        assert ": " not in text and ", " not in text
        assert json.loads(text)["displayTimeUnit"] == "ns"


class TestExperimentLayer:
    def test_run_and_render_netstack(self, p7302):
        from repro.experiments import trace as trace_exp

        results = run_cells_detailed(
            trace_exp.cells(p7302, "netstack", samples=12), cache=None
        )
        assert len(results) == len(netstack.ARMS)
        assert all(result.ok for result in results)
        text = trace_exp.render(p7302, "netstack", results)
        for arm in netstack.ARMS:
            assert f"netstack/{arm}" in text
        assert "channel utilization" in text
        json_text, events = trace_exp.export_json(results)
        assert events == sum(
            len(result.value.recording.spans) for result in results
        )
        assert json.loads(json_text)["traceEvents"]

    def test_unknown_cell_rejected(self, p7302):
        from repro.experiments import trace as trace_exp

        with pytest.raises(ConfigurationError):
            trace_exp.cells(p7302, "fig9", samples=12)
        with pytest.raises(ConfigurationError):
            trace_exp.default_samples("fig9")
        with pytest.raises(ConfigurationError):
            trace_exp.cells(p7302, "netstack", samples=1)

    def test_default_out_path(self, p7302):
        from repro.experiments import trace as trace_exp

        assert (
            trace_exp.default_out_path("netstack", p7302)
            == "trace-netstack-epyc-7302.json"
        )

"""Tests for the hybrid batched/fluid kvstore serving engine.

Three contracts:

* **Physics** — the hybrid engine reproduces the DES model's story:
  CXL values pay their premium, a colocated hog moves the tail, the
  QoS grant recovers the victim.
* **Determinism** — ``repro kvstore`` is byte-identical for any
  ``--jobs`` and across cache miss/hit, and the ``kvstore`` service
  kind round-trips through ``normalize_spec``/``run_local`` with the
  same artifact the CLI prints.
* **Conformance** (tier-2, ``-m conformance``) — hybrid p50/p99 agree
  with the per-event DES reference on small cells within the
  documented tolerance: exact arrivals plus exact pool recurrences
  keep background-off and paced arms within 2%; the unthrottled-hog
  arm rides the fluid coupling's calibrated clamp and is held to 10%
  (measured worst ~6.5%; see docs/PERFORMANCE.md).
"""

import json

import numpy as np
import pytest

from repro.apps import (
    ArrivalSpec,
    HybridKvServer,
    KvServerModel,
    KvWorkload,
    TenantSpec,
)
from repro.cli import main
from repro.errors import ConfigurationError, MeasurementError
from repro.experiments import kvserve
from repro.service.registry import normalize_spec, render_results, run_local
from repro.sim.rng import SplitRng


def _workload(qps=2_000_000.0, requests=2000, **kwargs):
    return KvWorkload(qps=qps, requests=requests, **kwargs)


class TestArrivalSpec:
    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="adversarial")

    def test_onoff_burst_bounded_by_duty_cycle(self):
        # A 5x burst over a 25% duty cycle would need a negative off-rate.
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="onoff", burst_factor=5.0, on_fraction=0.25)

    @pytest.mark.parametrize("on_fraction, qps", [
        (0.9, 1e6), (0.3, 7.3e6), (0.45, 2e6),
    ])
    def test_full_burst_is_silent_between_bursts(self, on_fraction, qps):
        # At burst_factor == 1 / on_fraction the off-rate is zero, but it
        # used to round to about -1e-9, which onoff_arrivals rejected.
        spec = ArrivalSpec(
            kind="onoff", on_fraction=on_fraction, burst_factor=1 / on_fraction
        )
        arrivals = spec.generate(SplitRng(7).stream("arrivals"), qps, 20_000)
        assert arrivals.size == 20_000
        phase = np.mod(arrivals, spec.period_ns)
        assert np.all(phase <= on_fraction * spec.period_ns)

    def test_diurnal_needs_levels(self):
        with pytest.raises(ConfigurationError):
            ArrivalSpec(kind="diurnal", levels=())

    @pytest.mark.parametrize("spec", [
        ArrivalSpec(),
        ArrivalSpec(kind="onoff", burst_factor=3.0, on_fraction=0.25),
        ArrivalSpec(kind="diurnal", levels=(1.0, 2.0, 0.5, 0.5)),
    ])
    def test_mean_rate_preserved(self, spec):
        # Every shape keeps the workload's nominal QPS as the mean rate.
        rng = SplitRng(7).stream("arrivals")
        qps, count = 2_000_000.0, 200_000
        arrivals = spec.generate(rng, qps, count)
        assert arrivals.size == count
        assert np.all(np.diff(arrivals) >= 0)
        achieved = count / (arrivals[-1] - arrivals[0]) * 1e9
        assert achieved == pytest.approx(qps, rel=0.02)


class TestHybridPhysics:
    @pytest.fixture(scope="class")
    def server(self, p9634):
        return HybridKvServer(p9634, seed=0)

    @pytest.fixture(scope="class")
    def background(self, p9634):
        return [core.core_id for core in p9634.cores_of_ccd(0)[4:]]

    def test_cxl_values_pay_premium(self, server):
        dram = server.serve(_workload())
        cxl = server.serve(_workload(value_tier="cxl"))
        assert cxl.latency.mean > dram.latency.mean + 80.0

    def test_deep_index_costs_round_trips(self, server):
        base = server.serve(_workload())
        deep = server.serve(_workload(index_depth=4))
        delta = deep.latency.mean - base.latency.mean
        assert delta == pytest.approx(2 * 141.0, rel=0.25)

    def test_hog_moves_tail_and_qos_recovers(self, server, background):
        quiet = server.serve(_workload())
        noisy = server.serve(_workload(), background_cores=background)
        paced = server.serve(
            _workload(), background_cores=background,
            background_rate_gbps=kvserve.QOS_RATE_GBPS,
        )
        assert noisy.latency.p99 > quiet.latency.p99
        assert paced.latency.p99 < noisy.latency.p99
        assert paced.latency.p99 <= quiet.latency.p99 * 1.25

    def test_slo_predicate(self, p9634):
        point = kvserve.run_point(p9634, "dram", "off", requests=2000)
        assert point.meets_slo(p99_us=2.0)
        assert not point.meets_slo(p99_us=0.1)

    def test_achieved_qps_tracks_offered(self, server):
        report = server.serve(_workload(requests=20_000))
        assert report.achieved_qps == pytest.approx(2_000_000.0, rel=0.05)

    def test_degenerate_span_rejected(self, p9634, monkeypatch):
        # All requests arriving and completing at one instant has no
        # defined achieved-QPS; the guard must refuse, not divide by 0.
        server = HybridKvServer(p9634, seed=0)
        monkeypatch.setattr(
            HybridKvServer, "service_times_ns",
            lambda self, *a, **k: np.zeros(1),
        )
        monkeypatch.setattr(
            ArrivalSpec, "generate",
            lambda self, rng, qps, count: np.zeros(count),
        )
        with pytest.raises(MeasurementError):
            server.serve(_workload(requests=10), workers=1)


class TestMultiTenant:
    def test_merged_summary_is_exact(self, p9634):
        server = HybridKvServer(p9634, seed=0)
        tenants = [
            TenantSpec(name="a", workload=_workload(), server_ccd=0),
            TenantSpec(
                name="b", workload=_workload(value_tier="cxl"), server_ccd=1,
                arrival=ArrivalSpec(kind="onoff"),
            ),
        ]
        reports, merged = server.serve_tenants(tenants)
        assert merged.count == sum(t.workload.requests for t in tenants)
        assert merged.minimum == min(
            r.report.latency.minimum for r in reports
        )
        assert merged.maximum == max(
            r.report.latency.maximum for r in reports
        )
        assert merged.p50 <= merged.p99 <= merged.p999 <= merged.maximum

    def test_empty_and_duplicate_tenants_rejected(self, p9634):
        server = HybridKvServer(p9634, seed=0)
        with pytest.raises(ConfigurationError):
            server.serve_tenants([])
        tenant = TenantSpec(name="a", workload=_workload())
        with pytest.raises(ConfigurationError):
            server.serve_tenants([tenant, tenant])


_CLI_ARGS = [
    "kvstore", "--platform", "9634", "--requests", "1500",
]


def _run_cli(capsys, *extra):
    assert main([*_CLI_ARGS, *extra]) == 0
    return capsys.readouterr().out


class TestCliDeterminism:
    @pytest.mark.parametrize("jobs", ["2", "4"])
    def test_stdout_identical_across_jobs(self, capsys, jobs):
        baseline = _run_cli(capsys, "--jobs", "1", "--no-cache")
        fanned = _run_cli(capsys, "--jobs", jobs, "--no-cache")
        assert fanned == baseline
        assert "Open-loop kvstore serving tails" in baseline

    def test_cache_miss_then_hit_byte_identical(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        cold = _run_cli(capsys)  # populates the cache
        warm = _run_cli(capsys, "--jobs", "3")
        assert warm == cold
        uncached = _run_cli(capsys, "--no-cache")
        assert uncached == cold


class TestServiceKind:
    def test_normalize_fills_defaults(self):
        spec = normalize_spec({"kind": "kvstore", "platform": "9634"})
        assert spec["params"] == {"qps": 2_000_000.0, "requests": 100_000}

    def test_normalize_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            normalize_spec(
                {"kind": "kvstore", "params": {"qps": -1.0}}
            )
        with pytest.raises(ConfigurationError):
            normalize_spec(
                {"kind": "kvstore", "params": {"requests": 5}}
            )
        with pytest.raises(ConfigurationError):
            normalize_spec(
                {"kind": "kvstore", "params": {"qps": True}}
            )
        # Python's json reads the Infinity token as float("inf").
        with pytest.raises(ConfigurationError):
            normalize_spec(json.loads(
                '{"kind": "kvstore", "params": {"qps": Infinity}}'
            ))

    def test_local_run_matches_cli_artifact(self, capsys, p9634):
        spec = normalize_spec({
            "kind": "kvstore", "platform": "9634",
            "params": {"requests": 1500},
        })
        results = run_local(spec, cache=None)
        artifact = render_results(spec, results)
        cli_out = _run_cli(capsys, "--no-cache")
        assert artifact + "\n" == cli_out

    def test_submit_fallback_matches_kvstore_command(self, capsys):
        direct = _run_cli(capsys, "--no-cache")
        assert main([
            "submit", "kvstore", "--platform", "9634",
            "--requests", "1500", "--local", "--no-cache",
        ]) == 0
        assert capsys.readouterr().out == direct


def _des_report(platform, workers, background_cores, rate):
    model = KvServerModel(
        platform, workers=workers, seed=0, with_dram_jitter=False
    )
    return model.serve(
        _workload(),
        background_cores=background_cores,
        background_rate_gbps=rate,
    )


@pytest.mark.conformance
class TestHybridVsDes:
    """Hybrid-vs-DES agreement on small cells, both paper presets.

    Documented tolerance: background-off and QoS-paced arms within 2%
    on p50 and p99 (arrivals are bit-identical and the pool recurrence
    is exact; the residue is per-core service asymmetry under
    overload), the unthrottled-hog arm within 10% (the fluid coupling
    approximates queueing behind a window-limited issuer; measured
    worst ~6.5%).
    """

    CASES = [
        ("off", None, 0.02),
        ("qos", kvserve.QOS_RATE_GBPS, 0.02),
        ("hog", None, 0.10),
    ]

    @pytest.mark.parametrize("preset", ["p7302", "p9634"])
    @pytest.mark.parametrize("arm,rate,tolerance", CASES)
    def test_small_cell_agreement(self, preset, arm, rate, tolerance, request):
        platform = request.getfixturevalue(preset)
        workers = kvserve.default_workers(platform)
        cores = list(kvserve.hog_cores(platform, workers=workers))
        background = cores if arm != "off" else None
        des = _des_report(platform, workers, background, rate)
        hybrid = HybridKvServer(platform).serve(
            _workload(), workers=workers,
            background_cores=background, background_rate_gbps=rate,
        )
        assert hybrid.latency.p50 == pytest.approx(
            des.latency.p50, rel=tolerance
        )
        assert hybrid.latency.p99 == pytest.approx(
            des.latency.p99, rel=tolerance
        )

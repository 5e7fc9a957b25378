"""Determinism, caching, goldens, and spec plumbing for ``repro explore``.

The sweep's contract is the repo-wide one: stdout is byte-identical for
any ``--jobs`` fan-out and across cache miss/hit, every cell's cache key
folds the full generator spec (``TopologyGen.__repro_cache_key__``), and
the scored table is pinned as a committed golden so a model change shows
up as a reviewed diff, not silent drift.
"""

import dataclasses

import pytest

from repro.cache import cell_key
from repro.cli import main
from repro.errors import ConfigurationError
from repro.runner import run_cells_detailed

from tests.test_goldens import _check

#: Reduced DES packet count: determinism/golden runs must stay tier-1 cheap.
_PACKETS = 30

_ARGS = ["explore", "--packets", str(_PACKETS)]


def _run_cli(args):
    assert main(args) == 0


class TestDeterminism:
    def test_byte_identical_across_jobs(self, capsys):
        outputs = []
        for jobs in ("1", "2", "4"):
            _run_cli(_ARGS + ["--jobs", jobs])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert "squeeze-3x2" in outputs[0]

    def test_byte_identical_across_cache_miss_and_hit(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        _run_cli(_ARGS)  # cold: every cell misses and is written
        cold = capsys.readouterr().out
        assert any(tmp_path.iterdir()), "cold run must populate the cache"
        _run_cli(_ARGS)  # warm: every cell hits
        warm = capsys.readouterr().out
        assert cold == warm

    def test_single_topology_filter(self, capsys):
        _run_cli(_ARGS + [
            "--topology", "squeeze-3x2",
            "--routing", "adaptive",
            "--workload", "contention",
        ])
        out = capsys.readouterr().out
        assert "squeeze-3x2" in out
        assert "epyc-9634" not in out
        assert " xy " not in out

    def test_unknown_topology_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["explore", "--topology", "torus-9000"])
        assert "unknown topology" in capsys.readouterr().err


class TestCacheKeys:
    """Sweep cells key on the full generator spec, not just its name."""

    def _key(self, gen):
        from repro.experiments.explore import run_point

        key = cell_key(
            run_point,
            (gen.name, gen, "adaptive", "contention"),
            dict(seed=0, packets_per_sender=_PACKETS),
        )
        assert key is not None, "explore cells must be cacheable"
        return key

    def test_geometry_edit_splits_the_key(self):
        from repro.platform.generator import from_catalog

        gen = from_catalog("squeeze-3x2")
        assert self._key(gen) != self._key(
            dataclasses.replace(gen, width_factor=0.75)
        )
        assert self._key(gen) != self._key(
            dataclasses.replace(gen, umc_coords=((2, 0),))
        )

    def test_equal_specs_share_the_key(self):
        from repro.platform.generator import from_catalog

        gen = from_catalog("squeeze-3x2")
        assert self._key(gen) == self._key(dataclasses.replace(gen))


class TestServiceSpec:
    """The ``explore`` service kind normalizes and builds like the CLI."""

    def test_defaults_fill_the_full_sweep(self):
        from repro.platform.generator import catalog_names
        from repro.service.registry import build_cells, normalize_spec

        spec = normalize_spec({"kind": "explore"})
        assert spec["params"]["topologies"] == list(catalog_names())
        assert spec["params"]["routings"] == ["xy", "adaptive"]
        assert spec["params"]["workloads"] == ["contention", "uniform"]
        assert spec["params"]["packets_per_sender"] == 60
        cells = build_cells(spec)
        assert len(cells) == len(catalog_names()) * 2 * 2

    def test_unknown_topology_rejected(self):
        from repro.service.registry import normalize_spec

        with pytest.raises(ConfigurationError):
            normalize_spec(
                {"kind": "explore", "params": {"topologies": ["torus-9000"]}}
            )

    def test_cells_match_the_library_order(self):
        from repro.experiments import explore
        from repro.service.registry import build_cells, normalize_spec

        spec = normalize_spec({
            "kind": "explore",
            "params": {"packets_per_sender": _PACKETS},
        })
        via_service = build_cells(spec)
        results = run_cells_detailed(
            explore.cells(packets_per_sender=_PACKETS), jobs=1, cache=None
        )
        assert len(via_service) == len(results)
        for cell, result in zip(via_service, results):
            name, __, routing, workload = cell.args
            assert (name, routing, workload) == (
                result.value.topology,
                result.value.routing,
                result.value.workload,
            )


class TestGolden:
    def test_score_table_golden(self, update_goldens):
        from repro.experiments import explore

        results = run_cells_detailed(
            explore.cells(packets_per_sender=_PACKETS), jobs=1, cache=None
        )
        payload = {
            f"{p.topology}/{p.workload}/{p.routing}": {
                "victim_share": _nan_none(p.victim_share),
                "des_victim_share": _nan_none(p.des_victim_share),
                "jain": p.jain,
                "p99_ns": p.p99_ns,
                "bisection_util": p.bisection_util,
                "score": p.score,
            }
            for p in (result.value for result in results)
        }
        _check("explore-catalog", payload, update_goldens)


def _nan_none(value: float):
    """JSON-safe float: NaN (victim-less workloads) becomes None."""
    import math

    return None if math.isnan(value) else value

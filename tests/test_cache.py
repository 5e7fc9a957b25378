"""Tests for the content-addressed cell result cache."""

import dataclasses
import enum
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.cache import (
    CACHE_DIR_ENV_VAR,
    CACHE_ENV_VAR,
    ResultCache,
    Uncacheable,
    cache_enabled_by_env,
    cell_key,
    code_fingerprint,
    default_cache,
    set_default_cache,
    stable_bytes,
)
from repro.runner import Cell, run_cells, run_cells_detailed


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    label: str


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


def _square(x):
    return x * x


def _boom(x):
    raise RuntimeError("cell failure")


def _typeof(x):
    return type(x).__name__


class TestStableBytes:
    def test_dict_order_invariant(self):
        assert stable_bytes({"a": 1, "b": 2}) == stable_bytes({"b": 2, "a": 1})

    def test_set_order_invariant(self):
        assert stable_bytes({3, 1, 2}) == stable_bytes({2, 3, 1})

    def test_distinguishes_types(self):
        assert stable_bytes(1) != stable_bytes(1.0)
        assert stable_bytes("1") != stable_bytes(1)
        assert stable_bytes(True) != stable_bytes(1)
        assert stable_bytes([1, 2]) != stable_bytes([2, 1])

    def test_dataclass_enum_array(self):
        value = (_Point(1.5, "p"), _Color.RED, np.arange(4.0))
        assert stable_bytes(value) == stable_bytes(
            (_Point(1.5, "p"), _Color.RED, np.arange(4.0))
        )
        assert stable_bytes(_Color.RED) != stable_bytes(_Color.BLUE)
        assert stable_bytes(np.arange(4.0)) != stable_bytes(
            np.arange(4.0).reshape(2, 2)
        )

    def test_callables_by_qualified_name(self):
        assert stable_bytes(_square) == stable_bytes(_square)
        assert stable_bytes(_square) != stable_bytes(_boom)

    def test_unencodable_raises_uncacheable(self):
        with pytest.raises(Uncacheable):
            stable_bytes(object())

    def test_platform_encodes_via_its_spec(self):
        # Experiment cells take Platform arguments; without a stable
        # encoding every real sweep would silently become uncacheable.
        from repro.platform.presets import epyc_7302, epyc_9634

        assert stable_bytes(epyc_7302()) == stable_bytes(epyc_7302())
        assert stable_bytes(epyc_7302()) != stable_bytes(epyc_9634())


class TestKeyChunkMemo:
    """Objects keyed through ``__repro_cache_key__`` are encoded once each."""

    @pytest.fixture(autouse=True)
    def _cold_memo(self, monkeypatch):
        import repro.cache as cache_module

        monkeypatch.setattr(cache_module, "_key_chunks", {})

    @staticmethod
    def _fresh(value):
        return (
            b"k" + stable_bytes(type(value).__qualname__) + b"("
            + stable_bytes(value.__repro_cache_key__()) + b")"
        )

    def test_cold_and_warm_encodings_match_a_fresh_one(self, monkeypatch):
        from repro.platform.generator import TopologyGen, from_catalog
        from repro.platform.presets import epyc_7302

        calls = []
        surrogate = TopologyGen.__repro_cache_key__

        def counted(self):
            calls.append(self)
            return surrogate(self)

        monkeypatch.setattr(TopologyGen, "__repro_cache_key__", counted)
        for value in (epyc_7302(), from_catalog("squeeze-3x2")):
            fresh = self._fresh(value)
            cold = stable_bytes(value)
            warm = stable_bytes((value, value))
            assert cold == fresh
            assert warm == b"l(" + fresh + fresh + b")"
        # _fresh and the cold encoding asked the TopologyGen for its
        # surrogate; both warm encodings reused the memo.
        assert len(calls) == 2

    def test_generators_differing_in_one_field_split_once_warm(self):
        from repro.platform.generator import from_catalog

        base = from_catalog("squeeze-3x2")
        wider = dataclasses.replace(base, width_factor=2.0)
        for value in (base, wider, base, wider):
            stable_bytes(value)
        assert stable_bytes(base) != stable_bytes(wider)
        assert cell_key(_square, (base,), {}) != cell_key(_square, (wider,), {})

    def test_equal_objects_that_encode_differently_stay_apart(self):
        # 1 == 1.0, so equal generators can still differ in their bytes; the
        # memo is keyed by identity and never hands one the other's chunk.
        from repro.platform.generator import from_catalog

        base = from_catalog("squeeze-3x2")
        as_float = dataclasses.replace(base, width_factor=1.0)
        as_int = dataclasses.replace(base, width_factor=1)
        assert as_float == as_int
        stable_bytes(as_float)
        assert stable_bytes(as_int) == self._fresh(as_int)
        assert stable_bytes(as_int) != stable_bytes(as_float)


class TestResultCache:
    def test_keys_stable_across_instances(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        key = a.key_for(_square, (3,), {})
        assert key is not None
        assert key == b.key_for(_square, (3,), {})
        assert key != a.key_for(_square, (4,), {})
        assert key != a.key_for(_boom, (3,), {})

    def test_uncacheable_input_yields_no_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key_for(_square, (object(),), {}) is None

    def test_round_trip_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(_square, (3,), {})
        hit, value = cache.get(key)
        assert (hit, value) == (False, None)
        assert cache.put(key, 9)
        hit, value = cache.get(key)
        assert (hit, value) == (True, 9)
        assert cache.hits == 1 and cache.misses == 1

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for x in range(3):
            cache.put(cache.key_for(_square, (x,), {}), x * x)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.bytes > 0
        assert stats.root == str(tmp_path)
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_unstorable_value_degrades_to_false(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(_square, (1,), {})
        assert not cache.put(key, lambda: None)  # unpicklable

    def test_root_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path / "store"))
        assert ResultCache().root == tmp_path / "store"

    def test_code_fingerprint_stable_in_process(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_contains_probes_without_touching_counters(self, tmp_path):
        # The service probes every cell at admission; a probe must not
        # charge a hit or a miss — the hit lands when admission reads the
        # entry, the miss when the runner looks the cell up.
        cache = ResultCache(tmp_path)
        key = cache.key_for(_square, (3,), {})
        assert not cache.contains(key)
        cache.put(key, 9)
        assert cache.contains(key)
        assert cache.hits == 0 and cache.misses == 0
        assert cache.get(key) == (True, 9)
        assert cache.hits == 1


    def test_counters_lose_no_update_across_threads(self, tmp_path):
        # A service reads the store on its event loop while its job thread
        # reads it too: every hit, miss and byte must be counted.
        cache = ResultCache(tmp_path)
        hit = cache.key_for(_square, (3,), {})
        miss = cache.key_for(_square, (4,), {})
        cache.put(hit, 9)
        entry_bytes = cache.stats().bytes
        threads, rounds = 8, 200

        def read():
            for _ in range(rounds):
                cache.get(hit)
                cache.get(miss)

        workers = [threading.Thread(target=read) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert cache.hits == cache.misses == threads * rounds
        assert cache.bytes_read == threads * rounds * entry_bytes


class TestStatsPersistence:
    """record_run(): per-run counter deltas persisted across processes."""

    def _one_hit_one_miss(self, cache):
        key = cache.key_for(_square, (3,), {})
        cache.get(key)          # miss
        cache.put(key, 9)
        cache.get(key)          # hit

    def test_record_run_persists_deltas_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._one_hit_one_miss(cache)
        assert cache.record_run("warmup")
        # No activity since the record: an all-zero delta writes nothing.
        assert not cache.record_run("idle")
        stats = cache.stats()
        assert stats.recorded_runs == 1
        assert stats.recorded_hits == 1
        assert stats.recorded_misses == 1
        assert stats.recorded_bytes_read > 0
        assert stats.recorded_bytes_written > 0

    def test_deltas_never_double_count(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._one_hit_one_miss(cache)
        cache.record_run("first")
        cache.get(cache.key_for(_square, (3,), {}))     # one more hit
        assert cache.record_run("second")
        stats = cache.stats()
        assert stats.recorded_runs == 2
        assert stats.recorded_hits == 2     # 1 + 1, not 1 + 2
        assert stats.recorded_misses == 1

    def test_records_visible_to_other_instances(self, tmp_path):
        # A fresh instance on the same root (standing in for another
        # process) aggregates the persisted records even though its own
        # live counters are untouched.
        writer = ResultCache(tmp_path)
        self._one_hit_one_miss(writer)
        writer.record_run("writer")
        reader = ResultCache(tmp_path)
        stats = reader.stats()
        assert reader.hits == 0 and reader.misses == 0
        assert stats.recorded_runs == 1
        assert stats.recorded_hits == 1
        assert stats.recorded_misses == 1

    def test_clear_removes_run_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._one_hit_one_miss(cache)
        cache.record_run("gone")
        cache.clear()
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.recorded_runs == 0
        assert stats.recorded_hits == 0

    def test_stats_read_one_totals_file_however_many_runs(
        self, tmp_path, monkeypatch
    ):
        import repro.cache as cache_module

        cache = ResultCache(tmp_path)
        self._one_hit_one_miss(cache)
        key = cache.key_for(_square, (3,), {})
        for __ in range(1000):
            cache.get(key)              # one hit per run
            assert cache.record_run("run")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cache_module, "open", counting_open, raising=False)
        stats = ResultCache(tmp_path).stats()
        assert len(opened) <= 2         # the lock and the totals
        assert sorted(p.name for p in (tmp_path / "_stats").iterdir()) == [
            ".lock", "totals.json",
        ]
        assert stats.recorded_runs == 1000
        assert stats.recorded_hits == 1001
        assert stats.recorded_misses == 1

    def test_concurrent_recorders_lose_and_double_count_nothing(
        self, tmp_path
    ):
        # Four recording processes (more than this host's cores), released
        # together: 50 runs of one hit each, recorded at once.
        import os
        import subprocess

        import repro

        go = tmp_path / "go"
        script = (
            "import os, sys, time\n"
            "from repro.cache import ResultCache\n"
            "root, go = sys.argv[1], sys.argv[2]\n"
            "deadline = time.monotonic() + 30\n"
            "while not os.path.exists(go) and time.monotonic() < deadline:\n"
            "    time.sleep(0.001)\n"
            "cache = ResultCache(root)\n"
            "for __ in range(50):\n"
            "    cache.hits += 1\n"
            "    if not cache.record_run('worker'):\n"
            "        sys.exit(1)\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), str(go)],
                env=env,
            )
            for __ in range(4)
        ]
        go.touch()
        assert [worker.wait(timeout=60) for worker in workers] == [0] * 4
        stats = ResultCache(tmp_path).stats()
        assert stats.recorded_runs == 200
        assert stats.recorded_hits == 200

    def test_per_run_records_of_older_versions_are_folded(self, tmp_path):
        import json

        stats_dir = tmp_path / "_stats"
        stats_dir.mkdir()
        for index in range(3):
            (stats_dir / f"run-{index}-1.json").write_text(json.dumps({
                "label": "old", "hits": 2, "misses": 1, "bytes_read": 10,
                "bytes_written": 5, "pid": 1, "recorded_at_ns": index,
            }))
        cache = ResultCache(tmp_path)
        assert cache.stats().recorded_runs == 3
        self._one_hit_one_miss(cache)
        assert cache.record_run("new")
        assert not list(stats_dir.glob("run-*.json"))
        stats = cache.stats()
        assert stats.recorded_runs == 4
        assert stats.recorded_hits == 7
        assert stats.recorded_misses == 4
        assert stats.recorded_bytes_read > 30


class TestRunnerIntegration:
    def test_second_run_hits_and_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [Cell(_square, (x,)) for x in range(4)]
        first = run_cells_detailed(cells, jobs=1, cache=cache)
        assert [r.value for r in first] == [0, 1, 4, 9]
        assert all(not r.cached and r.attempts == 1 for r in first)
        second = run_cells_detailed(cells, jobs=1, cache=cache)
        assert [r.value for r in second] == [0, 1, 4, 9]
        assert all(r.cached and r.attempts == 0 for r in second)

    def test_cached_matches_uncached_for_any_jobs(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [Cell(_square, (x,)) for x in range(6)]
        uncached = run_cells(cells, jobs=1, cache=None)
        for jobs in (1, 3):
            assert run_cells(cells, jobs=jobs, cache=cache) == uncached

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = [Cell(_boom, (1,))]
        detailed = run_cells_detailed(cells, jobs=1, cache=cache)
        assert not detailed[0].ok
        assert cache.stats().entries == 0
        rerun = run_cells_detailed(cells, jobs=1, cache=cache)
        assert not rerun[0].ok and not rerun[0].cached

    def test_uncacheable_cell_still_runs(self, tmp_path):
        # An argument with no stable encoding means no key: the cell runs
        # normally every time and nothing lands in the store.
        cache = ResultCache(tmp_path)
        cells = [Cell(_typeof, (object(),))]
        detailed = run_cells_detailed(cells, jobs=1, cache=cache)
        assert detailed[0].ok and not detailed[0].cached
        assert cache.stats().entries == 0
        rerun = run_cells_detailed(cells, jobs=1, cache=cache)
        assert rerun[0].ok and not rerun[0].cached

    def test_store_shared_between_instances(self, tmp_path):
        cells = [Cell(_square, (5,))]
        run_cells_detailed(cells, jobs=1, cache=ResultCache(tmp_path))
        second = run_cells_detailed(
            cells, jobs=1, cache=ResultCache(tmp_path)
        )
        assert second[0].cached and second[0].value == 25


class TestDefaultCache:
    @pytest.fixture(autouse=True)
    def _reset_default(self):
        # Restore the "never explicitly set" state so env-var resolution
        # is observable again after tests that install a default.
        import repro.cache as cache_module

        yield
        cache_module._default = cache_module._UNSET

    def test_explicit_default_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "0")
        cache = ResultCache(tmp_path)
        set_default_cache(cache)
        assert default_cache() is cache
        set_default_cache(None)
        assert default_cache() is None

    def test_env_truthy_builds_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, "1")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
        cache = default_cache()
        assert cache is not None and cache.root == Path(tmp_path)

    def test_env_falsy_disables(self, monkeypatch):
        for raw in ("0", "off", "FALSE", "no"):
            monkeypatch.setenv(CACHE_ENV_VAR, raw)
            assert not cache_enabled_by_env()
            assert default_cache() is None
        monkeypatch.setenv(CACHE_ENV_VAR, "1")
        assert cache_enabled_by_env()

"""The runner's determinism contract, plus DES engine edge cases.

The load-bearing guarantee: ``run_cells(cells, jobs=1)`` and
``run_cells(cells, jobs=4)`` produce identical results — every cell builds
its own Environment and seed streams, and results merge in submission
order. The Figure 3 / Table 2 tests below assert it on the real pipelines.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import CellExecutionError, ConfigurationError, SimulationError
from repro.experiments import fig3, table2
from repro.platform.presets import epyc_7302
from repro.runner import (
    Cell,
    CellFailure,
    CellResult,
    resolve_jobs,
    run_cells,
    run_cells_detailed,
    run_groups,
)
from repro.sim.engine import Environment, Resource, Store
from repro.transport.message import OpKind


# --------------------------------------------------------------------------
# jobs=1 == jobs=4 on real experiment pipelines


def _panel_d_cells(platform):
    config = next(c for c in fig3.panel_configs(platform) if c.panel == "d")
    return [
        Cell(
            fig3.run_panel,
            (platform, config, op),
            dict(transactions_per_core=120, fractions=(0.3, 0.8), seed=0),
        )
        for op in (OpKind.READ, OpKind.NT_WRITE)
    ]


def test_fig3_panel_d_jobs_invariant():
    platform = epyc_7302()
    serial = run_cells(_panel_d_cells(platform), jobs=1)
    pooled = run_cells(_panel_d_cells(platform), jobs=4)
    assert fig3.render(serial) == fig3.render(pooled)
    for a, b in zip(serial, pooled):
        assert a.op is b.op
        assert a.offered_gbps == b.offered_gbps
        assert [r.stats.mean for r in a.results] == [
            r.stats.mean for r in b.results
        ]
        assert [r.stats.p999 for r in a.results] == [
            r.stats.p999 for r in b.results
        ]


def test_table2_jobs_invariant():
    platform = epyc_7302()
    serial = run_cells(table2.cells(platform, iterations=300, seed=0), jobs=1)
    pooled = run_cells(table2.cells(platform, iterations=300, seed=0), jobs=4)
    assert table2.render({platform.name: serial[0]}) == table2.render(
        {platform.name: pooled[0]}
    )


# --------------------------------------------------------------------------
# jobs resolution and fan-out mechanics


def test_resolve_jobs_values(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs("2") == 2
    assert resolve_jobs("auto") >= 1
    assert resolve_jobs(None) >= 1
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs(None) == 5
    # An explicit value beats the environment variable.
    assert resolve_jobs(2) == 2


def test_resolve_jobs_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        resolve_jobs(0)
    with pytest.raises(ConfigurationError):
        resolve_jobs(-2)
    with pytest.raises(ConfigurationError):
        resolve_jobs("many")


def test_run_cells_unpicklable_degrades_to_serial():
    # Lambdas can't cross a process boundary; run_cells must still work.
    cells = [Cell(lambda i=i: i * i) for i in range(4)]
    assert run_cells(cells, jobs=4) == [0, 1, 4, 9]


def test_run_cells_empty():
    assert run_cells([], jobs=4) == []


def test_run_groups_splits_one_batch():
    # One batch over every group: a cell repeated in a later group is
    # deduped against the first, and each group's results (failures
    # included) are indexed from 0 as if the group had run alone.
    groups = run_groups(
        [
            [Cell(_square, (2,)), Cell(_square, (3,))],
            [Cell(_square, (3,)), Cell(_raise_oserror, (7,))],
            [],
        ],
        jobs=1,
        cache=None,
    )
    assert [[r.value for r in group] for group in groups] == [
        [4, 9], [9, None], [],
    ]
    assert [[r.index for r in group] for group in groups] == [
        [0, 1], [0, 1], [],
    ]
    assert groups[1][0].deduped and not groups[0][1].deduped
    assert groups[1][1].failure.index == 1
    assert isinstance(groups[1][1].failure.error, OSError)


# --------------------------------------------------------------------------
# hardened runner: failures, crashes, timeouts, retries


def _square(x):
    return x * x


def _raise_oserror(x):
    raise OSError(f"cell {x} touched a dead file")


def _in_worker():
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def _crash_worker_if_odd(x):
    if x % 2 == 1 and _in_worker():
        os._exit(13)        # hard worker death, not an exception
    return x * x


def _crash_worker_raise_main(x):
    if _in_worker():
        os._exit(13)
    raise RuntimeError("dies everywhere")


def _sleep_then_return(x, duration_s=0.0, pid_file=None):
    # pid_file ends up holding "<pid>" while the sleep runs and
    # "<pid> finished" once it has ended.
    if pid_file is not None:
        with open(pid_file, "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(duration_s)
    if pid_file is not None:
        with open(pid_file, "a") as fh:
            fh.write(" finished")
    return x


def _fail_until_marker(x, marker=None):
    # Fails once per marker file, then succeeds — a deterministic flake.
    if marker is not None and not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("attempted")
        raise RuntimeError("transient failure")
    return x


@pytest.fixture
def no_ramp(monkeypatch):
    """Pool unconditionally: no serial ramp before the workers start."""
    import repro.runner as runner_module

    monkeypatch.setattr(runner_module, "POOL_THRESHOLD_S", 0)


def test_oserror_inside_cell_propagates(no_ramp):
    # Regression: an OSError raised *inside* a cell used to be mistaken for
    # a sandboxed pool and silently re-ran every cell in-process. It must
    # surface like any other cell error.
    cells = [Cell(_square, (2,)), Cell(_raise_oserror, (1,))]
    with pytest.raises(OSError, match="dead file"):
        run_cells(cells, jobs=2)
    with pytest.raises(OSError, match="dead file"):
        run_cells(cells, jobs=1)


def test_worker_crash_recovers_all_cells(no_ramp):
    # A worker dying mid-batch (BrokenProcessPool) must not lose anything:
    # affected cells re-run in-process and the results match a clean
    # jobs=1 run bit-for-bit.
    # no_ramp forces pooling — these cells are far too cheap for the
    # adaptive serial ramp to ever hand them to workers otherwise.
    cells = [Cell(_crash_worker_if_odd, (x,)) for x in range(6)]
    pooled = run_cells(cells, jobs=3)
    serial = run_cells(cells, jobs=1)
    assert pooled == serial == [x * x for x in range(6)]


def test_worker_crash_with_failing_rerun_reports_crash(no_ramp):
    # When the in-process re-run after a worker death fails too, the
    # failure carries the crash context.
    cells = [Cell(_crash_worker_raise_main, (0,)), Cell(_square, (3,))]
    detailed = run_cells_detailed(cells, jobs=2)
    assert detailed[1].ok and detailed[1].value == 9
    assert not detailed[0].ok
    assert detailed[0].failure.kind == "crash"
    assert isinstance(detailed[0].failure.error, RuntimeError)


def test_pool_broken_during_submission_loses_nothing(monkeypatch, no_ramp):
    # A worker can die before the batch is fully submitted, and the next
    # submit then raises BrokenProcessPool itself: the cells not yet
    # submitted run in-process like the rest of a broken batch.
    import repro.runner as runner_module

    submit = runner_module.ProcessPoolExecutor.submit
    submitted = []

    def submit_then_break(self, fn, *args, **kwargs):
        submitted.append(args)
        if len(submitted) == 2:
            raise BrokenProcessPool("a worker died during submission")
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(
        runner_module.ProcessPoolExecutor, "submit", submit_then_break
    )
    cells = [Cell(_square, (x,)) for x in range(4)]
    detailed = run_cells_detailed(cells, jobs=2, cache=None)
    assert [result.value for result in detailed] == [0, 1, 4, 9]
    assert len(submitted) == 2


class TestSerialRamp:
    """The adaptive serial ramp: cheap batches never pay pool startup."""

    def _forbid_pool(self, monkeypatch):
        import repro.runner as runner_module

        def explode(*args, **kwargs):
            raise AssertionError("process pool constructed for a cheap batch")

        monkeypatch.setattr(runner_module, "ProcessPoolExecutor", explode)

    def test_cheap_cells_never_touch_the_pool(self, monkeypatch):
        self._forbid_pool(monkeypatch)
        cells = [Cell(_square, (x,)) for x in range(8)]
        assert run_cells(cells, jobs=4) == [x * x for x in range(8)]

    def test_threshold_zero_forces_pool(self, monkeypatch, no_ramp):
        self._forbid_pool(monkeypatch)
        cells = [Cell(_square, (x,)) for x in range(2)]
        with pytest.raises(AssertionError, match="process pool constructed"):
            run_cells(cells, jobs=2)

    def test_timeout_disables_the_ramp(self, monkeypatch):
        # Per-cell timeouts need worker preemption, so the pool is
        # mandatory even for cheap cells.
        self._forbid_pool(monkeypatch)
        cells = [Cell(_square, (x,)) for x in range(2)]
        with pytest.raises(AssertionError, match="process pool constructed"):
            run_cells(cells, jobs=2, timeout_s=5.0)

    def test_expensive_prefix_hands_rest_to_pool(self):
        # Once the measured serial time crosses the threshold, the
        # remaining cells go to workers — results still in order.
        cells = [Cell(_sleep_then_return, (x,), dict(duration_s=0.03)) for x in range(6)]
        out = run_cells(cells, jobs=3)
        assert out == list(range(6))


def test_per_cell_timeout_isolates_slow_cell(tmp_path):
    pid_file = str(tmp_path / "slow.pid")
    cells = [
        Cell(_sleep_then_return, (0,)),
        Cell(_sleep_then_return, (1,), dict(duration_s=30.0, pid_file=pid_file)),
        Cell(_sleep_then_return, (2,)),
    ]
    detailed = run_cells_detailed(cells, jobs=3, timeout_s=1.0)
    assert detailed[0].ok and detailed[0].value == 0
    assert detailed[2].ok and detailed[2].value == 2
    assert not detailed[1].ok
    assert detailed[1].failure.kind == "timeout"
    assert isinstance(detailed[1].failure.error, CellExecutionError)
    # The worker running the slow cell was stopped mid-sleep and reaped,
    # not waited for until the cell finished.
    with open(pid_file) as fh:
        record = fh.read()
    assert record.isdigit()
    with pytest.raises(ProcessLookupError):
        os.kill(int(record), 0)


def test_retry_recovers_transient_failure(tmp_path, monkeypatch):
    import repro.runner as runner_module

    monkeypatch.setattr(runner_module, "BACKOFF_S", 0.01)
    marker = str(tmp_path / "flaked")
    cells = [Cell(_fail_until_marker, (7,), dict(marker=marker))]
    detailed = run_cells_detailed(cells, jobs=1, retries=1)
    assert detailed[0].ok and detailed[0].value == 7
    assert detailed[0].attempts == 2


def test_fail_fast_raises_cell_execution_error():
    cells = [Cell(_raise_oserror, (0,)), Cell(_square, (3,))]
    with pytest.raises(CellExecutionError) as excinfo:
        run_cells_detailed(cells, jobs=1, fail_fast=True)
    assert excinfo.value.cell_index == 0
    assert excinfo.value.attempts == 1
    assert isinstance(excinfo.value.cause, OSError)


def test_keep_going_reports_per_cell_results():
    cells = [
        Cell(_square, (2,)), Cell(_raise_oserror, (9,)), Cell(_square, (4,)),
    ]
    detailed = run_cells_detailed(cells, jobs=2)
    assert [r.ok for r in detailed] == [True, False, True]
    assert detailed[0].value == 4 and detailed[2].value == 16
    failure = detailed[1].failure
    assert failure.kind == "error"
    exc = failure.as_exception()
    assert isinstance(exc, CellExecutionError)
    assert exc.cell_index == 1


def test_detailed_results_in_submission_order():
    cells = [Cell(_square, (x,)) for x in range(8)]
    for jobs in (1, 4):
        detailed = run_cells_detailed(cells, jobs=jobs)
        assert [r.index for r in detailed] == list(range(8))
        assert [r.value for r in detailed] == [x * x for x in range(8)]
        assert all(isinstance(r, CellResult) for r in detailed)
        assert all(r.attempts == 1 for r in detailed)


def test_run_cells_validates_parameters():
    cells = [Cell(_square, (1,))]
    with pytest.raises(ConfigurationError):
        run_cells_detailed(cells, timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        run_cells_detailed(cells, retries=-1)


def test_cell_failure_kinds_are_closed_set():
    with pytest.raises(ConfigurationError):
        CellFailure(index=0, kind="mystery", error=RuntimeError("x"), attempts=1)


# --------------------------------------------------------------------------
# in-batch dedup: identical cells collapse to one execution


def _record_call(path, x):
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    return x * x


def _boom_recorded(path, x):
    _record_call(path, x)
    raise RuntimeError("duplicated failure")


def _call_count(path):
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return sum(1 for line in handle if line.strip())


class TestInBatchDedup:
    """Content-identical cells within one batch run once and fan out."""

    def test_duplicates_collapse_with_caching_disabled(self, tmp_path):
        # Dedup keys on the same content address the cache uses, but must
        # hold with caching off — a sweep with repeated points does the
        # work once even when nothing persists.
        marker = str(tmp_path / "calls")
        cells = [Cell(_record_call, (marker, 4)) for _ in range(4)]
        cells.append(Cell(_record_call, (marker, 9)))
        detailed = run_cells_detailed(cells, jobs=1, cache=None)
        assert _call_count(marker) == 2
        assert [result.value for result in detailed] == [16, 16, 16, 16, 81]
        assert [result.deduped for result in detailed] == [
            False, True, True, True, False,
        ]
        # Fan-out copies report zero attempts: they never executed.
        assert all(result.attempts == 0 for result in detailed if result.deduped)

    def test_failed_primary_fans_out_failure_per_index(self, tmp_path):
        # A duplicate of a failed cell reports the same failure at its own
        # index — failures fan out exactly like values.
        marker = str(tmp_path / "calls")
        cells = [Cell(_boom_recorded, (marker, 1)) for _ in range(3)]
        detailed = run_cells_detailed(cells, jobs=1, cache=None)
        assert _call_count(marker) == 1
        assert all(not result.ok for result in detailed)
        assert [result.failure.index for result in detailed] == [0, 1, 2]
        assert all(result.failure.kind == "error" for result in detailed)

    def test_unkeyable_cells_are_never_deduped(self, tmp_path):
        # Lambdas have no stable content address (cell_key -> None); two
        # identical-looking ones must both run rather than silently alias.
        marker = str(tmp_path / "calls")
        cells = [
            Cell(lambda: _record_call(marker, 1)),
            Cell(lambda: _record_call(marker, 1)),
        ]
        detailed = run_cells_detailed(cells, jobs=1, cache=None)
        assert _call_count(marker) == 2
        assert not any(result.deduped for result in detailed)

    def test_cache_hits_take_precedence_over_dedup(self, tmp_path):
        # Once the store is warm, duplicates resolve as hits, not fan-out:
        # nothing executes and nothing is marked deduped.
        from repro.cache import ResultCache

        marker = str(tmp_path / "calls")
        cache = ResultCache(tmp_path / "store")
        run_cells_detailed(
            [Cell(_record_call, (marker, 4))], jobs=1, cache=cache
        )
        detailed = run_cells_detailed(
            [Cell(_record_call, (marker, 4)) for _ in range(3)],
            jobs=1, cache=cache,
        )
        assert _call_count(marker) == 1
        assert all(result.cached for result in detailed)
        assert not any(result.deduped for result in detailed)

    def test_streaming_emits_fanout_copies_exactly_once(self, tmp_path):
        marker = str(tmp_path / "calls")
        arrived = []
        cells = [Cell(_record_call, (marker, 4)) for _ in range(3)]
        run_cells_detailed(
            cells, jobs=1, cache=None, on_result=arrived.append
        )
        assert sorted(result.index for result in arrived) == [0, 1, 2]
        assert sum(1 for result in arrived if result.deduped) == 2


# --------------------------------------------------------------------------
# DES engine edge cases


def test_any_of_failed_child_raises_in_waiter():
    env = Environment()
    bad = env.event()
    seen = []

    def waiter():
        try:
            yield env.any_of([env.timeout(10.0), bad])
        except RuntimeError as exc:
            seen.append((env.now, str(exc)))

    def trigger():
        yield env.timeout(1.0)
        bad.fail(RuntimeError("link down"))

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert seen == [(1.0, "link down")]


def test_any_of_with_already_processed_child_fires_immediately():
    env = Environment()
    done = Store(env).put("ready")          # processed before any_of sees it
    winner = env.any_of([env.timeout(5.0), done])
    env.run(until=0.0)
    assert winner.triggered and winner.value == "ready"
    assert env.now == 0.0


def test_run_until_horizon_clock_semantics():
    env = Environment()
    fired = []

    def ticker():
        for __ in range(10):
            yield env.timeout(3.0)
            fired.append(env.now)

    env.process(ticker())
    env.run(until=10.0)
    # Events past the horizon stay queued; the clock parks exactly on it.
    assert env.now == 10.0
    assert fired == [3.0, 6.0, 9.0]
    env.run()
    assert env.now == 30.0
    assert fired[-1] == 30.0


def test_run_until_horizon_in_the_past_rejected():
    env = Environment()
    env.run(until=5.0)
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_resource_over_release_rejected():
    env = Environment()
    resource = Resource(env, capacity=1)
    grant = resource.request()
    resource.release(grant)
    with pytest.raises(SimulationError):
        resource.release(grant)


def test_resource_release_foreign_request_rejected():
    env = Environment()
    first, second = Resource(env), Resource(env)
    grant = first.request()
    with pytest.raises(SimulationError):
        second.release(grant)


def test_store_put_returns_completed_event():
    env = Environment()
    store = Store(env)
    done = store.put("payload")
    assert done.triggered and done.processed and done.ok
    assert done.value == "payload"
    assert len(store) == 1

    def consumer():
        value = yield store.put("second")   # resumes immediately, same tick
        assert value == "second"
        item = yield store.get()
        return (env.now, item)

    assert env.run(env.process(consumer())) == (0.0, "payload")


def test_store_put_wakes_waiting_getter():
    env = Environment()
    store = Store(env)
    received = []

    def getter():
        item = yield store.get()
        received.append((env.now, item))

    def putter():
        yield env.timeout(2.0)
        store.put("late")

    env.process(getter())
    env.process(putter())
    env.run()
    assert received == [(2.0, "late")]

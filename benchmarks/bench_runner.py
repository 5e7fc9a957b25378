"""Runner-layer benchmarks: DES hot-path trajectory and fan-out overhead.

Every timing lands in ``BENCH_results.json`` at the repository root via
:func:`conftest.record_timing`, building the performance trajectory that
docs/PERFORMANCE.md quotes. The ceilings asserted here are generous —
they catch order-of-magnitude regressions, not scheduler jitter.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_runner.py -q
"""

from repro.sim.engine import Environment

#: Best-of-run of bench_des_timeout_throughput at the pre-optimization
#: seed commit (61778d4), measured in this container. The acceptance bar
#: is a >= 20% improvement over this.
SEED_TIMEOUT_S = 2.976e-3

#: Never-exceed wall-clock ceilings (seconds) — generous on purpose.
TIMEOUT_CEILING_S = 0.8 * SEED_TIMEOUT_S
RUNNER_CEILING_S = 60.0


def bench_des_timeout_trajectory(benchmark, record_timing):
    """The engine's schedule-and-fire rate, recorded against the seed.

    Same workload as :func:`bench_engine.bench_des_timeout_throughput`;
    this variant also appends the sample to BENCH_results.json.
    """

    def run():
        env = Environment()

        def ticker():
            for __ in range(2000):
                yield env.timeout(1.0)

        env.run(env.process(ticker()))
        return env.now

    assert benchmark(run) == 2000.0
    best = benchmark.stats.stats.min
    record_timing(
        "bench_des_timeout_throughput",
        best,
        seed_seconds=SEED_TIMEOUT_S,
        speedup=SEED_TIMEOUT_S / best,
    )
    assert best < TIMEOUT_CEILING_S


def bench_runner_cells_serial(benchmark, p7302, record_timing):
    """The in-process (jobs=1) path through run_cells."""
    from repro.experiments import fig4, table3
    from repro.runner import Cell, run_cells

    cells = [
        Cell(table3.run, (p7302,), {"seed": 0}),
        Cell(fig4.run, (p7302,)),
    ]

    def run():
        return run_cells(cells, jobs=1)

    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == 2
    best = benchmark.stats.stats.min
    record_timing("runner_cells_serial", best, cells=len(cells), jobs=1)
    assert best < RUNNER_CEILING_S


def bench_runner_cells_pool(benchmark, p7302, record_timing, monkeypatch):
    """The worker-pool (jobs=2) path, including pool spawn overhead.

    On a single-CPU container this is *slower* than serial — the point is
    to track the fixed fan-out cost, and to assert the pool path returns
    the same results as the in-process path. Patching
    ``POOL_THRESHOLD_S`` to 0 disables the adaptive serial ramp so the
    pool really is measured.
    """
    from repro import runner
    from repro.experiments import fig4, table3
    from repro.runner import Cell, run_cells

    cells = [
        Cell(table3.run, (p7302,), {"seed": 0}),
        Cell(fig4.run, (p7302,)),
    ]
    serial = run_cells(cells, jobs=1)

    monkeypatch.setattr(runner, "POOL_THRESHOLD_S", 0)

    def run():
        return run_cells(cells, jobs=2)

    pooled = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (
        table3.render({p7302.name: pooled[0]})
        == table3.render({p7302.name: serial[0]})
    )
    assert fig4.render([pooled[1]]) == fig4.render([serial[1]])
    best = benchmark.stats.stats.min
    record_timing("runner_cells_pool", best, cells=len(cells), jobs=2)
    assert best < RUNNER_CEILING_S


def _tiny_cell(x):
    return x * x


def bench_runner_ramp_tiny_cells(benchmark, record_timing):
    """Cheap cells with jobs>1: the adaptive serial ramp skips the pool.

    This was a ~19x regression before the ramp — two sub-millisecond
    cells paid a full process-pool spawn. Now ``jobs=2`` on a cheap batch
    must cost about what ``jobs=1`` does.
    """
    from repro.runner import Cell, run_cells

    cells = [Cell(_tiny_cell, (x,)) for x in range(2)]

    def run():
        return run_cells(cells, jobs=2)

    results = benchmark.pedantic(run, rounds=5, iterations=1)
    assert results == [0, 1]
    best = benchmark.stats.stats.min
    record_timing("runner_cells_ramp_tiny", best, cells=len(cells), jobs=2)
    # Far under any pool spawn time: the ramp kept these in-process.
    assert best < 0.05


def bench_suite_synthetic(benchmark, record_timing):
    """End-to-end characterization suite on the synthetic platform."""
    from repro.core.suite import CharacterizationSuite
    from repro.platform.presets import synthetic_ucie

    def run():
        return CharacterizationSuite(seed=0, jobs=1).run(synthetic_ucie())

    report = benchmark.pedantic(run, rounds=2, iterations=1)
    assert report.guidelines
    best = benchmark.stats.stats.min
    record_timing("suite_synthetic_serial", best, jobs=1)
    assert best < RUNNER_CEILING_S

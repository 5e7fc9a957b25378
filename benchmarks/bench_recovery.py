"""Recovery benchmarks: what the fault-reactive layer costs when off.

The contract of ``repro.net.recovery`` is that a disabled configuration
is free: ``install(..., RecoveryConfig.off())`` *is* the plain stack
install, so a recovery-disabled run must pay nothing beyond one branch.
This bench times the DES recovery cell (the netstack-style credit-gated
victim under a permanent link failure) through the recovery install with
the disabled config, against a hand-built twin of the same simulation
installed through ``repro.net.inject`` directly — and gates the overhead
at < 5 % (with a small absolute jitter floor, like ``check_bench.py``).
A second bench keeps a hang-catching ceiling on the recovery-enabled
cell.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py -q
"""

import time

from repro.core.loadgen import ClosedLoopIssuer
from repro.experiments import chaos
from repro.faults.inject import install as install_faults
from repro.net.inject import install as install_plain
from repro.net.stack import NetStackConfig
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

#: Generous hang-catching ceiling (seconds) on the recovery-on cell.
RECOVERY_CEILING_S = 30.0

#: Relative overhead gate for the disabled arm, plus a jitter floor so a
#: sub-millisecond wobble on near-identical work cannot fail the gate.
OVERHEAD_GATE = 0.05
JITTER_FLOOR_S = 0.025

_TRANSACTIONS = 600


def _disabled_cell(p7302):
    return chaos.run_recovery_point(
        p7302, "des", False, transactions_per_core=_TRANSACTIONS
    )


def _plain_twin(platform):
    """The recovery-off DES cell, installed through ``repro.net.inject``.

    Mirrors ``chaos._des_recovery(recover=False)`` line for line except
    for the install entry point — what the simulation cost before the
    recovery layer existed.
    """
    schedule = chaos.recovery_schedule(seed=0)
    cores, shared, rate_each = chaos._victim_cell(platform)
    homes = chaos._initial_homes(cores, shared)
    endpoints = [f"umc{u}" for u in shared]
    env = Environment()
    resolver = PathResolver(env, platform, seed=0)
    install_faults(resolver, schedule)
    installation = install_plain(
        resolver, NetStackConfig.with_credits(),
        flows=["victim"], endpoints=endpoints,
    )
    executor = TransactionExecutor(env, flow="victim")
    window = platform.spec.bandwidth.mlp_read
    finished = []
    for index, core_id in enumerate(cores):
        gate = installation.gate(executor, "victim")
        umc_id = int(homes[index][len("umc"):])
        path = resolver.dram_path(core_id, umc_id)
        issuer = ClosedLoopIssuer(
            env, gate, (path,), OpKind.READ,
            window=window, count_per_worker=_TRANSACTIONS,
            rate_gbps=rate_each,
        )
        finished.append(issuer.start())
    env.run(env.all_of(finished))
    env.run()
    installation.assert_credits_home()


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def bench_recovery_disabled_overhead(benchmark, p7302, record_timing):
    """Recovery-disabled DES cell vs the same cell on the plain stack."""
    point = benchmark.pedantic(
        _disabled_cell, args=(p7302,), rounds=3, iterations=1,
    )
    if benchmark.stats is not None:
        disabled = benchmark.stats.stats.min
    else:  # --benchmark-disable smoke pass: time it directly
        disabled = min(_timed(_disabled_cell, p7302) for __ in range(3))
    baseline = min(_timed(_plain_twin, p7302) for __ in range(3))
    overhead = disabled - baseline
    record_timing(
        "bench_recovery_disabled_overhead",
        disabled,
        baseline=baseline,
        overhead=overhead,
        recovered=point.recovered,
    )
    assert point.recovered < 0.8  # the off arm really collapses
    assert overhead < max(OVERHEAD_GATE * baseline, JITTER_FLOOR_S), (
        f"recovery-disabled overhead {overhead * 1e3:.1f} ms over a "
        f"{baseline * 1e3:.1f} ms baseline exceeds the 5% gate"
    )


def bench_recovery_enabled_cell(benchmark, p7302, record_timing):
    """The full detect -> reclaim -> reroute DES cell, hang-guarded."""
    point = benchmark.pedantic(
        chaos.run_recovery_point, args=(p7302, "des", True),
        kwargs=dict(transactions_per_core=_TRANSACTIONS),
        rounds=1, iterations=1,
    )
    if benchmark.stats is not None:
        best = benchmark.stats.stats.min
    else:  # --benchmark-disable smoke pass: time it directly
        best = _timed(
            chaos.run_recovery_point, p7302, "des", True
        )
    record_timing(
        "bench_recovery_enabled_cell",
        best,
        recovered=point.recovered,
        reclaimed=point.reclaimed,
        retries=point.retries,
    )
    assert point.recovered >= 0.8  # the on arm really recovers
    assert best < RECOVERY_CEILING_S

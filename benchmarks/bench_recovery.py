"""Recovery benchmarks: what the fault-reactive layer costs when off.

The contract of ``repro.net.recovery`` is that a disabled configuration
is free: ``install(..., RecoveryConfig.off())`` *is* the plain stack
install, so a recovery-disabled run must pay nothing beyond one branch.
This bench times the artifact's own DES recovery cell (the netstack-style
credit-gated victim under a permanent link failure,
``chaos.run_recovery_point(..., "des", False)``) through the recovery
install with the disabled config, against the same cell with that
install swapped for ``repro.net.inject``'s — and gates the overhead at
< 5 % (with a small absolute jitter floor, like ``check_bench.py``). The
two arms are timed alternately, so neither pays for running first in a
colder process. A second bench keeps a hang-catching ceiling on the
recovery-enabled cell.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_recovery.py -q
"""

import time
from unittest import mock

from repro.experiments import chaos
from repro.net.inject import install as install_plain

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


def _plain_install(resolver, config, recovery, flows=(), endpoints=(),
                   seed=0):
    """``repro.net.recovery.install``'s call, answered by the plain stack
    install: what the cell cost before the recovery layer existed."""
    assert not recovery.enabled
    return install_plain(resolver, config, flows=flows, endpoints=endpoints)


def _plain_twin(platform):
    """The recovery-off DES cell, installed through ``repro.net.inject``."""
    with mock.patch.object(
        chaos, "install_recovery", side_effect=_plain_install
    ) as install:
        _disabled_cell(platform)
    install.assert_called_once()


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def bench_recovery_disabled_overhead(benchmark, p7302, record_timing):
    """Recovery-disabled DES cell vs the same cell on the plain stack."""
    point = benchmark.pedantic(
        _disabled_cell, args=(p7302,), rounds=1, iterations=1,
    )
    timings = [
        (_timed(_disabled_cell, p7302), _timed(_plain_twin, p7302))
        for __ in range(3)
    ]
    disabled = min(pair[0] for pair in timings)
    baseline = min(pair[1] for pair in timings)
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

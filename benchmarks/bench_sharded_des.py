"""Sharded-engine benchmark: the tentpole throughput multiple.

One question: how many closed-loop transactions per wall-second does each
engine push through the multi-CCD contention cell on the 9634 (12 CCDs,
the largest cell in the tree)? The sharded engine replaces the serial
engine's per-event generator machinery with exact batched recurrences per
shard plus lookahead-synchronized boundary windows, so the multiple is
algorithmic — it holds on a single core.

Each timing sample carries ``transactions_per_wall_second`` for both
engines plus the speedup, so ``BENCH_results.json`` records the multiple's
trajectory under the >25% regression gate.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded_des.py -q
"""

import time

from repro.core.shardexec import run_cell

#: Generous hang-catching ceilings (seconds), not jitter-sensitive bars.
SERIAL_CEILING_S = 60.0
SHARDED_CEILING_S = 10.0

#: The design floor is >=10x; assert a lower bar so scheduler jitter on a
#: loaded runner cannot flake the gate (measured 10.8-12.8x on a 2-core VM
#: with Python 3.11, the serial cell taking 0.46-0.49 s on the engine that
#: keeps its current instant in a FIFO; the recorded metadata keeps the
#: true multiple visible).
MIN_SPEEDUP = 8.0

_TRANSACTIONS = 150


def bench_sharded_des_speedup(benchmark, p9634, record_timing):
    """Serial vs sharded (one shard per CCD) on the 12-CCD contention cell."""
    shards = len(p9634.ccds)

    began = time.perf_counter()
    serial = run_cell(
        p9634, engine="serial", transactions_per_core=_TRANSACTIONS
    )
    serial_s = time.perf_counter() - began

    outcome = benchmark.pedantic(
        run_cell,
        args=(p9634,),
        kwargs=dict(
            engine="sharded",
            shards=shards,
            transactions_per_core=_TRANSACTIONS,
        ),
        rounds=3,
        iterations=1,
    )
    sharded_s = benchmark.stats.stats.min

    speedup = serial_s / sharded_s
    record_timing(
        "bench_sharded_des_speedup",
        sharded_s,
        serial_s=serial_s,
        shards=shards,
        transactions=outcome.transactions,
        transactions_per_wall_second=outcome.transactions / sharded_s,
        serial_transactions_per_wall_second=serial.transactions / serial_s,
        speedup=speedup,
        victim_share_serial=serial.victim_share,
        victim_share_sharded=outcome.victim_share,
    )
    assert outcome.transactions == serial.transactions
    assert speedup >= MIN_SPEEDUP
    assert serial_s < SERIAL_CEILING_S
    assert sharded_s < SHARDED_CEILING_S

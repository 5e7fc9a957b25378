"""Explore-sweep benchmarks: the design-space walk stays interactively fast.

Two timings against the generated-topology catalog:

* one full ``squeeze-3x2`` contention cell (routed fluid solve + open-loop
  DES mesh), the sweep's most contended point — each sample carries the
  adaptive-vs-XY victim-share delta as metadata, so the trajectory in
  ``BENCH_results.json`` records what the sweep *finds* per second spent;
* the whole 16-cell catalog sweep through the hardened runner, jobs=1 and
  uncached — the worst-case interactive ``repro explore`` latency.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_explore.py -q
"""

from repro.experiments import explore
from repro.platform.generator import catalog_names, from_catalog
from repro.runner import run_cells_detailed

#: Generous hang-catching ceilings (seconds), not jitter-sensitive bars.
POINT_CEILING_S = 10.0
SWEEP_CEILING_S = 60.0

#: Reduced DES packet count: a sub-second bench body per cell.
_PACKETS = 40


def bench_explore_point_squeeze(benchmark, record_timing):
    """The most contended catalog cell, adaptive routing, both backends."""
    gen = from_catalog("squeeze-3x2")
    point = benchmark.pedantic(
        explore.run_point,
        args=("squeeze-3x2", gen, "adaptive", "contention"),
        kwargs=dict(packets_per_sender=_PACKETS),
        rounds=3, iterations=1,
    )
    xy = explore.run_point(
        "squeeze-3x2", gen, "xy", "contention", packets_per_sender=_PACKETS
    )
    best = benchmark.stats.stats.min
    record_timing(
        "bench_explore_point_squeeze",
        best,
        victim_share_xy=xy.victim_share,
        victim_share_adaptive=point.victim_share,
        packets_per_sender=_PACKETS,
    )
    assert point.victim_share > xy.victim_share
    assert best < POINT_CEILING_S


def bench_explore_catalog_sweep(benchmark, record_timing):
    """The full catalog sweep, serial and uncached (worst-case CLI run)."""
    results = benchmark.pedantic(
        lambda: run_cells_detailed(
            explore.cells(packets_per_sender=_PACKETS), jobs=1, cache=None
        ),
        rounds=1, iterations=1,
    )
    best = benchmark.stats.stats.min
    record_timing(
        "bench_explore_catalog_sweep",
        best,
        cells=len(results),
        topologies=len(catalog_names()),
        packets_per_sender=_PACKETS,
    )
    assert all(result.ok for result in results)
    assert best < SWEEP_CEILING_S

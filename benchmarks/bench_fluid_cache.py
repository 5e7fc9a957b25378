"""Fluid time-series and result-cache benchmarks.

Two acceptance bars, both recorded in ``BENCH_results.json``:

* ``FluidSimulator.run`` (precomputed schedules plus memoized solves) runs
  a real Figure 5 sweep at least 3x faster than the reference step loop
  that re-solves every step, with bit-identical traces;
* a content-addressed cache hit makes an immediate re-run of a real sweep
  (netstack, both backends' cells) at least 10x faster, with identical
  rendered output.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_fluid_cache.py -q
"""

import time

from repro.cache import ResultCache
from repro.experiments import fig5, netstack
from repro.fluid.timeseries import FluidSimulator
from repro.runner import run_cells_detailed

#: Acceptance floors (the measured ratios are far above both).
MIN_BACKEND_SPEEDUP = 3.0
MIN_CACHE_SPEEDUP = 10.0

#: DES transaction count for the cached-sweep bench: big enough that the
#: cold run dwarfs cache bookkeeping, small enough for a short bench.
_TRANSACTIONS = 200


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def bench_fig5_vectorized_speedup(p9634, record_timing, monkeypatch):
    """Figure 5 (9634 IF): reference step loop vs memoized run."""
    fast_run = FluidSimulator.run
    # The reference: the step loop that re-solves each step.
    monkeypatch.setattr(FluidSimulator, "run", FluidSimulator._run_reference)
    reference_s, reference = _timed(fig5.run, p9634, "if")
    # The fast path: solves only on steps whose inputs changed.
    monkeypatch.setattr(FluidSimulator, "run", fast_run)
    fast_s, fast = _timed(fig5.run, p9634, "if")

    # Same sweep, bit-identical traces — the two runs may only differ in
    # wall clock, never in output.
    assert set(fast.traces) == set(reference.traces)
    for name, trace in reference.traces.items():
        assert fast.traces[name].times_s == trace.times_s
        assert fast.traces[name].achieved_gbps == trace.achieved_gbps
    assert fast.harvest_delay_s == reference.harvest_delay_s

    speedup = reference_s / fast_s
    # "vectorized" in the sample name is historical; keeping the name
    # keeps check_bench.py comparing against the sample's history.
    record_timing("fig5_fluid_reference", reference_s, backend="step-loop")
    record_timing(
        "fig5_fluid_vectorized", fast_s, backend="memoized", speedup=speedup
    )
    assert speedup >= MIN_BACKEND_SPEEDUP, speedup


def bench_netstack_cached_rerun(p7302, record_timing, tmp_path):
    """The full netstack sweep: cold solve vs immediate cached re-run."""
    cache = ResultCache(tmp_path / "store")

    def sweep():
        return run_cells_detailed(
            netstack.cells(p7302, transactions_per_core=_TRANSACTIONS),
            jobs=1, cache=cache,
        )

    cold_s, cold = _timed(sweep)
    warm_s, warm = _timed(sweep)

    assert all(result.ok for result in cold)
    assert not any(result.cached for result in cold)
    assert all(result.cached for result in warm)
    assert netstack.render(p7302.name, warm) == netstack.render(
        p7302.name, cold
    )

    speedup = cold_s / warm_s
    record_timing(
        "netstack_sweep_cold", cold_s, transactions_per_core=_TRANSACTIONS
    )
    record_timing(
        "netstack_sweep_cached", warm_s, cache_speedup=speedup
    )
    assert speedup >= MIN_CACHE_SPEEDUP, speedup

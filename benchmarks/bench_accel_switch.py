"""Ablation: intra-host switching for accelerators (§4 direction #4).

Dispatches accelerator kernels while the host chiplet streams CXL writes
through the shared hub port, with and without the intra-host switch
provisioning bandwidth. The latency-sensitive signal plane (doorbell,
descriptor fetch, completion) must be protected; the data plane must not be
hurt (work conservation).
"""

import pytest

from repro.experiments import accel_dispatch
from repro.runner import run_cells

from benchmarks.conftest import emit


def bench_accel_dispatch_protection(benchmark, p9634):
    def both_modes():
        cells = accel_dispatch.cells(p9634, dispatch_jobs=10)
        return {report.mode: report for report in run_cells(cells, jobs=1)}

    reports = benchmark.pedantic(both_modes, rounds=1, iterations=1)
    emit(accel_dispatch.render(reports))
    unmanaged = reports["unmanaged"]
    managed = reports["managed"]
    # Managed signal latency returns to near-unloaded (≈506 ns); unmanaged
    # queues behind the background writes at the hub port.
    assert managed.mean_signal_ns < 0.6 * unmanaged.mean_signal_ns
    assert unmanaged.mean_signal_ns > 900.0
    assert managed.mean_signal_ns == pytest.approx(510.0, rel=0.1)
    # Work conservation on the data plane.
    assert managed.mean_data_us == pytest.approx(
        unmanaged.mean_data_us, rel=0.1
    )
    # The background kept its max-min grant, not zero.
    assert managed.background_rate_gbps is not None
    assert managed.background_rate_gbps > 0.3 * (
        p9634.spec.bandwidth.hub_port_write_gbps
    )

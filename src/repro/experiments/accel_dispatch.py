"""Accelerator dispatch under background traffic — the §4 #4 ablation.

A host core on CCD0 dispatches kernels to a PCIe accelerator while the rest
of CCD0 streams CXL **non-temporal writes** through the same hub port — the
same host→device direction the doorbells travel. Two modes:

* **unmanaged** — the background runs unthrottled; its in-flight pressure
  saturates the hub port's host→device direction and the latency-sensitive
  doorbells queue behind the write data;
* **managed** — the :class:`~repro.accel.switch.IntraHostSwitch` reserves
  the accelerator's share of that direction and paces the background to its
  max-min grant, restoring dispatch latency.

The comparison quantifies the paper's claim that an intra-host switching
module should "provision just enough bandwidth" for host-accelerator
interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.accel.device import AcceleratorJob, AcceleratorModel, JobTrace
from repro.accel.dispatch import DispatchSimulator
from repro.accel.switch import IntraHostSwitch
from repro.analysis.report import render_table
from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.core.loadgen import lower_stream
from repro.errors import ConfigurationError
from repro.runner import Cell
from repro.sim.engine import Environment
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

__all__ = ["DispatchReport", "run", "cells", "render"]

#: Background streams issue 256 B bursts (4 cachelines) — keeps the DES
#: event count manageable without changing the bandwidth picture.
_BACKGROUND_TXN_BYTES = 256


@dataclass(frozen=True)
class DispatchReport:
    """Dispatch-latency statistics for one mode."""

    mode: str
    platform: str
    traces: List[JobTrace]
    background_rate_gbps: Optional[float]

    @property
    def mean_total_us(self) -> float:
        return float(np.mean([t.total_ns for t in self.traces])) / 1e3

    @property
    def mean_signal_ns(self) -> float:
        return float(np.mean([t.signal_ns for t in self.traces]))

    @property
    def worst_signal_ns(self) -> float:
        return float(np.max([t.signal_ns for t in self.traces]))

    @property
    def mean_data_us(self) -> float:
        return float(np.mean([t.data_ns for t in self.traces])) / 1e3


def run(
    platform,
    managed: bool,
    jobs: int = 12,
    job_bytes_in: int = 128 * 1024,
    job_bytes_out: int = 64 * 1024,
    accelerator: Optional[AcceleratorModel] = None,
    seed: int = 0,
) -> DispatchReport:
    """Dispatch ``jobs`` kernels with CCD0 background CXL traffic."""
    if not platform.cxl_devices:
        raise ConfigurationError(
            "the dispatch experiment uses CXL background traffic "
            "(run it on the EPYC 9634)"
        )
    accelerator = accelerator or AcceleratorModel()
    env = Environment()
    resolver = PathResolver(env, platform, seed=seed)
    simulator = DispatchSimulator(env, platform, accelerator, resolver=resolver)

    host_core = platform.cores_of_ccd(0)[0].core_id
    background_cores = [
        core.core_id for core in platform.cores_of_ccd(0)[1:]
    ]
    fabric = FabricModel(platform)
    background_spec = StreamSpec(
        "background", OpKind.NT_WRITE, tuple(background_cores), target="cxl"
    )
    background_spec = replace(
        background_spec, endpoints=fabric.endpoints_of(background_spec)
    )

    rate: Optional[float] = None
    if managed:
        switch = IntraHostSwitch(fabric)
        switch.register_background(background_spec)
        # Reserve half the hub port's host→device direction for doorbells
        # and future data-plane growth.
        plan = switch.provision(
            accelerator_demand_gbps=platform.spec.bandwidth.hub_port_write_gbps
            / 2.0,
            host_ccd=0,
        )
        rate = plan.rate_for("background")

    # Each worker keeps several 256 B bursts in flight; deep per-core write
    # coalescing (cf. the Figure 3e calibration) makes the hub-port queue
    # long when unthrottled.
    background = lower_stream(
        env,
        TransactionExecutor(env),
        resolver,
        replace(background_spec, demand_gbps=rate),
        window=max(4, platform.spec.bandwidth.cxl_wcb_write),
        # Enough transactions to outlast the job sequence.
        count_per_worker=200_000,
        size_bytes=_BACKGROUND_TXN_BYTES,
    )
    background.start()

    job = AcceleratorJob(job_bytes_in, job_bytes_out, host_core=host_core)
    return DispatchReport(
        mode="managed" if managed else "unmanaged",
        platform=platform.name,
        traces=simulator.run_jobs([job] * jobs),
        background_rate_gbps=rate,
    )


def cells(platform, dispatch_jobs: int = 12, seed: int = 0) -> List[Cell]:
    """Both modes, unmanaged first, one runner cell each.

    None on a platform without CXL: the background traffic needs it.
    """
    if not platform.cxl_devices:
        return []
    return [
        Cell(
            run, (platform,),
            {"managed": managed, "jobs": dispatch_jobs, "seed": seed},
        )
        for managed in (False, True)
    ]


def render(reports: Dict[str, DispatchReport]) -> str:
    """Render the result as an aligned paper-style text table."""
    rows = []
    for report in reports.values():
        rows.append([
            report.mode,
            "unthrottled"
            if report.background_rate_gbps is None
            else f"{report.background_rate_gbps:.1f} GB/s",
            f"{report.mean_total_us:.1f}",
            f"{report.mean_signal_ns:.0f}",
            f"{report.worst_signal_ns:.0f}",
            f"{report.mean_data_us:.1f}",
        ])
    return render_table(
        [
            "mode", "background", "job total (us)",
            "signal mean (ns)", "signal worst (ns)", "data plane (us)",
        ],
        rows,
        title="Accelerator dispatch under background CXL traffic (EPYC 9634)",
    )

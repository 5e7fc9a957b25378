"""Hybrid batched/fluid kvstore serving at millions of requests.

The per-event DES (:class:`repro.apps.kvstore.KvServerModel`) spends ~15
heap events, generator frames, and callback sweeps per GET; at 10^6
requests that is the whole budget. This module compiles the same GET
path — ingress NIC crossing, ``index_depth`` dependent DRAM reads, one
value fetch from DRAM or CXL, egress NIC crossing, all behind a bounded
worker pool — into the exact vectorized FIFO recurrences of
:func:`repro.sim.batch.open_loop_departures` over numpy arrival arrays
from :mod:`repro.core.loadgen`:

* With the pool's ``W`` workers and the DES's ``arrival_index % W`` core
  binding, the pool is ``W`` interleaved single-server FIFO chains.
  When every worker core compiles to the same per-request service time
  (the symmetric presets), the recurrence reproduces the DES schedule
  *exactly*; per-core asymmetry keeps each chain exact but fixes the
  request→worker binding, which the conformance tolerance covers.
* Background/bulk traffic is not event-simulated at all: the fluid
  solver allocates the same background stream the DES lowers
  (:meth:`repro.core.fabric.FabricModel.utilizations`, fault/QoS derates
  included) and each queued stage's service is
  inflated by the residual-capacity factor
  (:func:`repro.fluid.coupling.effective_service_ns`).
* Arrivals are open-loop Poisson / bursty on-off / diurnal-trace
  streams, deterministic via ``SplitRng``; the Poisson stream draws the
  bit-identical gap sequence the DES model draws scalar-by-scalar.

The DES model stays the reference: ``tests/test_apps_kvserve.py`` pins
hybrid-vs-DES p50/p99 agreement on small cells within the tolerance
documented there and in docs/PERFORMANCE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import LatencyStats
from repro.apps.kvstore import (
    KvWorkload,
    ServiceReport,
    background_stream,
    near_umcs,
    worker_cores,
    worker_paths,
)
from repro.core.fabric import FabricModel
from repro.core.loadgen import (
    diurnal_arrivals,
    onoff_arrivals,
    poisson_arrivals,
)
from repro.errors import ConfigurationError, MeasurementError
from repro.fluid.coupling import effective_service_ns
from repro.platform.topology import Platform
from repro.sim.batch import open_loop_departures
from repro.sim.engine import Environment
from repro.sim.rng import SplitRng
from repro.transport.path import PathResolver
from repro.units import CACHELINE

__all__ = [
    "ArrivalSpec",
    "TenantSpec",
    "HybridKvServer",
    "TenantReport",
]


@dataclass(frozen=True)
class ArrivalSpec:
    """Shape of a tenant's open-loop arrival process.

    All shapes keep the workload's nominal QPS as the *mean* rate:
    on/off solves the off-rate from ``burst_factor``/``on_fraction``,
    the diurnal trace scales its peak so the level average hits QPS.
    """

    kind: str = "poisson"             # "poisson" | "onoff" | "diurnal"
    burst_factor: float = 3.0         # onoff: on-rate multiple of mean
    on_fraction: float = 0.25         # onoff: fraction of period bursting
    period_ns: float = 1e6            # onoff + diurnal: cycle length
    levels: Tuple[float, ...] = (1.0,)  # diurnal: relative rate trace

    def __post_init__(self) -> None:
        if self.kind not in ("poisson", "onoff", "diurnal"):
            raise ConfigurationError(
                f"arrival kind must be poisson|onoff|diurnal, got {self.kind}"
            )
        if self.kind == "onoff":
            if not 0.0 < self.on_fraction < 1.0:
                raise ConfigurationError("on_fraction must be in (0, 1)")
            if self.burst_factor < 1.0:
                raise ConfigurationError("burst_factor must be >= 1")
            if self.burst_factor > 1.0 / self.on_fraction:
                raise ConfigurationError(
                    "burst_factor above 1/on_fraction needs a negative "
                    "off-rate to keep the mean"
                )
        if self.period_ns <= 0:
            raise ConfigurationError("period must be positive")
        if self.kind == "diurnal" and not self.levels:
            raise ConfigurationError("diurnal trace needs at least one level")

    def generate(
        self, rng: np.random.Generator, qps: float, count: int
    ) -> np.ndarray:
        """Sorted arrival times (ns) at mean rate ``qps``, ``count`` deep."""
        if self.kind == "poisson":
            return poisson_arrivals(rng, qps, count)
        if self.kind == "onoff":
            on_qps = qps * self.burst_factor
            # At burst_factor == 1 / on_fraction the off-rate is zero up to
            # rounding, which can land a hair below it.
            off_qps = max(
                (qps - self.on_fraction * on_qps) / (1.0 - self.on_fraction),
                0.0,
            )
            on_ns = self.on_fraction * self.period_ns
            return onoff_arrivals(
                rng, on_qps, off_qps, on_ns, self.period_ns - on_ns, count
            )
        shape = np.asarray(self.levels, dtype=float)
        peak = qps * shape.size / float(shape.sum())
        return diurnal_arrivals(rng, peak, shape, self.period_ns, count)


@dataclass(frozen=True)
class TenantSpec:
    """One serving tenant: a workload pinned to a CCD's worker pool."""

    name: str
    workload: KvWorkload
    server_ccd: int = 0
    workers: int = 4
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant needs a name")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")


@dataclass(frozen=True)
class TenantReport:
    """One tenant's outcome inside a multi-tenant run."""

    name: str
    report: ServiceReport


class HybridKvServer:
    """Compiled (recurrence + fluid) twin of :class:`KvServerModel`."""

    def __init__(
        self,
        platform: Platform,
        seed: int = 0,
        derates: Optional[Dict[str, float]] = None,
    ) -> None:
        self.platform = platform
        self.seed = seed
        self.fabric = FabricModel(platform, derates=derates)
        # The resolver only compiles paths here; its Environment never runs.
        self._resolver = PathResolver(
            Environment(), platform, seed=seed, with_dram_jitter=False
        )

    # ------------------------------------------------------------- plumbing

    def _nic_oneway_ns(self) -> float:
        lat = self.platform.spec.latency
        return lat.io_hub_ns + lat.root_complex_ns + lat.p_link_ns

    def service_times_ns(
        self,
        workload: KvWorkload,
        server_ccd: int,
        workers: int,
        utilizations: Dict[str, float],
    ) -> np.ndarray:
        """Per-worker-core end-to-end service time of one GET (ns).

        The paths come from :func:`repro.apps.kvstore.worker_paths`, as
        in the DES, plus one NIC crossing each way.
        """
        paths = worker_paths(
            self._resolver,
            worker_cores(self.platform, server_ccd, workers),
            near_umcs(self.platform, server_ccd),
            workload,
        )
        nic = 2.0 * self._nic_oneway_ns()
        services = np.empty(len(paths), dtype=float)
        for i, (index_path, value_path) in enumerate(paths):
            index_ns = effective_service_ns(
                index_path, CACHELINE, utilizations
            )
            value_ns = effective_service_ns(
                value_path, workload.value_bytes, utilizations
            )
            services[i] = nic + workload.index_depth * index_ns + value_ns
        return services

    # ------------------------------------------------------------------ run

    def serve(
        self,
        workload: KvWorkload,
        server_ccd: int = 0,
        workers: int = 4,
        background_cores: Optional[Sequence[int]] = None,
        background_rate_gbps: Optional[float] = None,
        arrival: Optional[ArrivalSpec] = None,
        rng_stream: str = "kv-arrivals",
    ) -> ServiceReport:
        """Serve one workload; the single-tenant twin of the DES model."""
        tenant = TenantSpec(
            name="kv",
            workload=workload,
            server_ccd=server_ccd,
            workers=workers,
            arrival=arrival or ArrivalSpec(),
        )
        reports, __ = self.serve_tenants(
            [tenant],
            background_cores=background_cores,
            background_rate_gbps=background_rate_gbps,
            rng_streams={"kv": rng_stream},
        )
        return reports[0].report

    def serve_tenants(
        self,
        tenants: Sequence[TenantSpec],
        background_cores: Optional[Sequence[int]] = None,
        background_rate_gbps: Optional[float] = None,
        rng_streams: Optional[Dict[str, str]] = None,
    ) -> Tuple[List[TenantReport], LatencyStats]:
        """Serve many tenants over one coupled fabric.

        Each tenant runs its own exact worker-pool recurrence; the shared
        fabric state (background + derates) enters every tenant's
        per-stage effective service. Returns per-tenant reports plus the
        exact cross-tenant latency summary
        (:meth:`LatencyStats.merge` over per-tenant sorted arrays — no
        concatenation of the multi-million-sample set).
        """
        if not tenants:
            raise ConfigurationError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in {names}")
        utilizations: Dict[str, float] = {}
        if background_cores:
            near = near_umcs(self.platform, tenants[0].server_ccd)
            utilizations = self.fabric.utilizations([background_stream(
                background_cores, background_rate_gbps, near
            )])
        split = SplitRng(self.seed)
        reports: List[TenantReport] = []
        sorted_parts: List[np.ndarray] = []
        for tenant in tenants:
            stream = (rng_streams or {}).get(
                tenant.name, f"kv-arrivals/{tenant.name}"
            )
            rng = split.stream(stream)
            workload = tenant.workload
            arrivals = tenant.arrival.generate(
                rng, workload.qps, workload.requests
            )
            services = self.service_times_ns(
                workload, tenant.server_ccd, tenant.workers, utilizations
            )
            departures = open_loop_departures(
                arrivals, services, servers=services.size
            )
            span = float(departures.max() - arrivals[0])
            if span <= 0.0:
                raise MeasurementError(
                    "degenerate serving span: all requests arrived and "
                    "completed at one instant — achieved QPS is undefined"
                )
            # Latencies overwrite the departures and sort in place; the
            # arrivals go before the next tenant's are drawn.
            latencies = np.subtract(departures, arrivals, out=departures)
            del arrivals
            latencies.sort()
            sorted_parts.append(latencies)
            reports.append(
                TenantReport(
                    tenant.name,
                    ServiceReport(
                        workload,
                        LatencyStats.from_sorted(latencies),
                        achieved_qps=float(latencies.size / span * 1e9),
                    ),
                )
            )
        return reports, LatencyStats.merge(sorted_parts)


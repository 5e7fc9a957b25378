"""A key-value server's GET path on the chiplet network.

One GET request:

1. **ingress** — the request lands from the NIC (fixed device-path cost);
2. **index walk** — ``index_depth`` *dependent* DRAM reads (hash bucket →
   entry chain), each a real transaction through the fabric — this is the
   pointer-chase-shaped part that eats the chiplet network's latency;
3. **value fetch** — one read of ``value_bytes`` from the value's memory
   tier (local DRAM or CXL);
4. **egress** — response back out through the NIC path.

Requests arrive Poisson at the offered QPS and are served by a bounded
worker pool on one chiplet. Everything queues on the same simulated fabric
background streams use, so colocated bandwidth hogs inflate exactly the
tail the paper's sub-microsecond motivation cares about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import LatencyStats
from repro.core.flows import StreamSpec
from repro.core.loadgen import lower_stream
from repro.errors import ConfigurationError, MeasurementError
from repro.platform.numa import Position
from repro.platform.topology import Platform
from repro.sim.engine import Environment, Event, Resource
from repro.sim.rng import SplitRng
from repro.transport.message import OpKind, Transaction
from repro.transport.path import CompiledPath, PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = [
    "KvWorkload", "KvServerModel", "ServiceReport",
    "background_stream", "near_umcs", "worker_cores", "worker_paths",
]


@dataclass(frozen=True)
class KvWorkload:
    """A GET-heavy workload description."""

    qps: float
    requests: int = 600
    index_depth: int = 2
    value_bytes: int = 256
    value_tier: str = "dram"        # "dram" or "cxl"

    def __post_init__(self) -> None:
        if not 0.0 < self.qps < math.inf:
            raise ConfigurationError(
                f"QPS must be finite and positive, got {self.qps!r}"
            )
        if self.requests < 10:
            raise ConfigurationError("need at least 10 requests")
        if self.index_depth < 1:
            raise ConfigurationError("index depth must be >= 1")
        if self.value_bytes < 1:
            raise ConfigurationError("value size must be positive")
        if self.value_tier not in ("dram", "cxl"):
            raise ConfigurationError("value tier must be 'dram' or 'cxl'")


@dataclass(frozen=True)
class ServiceReport:
    """Request-latency outcome of one run."""

    workload: KvWorkload
    latency: LatencyStats
    achieved_qps: float

    def meets_slo(self, p99_us: float) -> bool:
        """True when the P99 latency is within the SLO (microseconds)."""
        return self.latency.p99 <= p99_us * 1e3


def worker_cores(
    platform: Platform, server_ccd: int, workers: int
) -> List[int]:
    """The first ``workers`` cores of the server chiplet."""
    if server_ccd not in platform.ccds:
        raise ConfigurationError(f"unknown CCD {server_ccd}")
    cores = platform.cores_of_ccd(server_ccd)
    if workers < 1 or workers > len(cores):
        raise ConfigurationError(f"workers must be in [1, {len(cores)}]")
    return [core.core_id for core in cores[:workers]]


def near_umcs(platform: Platform, server_ccd: int) -> List[int]:
    """The server chiplet's near UMCs (every UMC when none is near)."""
    return sorted(
        u.umc_id for u in platform.umcs_at(server_ccd, Position.NEAR)
    ) or sorted(platform.umcs)


def worker_paths(
    resolver: PathResolver,
    cores: Sequence[int],
    near: Sequence[int],
    workload: KvWorkload,
) -> List[Tuple[CompiledPath, CompiledPath]]:
    """Each worker core's ``(index path, value path)``, for both engines.

    Worker ``i`` reads its index from ``near[i % len(near)]``, and its
    value from the next near UMC or from CXL device ``i % devices``.
    """
    platform = resolver.platform
    if workload.value_tier == "cxl" and not platform.cxl_devices:
        raise ConfigurationError(
            f"{platform.name} has no CXL tier for values"
        )
    paths = []
    for i, core in enumerate(cores):
        index_path = resolver.dram_path(core, near[i % len(near)])
        if workload.value_tier == "cxl":
            value_path = resolver.cxl_path(
                core, i % len(platform.cxl_devices),
                size_bytes=workload.value_bytes,
            )
        else:
            value_path = resolver.dram_path(
                core, near[(i + 1) % len(near)],
                size_bytes=workload.value_bytes,
            )
        paths.append((index_path, value_path))
    return paths


def background_stream(
    cores: Sequence[int], rate_gbps: Optional[float], near: Sequence[int]
) -> StreamSpec:
    """The colocated background: DRAM reads from the server's ``near``
    UMCs, unthrottled at ``None``."""
    return StreamSpec(
        "kv-background", OpKind.READ, tuple(cores), demand_gbps=rate_gbps,
        endpoints=tuple(near),
    )


class KvServerModel:
    """A KV server pinned to one chiplet of the platform."""

    def __init__(
        self,
        platform: Platform,
        server_ccd: int = 0,
        workers: int = 4,
        seed: int = 0,
        with_dram_jitter: bool = True,
    ) -> None:
        self.worker_cores = worker_cores(platform, server_ccd, workers)
        self.platform = platform
        self.server_ccd = server_ccd
        self.seed = seed
        self.with_dram_jitter = with_dram_jitter

    # The NIC path cost of one ingress or egress crossing: hub + RC + P
    # Link one way (requests are small; serialization is negligible).
    def _nic_oneway_ns(self) -> float:
        lat = self.platform.spec.latency
        return lat.io_hub_ns + lat.root_complex_ns + lat.p_link_ns

    def serve(
        self,
        workload: KvWorkload,
        background_cores: Optional[List[int]] = None,
        background_rate_gbps: Optional[float] = None,
    ) -> ServiceReport:
        """Run the workload; optionally colocate a streaming background.

        ``background_rate_gbps=None`` with ``background_cores`` set runs the
        background unthrottled (the noisy neighbour); a number paces it
        (what a traffic manager grant would enforce).
        """
        env = Environment()
        resolver = PathResolver(
            env, self.platform, seed=self.seed,
            with_dram_jitter=self.with_dram_jitter,
        )
        executor = TransactionExecutor(env)
        rng = SplitRng(self.seed).stream("kv-arrivals")

        near = near_umcs(self.platform, self.server_ccd)
        paths = worker_paths(resolver, self.worker_cores, near, workload)

        if background_cores:
            background = lower_stream(
                env, TransactionExecutor(env), resolver,
                background_stream(
                    background_cores, background_rate_gbps, near
                ),
                window=self.platform.spec.bandwidth.mlp_read,
                count_per_worker=1_000_000,
            )
            background.start()

        pool = Resource(env, capacity=len(self.worker_cores))
        latencies: List[float] = []
        done_at: List[float] = [0.0]
        first_at: List[float] = [float("inf")]
        all_served = env.event()

        def handle(arrival_index: int) -> Generator[Event, None, None]:
            start = env.now
            first_at[0] = min(first_at[0], start)
            with pool.request() as grant:
                yield grant
                index_path, value_path = paths[arrival_index % len(paths)]
                yield self._nic_oneway_ns()                     # ingress
                for __ in range(workload.index_depth):          # index walk
                    txn = Transaction(OpKind.READ, CACHELINE)
                    yield env.process(executor.execute(txn, index_path))
                txn = Transaction(OpKind.READ, workload.value_bytes)
                yield env.process(executor.execute(txn, value_path))
                yield self._nic_oneway_ns()                     # egress
            latencies.append(env.now - start)
            done_at[0] = max(done_at[0], env.now)
            if len(latencies) == workload.requests:
                all_served.succeed()

        def arrivals() -> Generator[Event, None, None]:
            interval = 1e9 / workload.qps
            for index in range(workload.requests):
                yield float(rng.exponential(interval))
                env.process(handle(index))

        env.process(arrivals())
        # Run until the last request completes; the (possibly endless)
        # background issuer keeps generating events past this point, so
        # never drain the whole queue.
        env.run(all_served)
        if not latencies:
            raise ConfigurationError("no requests completed")
        # Throughput over the span the server was actually serving: first
        # arrival to last completion. Dividing by the absolute clock would
        # count pre-arrival idle (slow-ramp traces) against the server.
        span = done_at[0] - first_at[0]
        if span <= 0.0:
            raise MeasurementError(
                "degenerate serving span: all requests arrived and "
                "completed at one instant — achieved QPS is undefined"
            )
        return ServiceReport(
            workload,
            LatencyStats.from_samples(np.asarray(latencies)),
            achieved_qps=float(len(latencies) / span * 1e9),
        )

"""The microbenchmark utility (§3.1), pointed at the simulated platform.

:class:`MicroBench` offers the paper's measurement modes:

* :meth:`pointer_chase` — dependent-load latency over a configurable working
  set (Table 2);
* :meth:`queueing_probe` — saturate a chiplet and read back the worst-case
  traffic-control queueing (Table 2's "Max CCX/CCD Q" rows);
* :meth:`stream_bandwidth` — maximum-rate streams at core/CCX/CCD/CPU scope
  (Table 3), via the fluid model;
* :meth:`loaded_latency` — rate-controlled streams with latency sampling
  (Figure 3), via the transaction-level DES.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultSchedule

from repro.analysis.stats import LatencyStats
from repro.core.fabric import FabricModel
from repro.core.flows import Pattern, Scope, StreamSpec
from repro.core.loadgen import LoadResult, lower_stream
from repro.errors import ConfigurationError, TopologyError
from repro.memory.cache import CacheHierarchy, MemoryLevel
from repro.platform.numa import NpsMode, Position
from repro.platform.topology import Platform
from repro.sim.engine import Environment
from repro.sim.rng import SplitRng
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

__all__ = ["MicroBench"]

#: Relative timer/pipeline noise applied to cache-hit latencies.
_CACHE_JITTER_STD = 0.02


class MicroBench:
    """The characterization utility over a simulated chiplet platform."""

    def __init__(self, platform: Platform, seed: int = 0) -> None:
        self.platform = platform
        self.seed = seed
        self.hierarchy = CacheHierarchy(platform)
        self.fabric = FabricModel(platform)
        self._rng = SplitRng(seed)

    # -------------------------------------------------------- latency (Tbl 2)

    def pointer_chase(
        self,
        working_set_bytes: int,
        core_id: int = 0,
        position: Position = Position.NEAR,
        target: str = "dram",
        iterations: int = 2000,
        remote_socket: bool = False,
        tracer=None,
    ) -> Tuple[MemoryLevel, LatencyStats]:
        """Dependent-load latency; the level is resolved by working-set size.

        For cache-resident working sets the latency is the level's load-to-use
        time plus timer noise; DRAM/CXL-resident sets run through the DES with
        a single outstanding transaction, so DRAM jitter shapes the tail.

        ``tracer`` (a :class:`repro.trace.Tracer`) attaches to the chase's
        DES environment and records one span per transaction with per-hop
        children — the decomposition behind ``repro trace table2``. It is
        ignored for cache-resident working sets (no DES runs) and never
        changes the measured statistics.
        """
        if iterations < 10:
            raise ConfigurationError("need at least 10 iterations")
        level = (
            self.hierarchy.level_for(working_set_bytes)
            if target == "dram"
            else MemoryLevel.DRAM
        )
        if remote_socket:
            # Remote memory is never cached locally for a cold chase.
            level = MemoryLevel.DRAM
        if target == "dram" and level is not MemoryLevel.DRAM:
            base = self.hierarchy.latency_ns(level)
            rng = self._rng.stream(f"chase-cache-{working_set_bytes}")
            samples = base * (
                1.0 + _CACHE_JITTER_STD * rng.standard_normal(iterations)
            )
            return level, LatencyStats.from_samples(samples.clip(min=0.0))

        env = Environment()
        if tracer is not None:
            tracer.attach(env)
        resolver = PathResolver(env, self.platform, seed=self.seed)
        flow = f"chase/{position.value}" if target == "dram" else "chase/cxl"
        executor = TransactionExecutor(env, flow=flow)
        core = self.platform.core(core_id)
        if target == "dram":
            candidates = self.platform.umcs_at(core.ccd_id, position)
            if not candidates:
                raise TopologyError(
                    f"no UMC at {position.value} relative to ccd{core.ccd_id}"
                )
            endpoint = min(
                (umc.umc_id for umc in candidates),
                key=lambda u: self.platform.dram_latency_ns(core.ccd_id, u),
            )
        elif target == "cxl":
            endpoint = 0
        else:
            raise ConfigurationError(f"unknown target {target!r}")
        spec = StreamSpec(
            flow, OpKind.READ, (core_id,), target=target,
            remote=remote_socket, endpoints=(endpoint,),
        )
        issuer = lower_stream(
            env, executor, resolver, spec,
            window=1,                  # pointer chasing: one dependent load
            count_per_worker=iterations,
        )
        result = issuer.run()
        return MemoryLevel.DRAM, result.stats

    def queueing_probe(
        self, scope: Scope = Scope.CCX, transactions_per_core: int = 400
    ) -> Dict[str, float]:
        """Saturate a chiplet and report traffic-control queueing maxima (ns).

        ``Scope.CCX`` saturates one core complex (the "Max CCX Q" row);
        ``Scope.CCD`` saturates a whole compute chiplet (the "Max CCD Q" row).
        """
        if scope not in (Scope.CCX, Scope.CCD):
            raise ConfigurationError("queueing probe supports CCX or CCD scope")
        env = Environment()
        resolver = PathResolver(
            env, self.platform, seed=self.seed, with_dram_jitter=False
        )
        executor = TransactionExecutor(env)
        spec = StreamSpec(
            "probe", OpKind.READ,
            StreamSpec.cores_for_scope(self.platform, scope),
        )
        issuer = lower_stream(
            env, executor, resolver,
            replace(spec, endpoints=self.fabric.endpoints_of(spec)),
            window=self.platform.spec.bandwidth.mlp_read,
            count_per_worker=transactions_per_core,
        )
        pools = [resolver.ccx_pool(0)]
        ccd_pool = resolver.ccd_pool(0)
        if ccd_pool is not None:
            pools.append(ccd_pool)

        def _reset_after_warmup():
            # The very first burst waits a full round trip for the first
            # token to recycle; steady-state queueing starts after that.
            yield 5.0 * path_latency
            for pool in pools:
                pool.reset_stats()

        path_latency = issuer.paths[0].unloaded_ns
        env.process(_reset_after_warmup())
        issuer.run()
        result = {"ccx_max_wait_ns": resolver.ccx_pool(0).max_wait_ns}
        if ccd_pool is not None:
            result["ccd_max_wait_ns"] = ccd_pool.max_wait_ns
        return result

    # ------------------------------------------------------ bandwidth (Tbl 3)

    def stream_bandwidth(
        self,
        scope: Scope,
        op: OpKind,
        target: str = "dram",
        umc_ids: Optional[Sequence[int]] = None,
        pattern: Pattern = Pattern.SEQUENTIAL,
        remote_socket: bool = False,
        nps: Optional[NpsMode] = None,
    ) -> float:
        """Maximum sustained bandwidth of one stream at the given scope.

        ``nps`` selects the BIOS interleave domain (overrides ``umc_ids``
        when given): NPS1 stripes across every channel, NPS4 keeps the
        stream in its chiplet's quadrant.
        """
        cores = StreamSpec.cores_for_scope(self.platform, scope)
        if nps is not None and target == "dram":
            ccd_id = self.platform.core(cores[0]).ccd_id
            umc_ids = self.fabric.umc_ids_for_nps(ccd_id, nps)
        spec = StreamSpec(
            f"{scope.value}-{op.value}", op, cores, target=target,
            pattern=pattern, remote=remote_socket,
            endpoints=tuple(umc_ids or ()) if target == "dram" else (),
        )
        return self.fabric.achieved_gbps([spec])[spec.name]

    # -------------------------------------------------- loaded latency (Fig 3)

    def loaded_latency(
        self,
        core_ids: Sequence[int],
        op: OpKind,
        offered_gbps: Optional[float],
        umc_ids: Optional[Sequence[int]] = None,
        target: str = "dram",
        window_per_core: Optional[int] = None,
        transactions_per_core: int = 600,
        pattern: Pattern = Pattern.SEQUENTIAL,
        fault_schedule: Optional["FaultSchedule"] = None,
        strict: bool = False,
    ) -> LoadResult:
        """Latency under a rate-controlled load (one point of a Figure 3 sweep).

        ``pattern`` selects the per-core issue window: random accesses defeat
        the prefetchers, so their closed-loop window is the platform's
        random-read MLP instead of the full sequential one.

        ``fault_schedule`` (times in nanoseconds) degrades the fabric
        mid-run through :func:`repro.faults.inject.install`; a null schedule
        leaves the run bit-identical to a healthy one. ``strict`` turns on
        engine time-monotonicity checks and byte-conservation auditing.
        """
        env = Environment(strict=strict)
        resolver = PathResolver(env, self.platform, seed=self.seed)
        executor = TransactionExecutor(env, strict=strict)
        bw = self.platform.spec.bandwidth
        if window_per_core is None:
            if target == "cxl":
                window_per_core = (
                    bw.cxl_wcb_write if op.is_write else bw.cxl_mlp_read
                )
            else:
                window_per_core = bw.wcb_write if op.is_write else bw.mlp_read
            if pattern is Pattern.RANDOM and not op.is_write:
                window_per_core = bw.effective_random_mlp
            elif pattern is Pattern.POINTER_CHASE:
                window_per_core = 1
        spec = StreamSpec(
            "load", op, tuple(core_ids), target=target,
            demand_gbps=offered_gbps, pattern=pattern,
            endpoints=tuple(umc_ids or ()) if target == "dram" else (),
        )
        issuer = lower_stream(
            env, executor, resolver,
            replace(spec, endpoints=self.fabric.endpoints_of(spec)),
            window=window_per_core, count_per_worker=transactions_per_core,
        )
        if fault_schedule is not None:
            from repro.faults.inject import install

            install(resolver, fault_schedule)
        result = issuer.run()
        if strict:
            executor.assert_conserved(drained=True)
        return result

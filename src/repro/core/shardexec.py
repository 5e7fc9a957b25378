"""Sharded execution of multi-CCD closed-loop contention cells.

This is the glue between the sharded engine (:mod:`repro.sim.sharded`) and
the transaction-level machinery: it takes a set of closed-loop flows — one
per CCD in the canonical contention cell — and runs them on either engine:

* ``engine="serial"`` — the reference: one
  :class:`~repro.sim.engine.Environment`, real
  :class:`~repro.transport.transaction.TransactionExecutor` generators,
  emergent FIFO contention, each flow lowered by
  :func:`repro.core.loadgen.lower_stream`. It is not the ``netstack``
  cell: that one paces a single hog CCD with DRAM jitter on, where this
  one runs an unthrottled hog on every other CCD with jitter off.
* ``engine="sharded"`` — one :class:`~repro.sim.sharded.ShardEnvironment`
  per shard (CCDs mapped by :func:`repro.core.partition.ccd_shard_map`).
  With ``shards == 1`` the *same serial cell* runs inside the single shard
  — zero scheduling difference, so the outcome is md5-byte-identical to
  ``engine="serial"``. With ``shards > 1`` each shard times its flows with
  the batched recurrences of :mod:`repro.sim.batch` (issue-ordered: they
  match the DES only where every lane meeting at a shared stage reaches
  it through the same upstream stages); stages shared *across* shards
  (the NoC aggregate, contended UMCs) are partitioned into per-shard
  replicas sized in-flight-proportionally (FIFO arbitration
  shares by outstanding requests — §3.5's traffic obliviousness), and
  per-window byte accounting flows between shards as genuine lookahead-
  delayed boundary events through numpy event calendars.

Both engines disable DRAM timing jitter (the recurrences assume
deterministic service), so they model the same system; the residual
multi-shard disagreement is the replica-partitioning approximation plus
the kernel's issue ordering, whose tolerance the conformance tier
documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import jain_index
from repro.core.fabric import FabricModel
from repro.core.flows import VICTIM_DEMAND_GBPS, StreamSpec
from repro.core.loadgen import ClosedLoopIssuer, lower_stream
from repro.core.partition import ccd_shard_map
from repro.errors import ConfigurationError, SimulationError
from repro.fluid.coupling import stage_channel
from repro.platform.topology import Platform
from repro.sim.batch import (
    BatchFlow,
    BatchLane,
    BatchPool,
    BatchStage,
    FlowTiming,
    simulate_closed_loops,
)
from repro.sim.calendar import EventCalendar
from repro.sim.engine import Environment
from repro.sim.sharded import ShardedEnvironment, default_lookahead_ns
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = [
    "ShardFlowSpec",
    "FlowMetrics",
    "ShardCellOutcome",
    "contention_flows",
    "run_cell",
]

#: Completions per cross-shard accounting message (calendar bucket stride).
_CHUNK = 64

#: Warmup fraction, mirroring ClosedLoopIssuer's default.
_WARMUP_FRACTION = 0.1


@dataclass(frozen=True)
class ShardFlowSpec:
    """One closed-loop stream of the cell (single-CCD sender set)."""

    name: str
    core_ids: Tuple[int, ...]
    umc_ids: Tuple[int, ...]
    demand_gbps: Optional[float] = None
    op: OpKind = OpKind.READ

    def __post_init__(self) -> None:
        if not self.core_ids:
            raise ConfigurationError(f"flow {self.name}: no cores")
        if not self.umc_ids:
            raise ConfigurationError(f"flow {self.name}: no endpoints")

    def stream(self) -> StreamSpec:
        """This flow as a stream; its endpoints are ``umc_ids``."""
        return StreamSpec(
            self.name, self.op, self.core_ids, demand_gbps=self.demand_gbps,
            endpoints=self.umc_ids,
        )


@dataclass(frozen=True)
class FlowMetrics:
    """Per-flow outcome: delivered bandwidth plus loaded-latency summary."""

    name: str
    achieved_gbps: float
    mean_ns: float
    p50_ns: float
    p99_ns: float
    count: int


@dataclass(frozen=True)
class ShardCellOutcome:
    """Outcome of one cell run on one engine."""

    engine: str
    shards: int
    flows: Tuple[FlowMetrics, ...]
    transactions: int
    jain: float
    #: Synchronization telemetry (sharded engine only).
    sync: Optional[Dict[str, float]] = None

    def fingerprint(self) -> str:
        """md5 over the simulation results alone.

        Engine identity and synchronization telemetry are deliberately
        excluded: the ``shards=1`` identity contract is about *results*,
        and this digest is what the conformance tier compares.
        """
        payload = {
            "transactions": self.transactions,
            "jain": self.jain,
            "flows": [
                [f.name, f.achieved_gbps, f.mean_ns, f.p50_ns, f.p99_ns, f.count]
                for f in self.flows
            ],
        }
        raw = json.dumps(payload, sort_keys=True).encode()
        return hashlib.md5(raw).hexdigest()

    @property
    def victim_share(self) -> float:
        """First flow's share of its demand (the cell's victim metric)."""
        return self.flows[0].achieved_gbps / VICTIM_DEMAND_GBPS


def contention_flows(platform: Platform) -> List[ShardFlowSpec]:
    """The canonical multi-CCD contention cell.

    A paced single-CCX victim on chiplet 0 plus one unthrottled whole-CCD
    hog per remaining chiplet, all forced onto the victim's NPS4 memory
    endpoints — the Figure 4 "aggressive sender" cell scaled to every CCD
    the platform has.
    """
    from repro.platform.numa import NpsMode

    shared = tuple(
        FabricModel(platform).umc_ids_for_nps(0, NpsMode.NPS4)
    )
    victim_cores = tuple(
        core.core_id for core in platform.cores_of_ccx(0)
    )
    flows = [
        ShardFlowSpec(
            "victim", victim_cores, shared, demand_gbps=VICTIM_DEMAND_GBPS
        )
    ]
    for ccd_id in sorted(platform.ccds):
        if ccd_id == 0:
            continue
        cores = tuple(
            core.core_id for core in platform.cores_of_ccd(ccd_id)
        )
        flows.append(ShardFlowSpec(f"hog{ccd_id}", cores, shared))
    return flows


def _flow_ccd(platform: Platform, flow: ShardFlowSpec) -> int:
    ccds = {platform.core(core_id).ccd_id for core_id in flow.core_ids}
    if len(ccds) != 1:
        raise ConfigurationError(
            f"flow {flow.name}: sharded cells need single-CCD flows, "
            f"got CCDs {sorted(ccds)}"
        )
    return next(iter(ccds))


def _metrics_from_samples(
    name: str, samples: Sequence[float], achieved_gbps: float
) -> FlowMetrics:
    data = np.asarray(samples, dtype=float)
    p50, p99 = np.percentile(data, [50.0, 99.0])
    return FlowMetrics(
        name=name,
        achieved_gbps=float(achieved_gbps),
        mean_ns=float(data.mean()),
        p50_ns=float(p50),
        p99_ns=float(p99),
        count=int(data.size),
    )


# ---------------------------------------------------------------- serial cell


def _run_serial_cell(
    platform: Platform,
    flows: Sequence[ShardFlowSpec],
    transactions_per_core: int,
    seed: int,
    env: Optional[Environment] = None,
) -> Tuple[FlowMetrics, ...]:
    """The reference cell: real executors on one event loop."""
    if env is None:
        env = Environment()
    resolver = PathResolver(env, platform, seed=seed, with_dram_jitter=False)
    window = platform.spec.bandwidth.mlp_read
    issuers: Dict[str, ClosedLoopIssuer] = {}
    finished = []
    for spec in flows:
        executor = TransactionExecutor(env, flow=spec.name)
        issuer = lower_stream(
            env, executor, resolver, spec.stream(),
            window=window, count_per_worker=transactions_per_core,
        )
        issuers[spec.name] = issuer
        finished.append(issuer.start())
    env.run(env.all_of(finished))
    metrics = []
    for spec in flows:
        result = issuers[spec.name].result()
        metrics.append(
            FlowMetrics(
                name=spec.name,
                achieved_gbps=result.achieved_gbps,
                mean_ns=result.stats.mean,
                p50_ns=result.stats.p50,
                p99_ns=result.stats.p99,
                count=result.stats.count,
            )
        )
    return tuple(metrics)


# --------------------------------------------------------------- sharded cell


def _offered_loads(
    platform: Platform, flows: Sequence[ShardFlowSpec]
) -> Tuple[Dict[str, Dict[str, float]], Dict[str, float]]:
    """Per-channel *offered* load per cell flow (demands, not allocations).

    Offered demand — elastic flows at their window-limited ceiling — is
    what decides whether a channel is contended. A post-solve allocation
    cannot: the solver never allocates beyond capacity, so allocations
    always look uncontended.
    """
    fabric = FabricModel(platform)
    fluid_flows = []
    owners: List[str] = []
    for flow in flows:
        for fluid_flow in fabric.flows_for(flow.stream()):
            fluid_flows.append(fluid_flow)
            owners.append(flow.name)
    loads: Dict[str, Dict[str, float]] = {}
    caps: Dict[str, float] = {}
    for fluid_flow, owner in zip(fluid_flows, owners):
        rate = fluid_flow.demand_gbps
        for channel, weight in fluid_flow.path:
            per_flow = loads.setdefault(channel.name, {})
            per_flow[owner] = per_flow.get(owner, 0.0) + rate * weight
            caps[channel.name] = channel.capacity_gbps
    return loads, caps


def _inflight_pressure(
    resolver: PathResolver,
    platform: Platform,
    flow: ShardFlowSpec,
    window: int,
) -> float:
    """How many requests a flow keeps outstanding under saturation.

    Per CCX the flow can fill ``cores × window`` lanes but holds at most
    the CCX token-pool capacity; a CCD-level pool (where present) caps the
    total again. This is the quantity FIFO arbitration actually shares by.
    """
    by_ccx: Dict[int, int] = {}
    ccd_ids = set()
    for core_id in flow.core_ids:
        core = platform.core(core_id)
        by_ccx[core.ccx_id] = by_ccx.get(core.ccx_id, 0) + 1
        ccd_ids.add(core.ccd_id)
    total = sum(
        min(cores * window, resolver.ccx_pool(ccx_id).capacity)
        for ccx_id, cores in by_ccx.items()
    )
    for ccd_id in ccd_ids:
        ccd_pool = resolver.ccd_pool(ccd_id)
        if ccd_pool is not None:
            total = min(total, ccd_pool.capacity)
    return float(total)


def _run_sharded_cell(
    platform: Platform,
    flows: Sequence[ShardFlowSpec],
    transactions_per_core: int,
    seed: int,
    shards: int,
    strict: bool,
) -> ShardCellOutcome:
    shard_map = ccd_shard_map(platform, shards)
    lookahead_ns = default_lookahead_ns(platform)
    sharded = ShardedEnvironment(shards, lookahead_ns, strict=strict)
    window = platform.spec.bandwidth.mlp_read
    warmup_skip = int(transactions_per_core * _WARMUP_FRACTION) // max(1, window)

    # Exact path constants (fixed latency, per-stage service, pool sizes)
    # come from the same compiler the serial engine uses, on a scratch
    # environment that never runs.
    scratch = Environment()
    resolver = PathResolver(
        scratch, platform, seed=seed, with_dram_jitter=False
    )

    flow_shard = {
        flow.name: shard_map[_flow_ccd(platform, flow)] for flow in flows
    }
    loads, caps = _offered_loads(platform, flows)
    pressures = {
        flow.name: _inflight_pressure(resolver, platform, flow, window)
        for flow in flows
    }

    def pressure_on(channel: str, flow: ShardFlowSpec) -> float:
        """A flow's outstanding-request pressure on one shared channel."""
        if channel.startswith("umc"):
            umc_id = int(channel[3:].split(":")[0])
            if umc_id not in flow.umc_ids:
                return 0.0
            return pressures[flow.name] / len(flow.umc_ids)
        return pressures[flow.name]

    @cache
    def shard_fraction(channel: Optional[str], shard_id: int) -> float:
        """Capacity fraction a shard's replica of ``channel`` receives.

        Uncontended channels (fluid load below capacity) keep the residual
        rule — the partition is immaterial there. Contended channels split
        *in-flight proportionally*: FIFO arbitration is traffic-oblivious
        (§3.5), so a sender's service share tracks how many requests it
        keeps outstanding, not how much bandwidth it asks for. That is the
        serial engine's emergent behavior, reproduced statically.
        """
        if channel is None or channel not in loads:
            return 1.0
        by_shard: Dict[int, float] = {}
        for owner, load in loads[channel].items():
            owner_shard = flow_shard[owner]
            by_shard[owner_shard] = by_shard.get(owner_shard, 0.0) + load
        if len(by_shard) <= 1:
            return 1.0
        mine = by_shard.get(shard_id, 0.0)
        total = sum(by_shard.values())
        cap = caps[channel]
        if total <= cap:
            # Uncontended: the replica keeps the residual others leave.
            fraction = max(mine, cap - (total - mine)) / cap
        else:
            mine_pressure = 0.0
            total_pressure = 0.0
            for flow in flows:
                pressure = pressure_on(channel, flow)
                total_pressure += pressure
                if flow_shard[flow.name] == shard_id:
                    mine_pressure += pressure
            fraction = (
                mine_pressure / total_pressure if total_pressure > 0
                else mine / total
            )
        return max(fraction, 1e-6)

    stage_registry: List[Dict[str, BatchStage]] = [{} for _ in range(shards)]
    pool_registry: List[Dict[str, BatchPool]] = [{} for _ in range(shards)]
    batch_flows: List[List[BatchFlow]] = [[] for _ in range(shards)]

    for flow in flows:
        shard_id = flow_shard[flow.name]
        is_write = flow.op.is_write
        lanes: List[BatchLane] = []
        base, extra = divmod(transactions_per_core, window)
        for index, core_id in enumerate(flow.core_ids):
            path = resolver.dram_path(
                core_id, flow.umc_ids[index % len(flow.umc_ids)], flow.op
            )
            stage_plan = []
            for stage in path.stages:
                registry = stage_registry[shard_id]
                batch_stage = registry.get(stage.name)
                if batch_stage is None:
                    batch_stage = BatchStage(
                        stage.name,
                        stage.directions[is_write].capacity,
                    )
                    registry[stage.name] = batch_stage
                service = stage.unloaded_service_ns(CACHELINE, is_write)
                fraction = shard_fraction(
                    stage_channel(stage.name, is_write), shard_id
                )
                stage_plan.append((batch_stage, service / fraction))
            pool_plan = []
            for pool in path.tokens:
                registry = pool_registry[shard_id]
                batch_pool = registry.get(pool.name)
                if batch_pool is None:
                    batch_pool = BatchPool(pool.name, pool.capacity)
                    registry[pool.name] = batch_pool
                pool_plan.append(batch_pool)
            # The window's lanes share two frozen lanes: quota base + 1, base.
            full, short = (
                BatchLane(tuple(stage_plan), tuple(pool_plan), path.fixed_ns, quota)
                for quota in (base + 1, base)
            )
            lanes += [full] * extra + [short] * (window - extra)
        interval = (
            CACHELINE / flow.demand_gbps
            if flow.demand_gbps is not None
            else None
        )
        batch_flows[shard_id].append(
            BatchFlow(
                name=flow.name,
                lanes=lanes,
                size_bytes=CACHELINE,
                interval_ns=interval,
                warmup_skip=warmup_skip,
            )
        )

    # Per-shard batched execution: disjoint state, deterministic order.
    timings: Dict[str, FlowTiming] = {}
    for shard_id in range(shards):
        timings.update(simulate_closed_loops(batch_flows[shard_id]))

    # Home every endpoint on the shard of its lowest-latency CCD, then
    # replay the completion calendars as DES events: each chunk boundary
    # on a shard with remote endpoints sends a lookahead-delayed byte-
    # accounting message to the endpoint's home shard. This is the actual
    # null-message protocol running — windows, barriers, deterministic
    # merge — with the batched timings as its event source.
    def endpoint_home(umc_id: int) -> int:
        best_ccd = min(
            shard_map,
            key=lambda ccd_id: (
                platform.dram_latency_ns(ccd_id, umc_id), ccd_id
            ),
        )
        return shard_map[best_ccd]

    homes = {
        umc_id: endpoint_home(umc_id)
        for flow in flows
        for umc_id in flow.umc_ids
    }
    # Every message's byte share, as sent and as received: the same floats
    # summed in different orders, so the totals are compared with fsum.
    sent_shares: List[float] = []
    received_shares: List[float] = []

    def on_message(message):
        received_shares.append(message.payload[2])

    for shard_id in range(shards):
        sharded.shard(shard_id).on_message(on_message)

    for flow in flows:
        shard_id = flow_shard[flow.name]
        env = sharded.shard(shard_id)
        timing = timings[flow.name]
        remote = [
            umc_id for umc_id in flow.umc_ids if homes[umc_id] != shard_id
        ]
        completions = np.sort(timing.completed_ns)
        boundaries = completions[_CHUNK - 1 :: _CHUNK]
        if completions.size and (
            boundaries.size == 0 or boundaries[-1] < completions[-1]
        ):
            boundaries = np.append(boundaries, completions[-1])
        counts = np.minimum(
            np.arange(1, boundaries.size + 1) * _CHUNK, completions.size
        )
        chunk_sizes = np.diff(np.concatenate(([0], counts))) * CACHELINE

        def on_fire(
            now_ns,
            indices,
            env=env,
            flow=flow,
            remote=remote,
            chunk_sizes=chunk_sizes,
            cursor=[0],
        ):
            for _ in range(indices.size):
                byte_count = float(chunk_sizes[cursor[0]])
                cursor[0] += 1
                if not remote:
                    continue
                share = byte_count / len(flow.umc_ids)
                for umc_id in remote:
                    sent_shares.append(share)
                    env.send(
                        homes[umc_id], (flow.name, umc_id, share)
                    )

        EventCalendar(env).schedule(boundaries, on_fire)

    sharded.run()

    sent_total = math.fsum(sent_shares)
    received_total = math.fsum(received_shares)
    if received_total != sent_total:
        raise SimulationError(
            f"cross-shard byte accounting leaked: sent {sent_total}, "
            f"received {received_total}"
        )

    metrics = []
    total_txns = 0
    for flow in flows:
        timing = timings[flow.name]
        metrics.append(
            _metrics_from_samples(
                flow.name,
                timing.latencies_ns,
                timing.achieved_gbps(CACHELINE),
            )
        )
        total_txns += int(timing.completed_ns.size)
    sync = dict(sharded.sync_stats())
    sync["accounting_bytes"] = received_total
    return ShardCellOutcome(
        engine="sharded",
        shards=shards,
        flows=tuple(metrics),
        transactions=total_txns,
        jain=jain_index([m.achieved_gbps for m in metrics]),
        sync=sync,
    )


# ---------------------------------------------------------------- entry point


def run_cell(
    platform: Platform,
    flows: Optional[Sequence[ShardFlowSpec]] = None,
    engine: str = "serial",
    shards: Optional[int] = None,
    transactions_per_core: int = 150,
    seed: int = 0,
    strict: bool = False,
) -> ShardCellOutcome:
    """Run the multi-CCD contention cell on the chosen engine.

    ``shards=None`` defaults to one shard per CCD the flows touch. The
    ``shards=1`` sharded run executes the serial cell inside the single
    shard environment and is md5-byte-identical to ``engine="serial"``
    (compare :meth:`ShardCellOutcome.fingerprint`).
    """
    if flows is None:
        flows = contention_flows(platform)
    flows = list(flows)
    if engine == "serial":
        metrics = _run_serial_cell(
            platform, flows, transactions_per_core, seed,
            env=Environment(strict=strict),
        )
        return ShardCellOutcome(
            engine="serial",
            shards=1,
            flows=metrics,
            transactions=transactions_per_core
            * sum(len(flow.core_ids) for flow in flows),
            jain=jain_index([m.achieved_gbps for m in metrics]),
            sync=None,
        )
    if engine != "sharded":
        raise ConfigurationError(
            f"unknown engine {engine!r} (choose 'serial' or 'sharded')"
        )
    if shards is None:
        shards = len({_flow_ccd(platform, flow) for flow in flows})
    if shards == 1:
        # Degradation contract: one shard runs the *identical* serial
        # cell — same environment semantics, same sequence progression —
        # inside the sharded coordinator. Bit-identical by construction.
        sharded = ShardedEnvironment(
            1, default_lookahead_ns(platform), strict=strict
        )
        metrics = _run_serial_cell(
            platform, flows, transactions_per_core, seed,
            env=sharded.shard(0),
        )
        return ShardCellOutcome(
            engine="sharded",
            shards=1,
            flows=metrics,
            transactions=transactions_per_core
            * sum(len(flow.core_ids) for flow in flows),
            jain=jain_index([m.achieved_gbps for m in metrics]),
            sync=dict(sharded.sync_stats()),
        )
    return _run_sharded_cell(
        platform, flows, transactions_per_core, seed, shards, strict
    )

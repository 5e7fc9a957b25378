"""``repro chaos`` — graceful-degradation curves under dynamic fabric faults.

The paper's four idiosyncrasies all sharpen when the fabric degrades, and
real GMI/xGMI links flap and derate over time rather than failing once at
t=0. This experiment sweeps a representative dynamic fault schedule across
severities (0 = healthy, 1 = full depth) and reports, per severity, one
indicator per idiosyncrasy:

* **heterogeneous bandwidth domains** — whole-CPU streaming read bandwidth
  on the worst-case degraded fabric (fluid backend), plus which domain
  binds it;
* **sender-driven partitioning** — the fraction of its demand a paced
  victim on the faulted chiplet still receives beside an unthrottled hog
  on the next chiplet (fluid backend). Each stream keeps its chiplet's
  default NPS4 endpoints and those sets are disjoint, so the hog does not
  move this share: only the faults do;
* **extended paths / inconsistent BDPs** — average and P999 loaded latency
  of a chiplet streaming through its faulted GMI port while the schedule
  plays out mid-run (DES backend with interposed fault processes, strict
  invariant checking on).

Severity 0 compiles to the null schedule everywhere, so its row is
byte-identical to a run that never heard of faults — the property
``tests/test_failure_injection.py`` pins down.

Each severity is one independent runner cell, executed through the hardened
:func:`repro.runner.run_cells_detailed` (per-cell timeouts, retry, crash
recovery), so one pathological severity cannot take down the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.core.fabric import FabricModel
from repro.core.flows import Scope, StreamSpec
from repro.core.loadgen import lower_stream
from repro.core.microbench import MicroBench
from repro.errors import ConfigurationError
from repro.experiments.contention import (
    VICTIM_DEMAND_GBPS,
    contention_streams,
    shared_umc_ids,
)
from repro.faults.inject import install as install_faults
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.fluid.solver import Policy, solve
from repro.net.recovery import (
    FailoverRouter,
    RecoveryConfig,
    fluid_health,
    install as install_recovery,
)
from repro.net.stack import NetStackConfig
from repro.platform.topology import Platform
from repro.runner import Cell, CellResult
from repro.sim.engine import Environment, Event
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

__all__ = [
    "ChaosPoint", "SEVERITIES", "default_schedule", "run_point", "cells",
    "render",
    "RecoveryPoint", "recovery_schedule", "run_recovery_point",
    "recovery_cells", "render_recovery",
]

#: Default severity sweep: healthy first, then deepening degradation.
SEVERITIES: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

#: Snapshot time (ns) for the fluid probes: mid-derate, post-UMC-failure,
#: outside the stall window at every severity (severity only shortens the
#: stall, which starts at t=1400 in :func:`default_schedule`). The worst-case
#: fabric (``with_faults`` default) always contains the full-depth stall, so
#: it flatlines instead of degrading gracefully with severity.
_FLUID_PROBE_T_NS = 900.0


@dataclass(frozen=True)
class ChaosPoint:
    """One severity's graceful-degradation indicators."""

    severity: float
    cpu_read_gbps: float
    binding: str
    victim_share: float
    avg_ns: float
    p999_ns: float


def default_schedule(seed: int = 0) -> FaultSchedule:
    """A representative dynamic fault mix (times in ns, the DES clock).

    One slow-rolling GMI derate, a flapping NoC, a permanent UMC failure and
    a brief full GMI stall — every event targets channels that exist on all
    evaluated platforms, so the same schedule sweeps 7302 and 9634. The
    windows sit inside the first ~2 µs, where the DES probe's measurement
    interval lies.
    """
    return FaultSchedule(
        [
            FaultEvent.derate("gmi0:r", start=200.0, end=1200.0, factor=0.35),
            FaultEvent.flapping(
                "noc:r", start=0.0, end=2500.0, period=250.0, factor=0.5,
            ),
            FaultEvent.failure("umc0:r", start=700.0, factor=0.3),
            FaultEvent.stall("gmi0:r", start=1400.0, end=1700.0),
        ],
        seed=seed,
    )


def run_point(
    platform: Platform,
    severity: float,
    seed: int = 0,
    transactions_per_core: int = 200,
) -> ChaosPoint:
    """All four indicators at one severity (one independent runner cell)."""
    schedule = default_schedule(seed=seed).scaled(severity)

    # Fluid backend: the fabric as degraded mid-schedule.
    fabric = FabricModel.with_faults(platform, schedule, at_time=_FLUID_PROBE_T_NS)
    cpu_cores = StreamSpec.cores_for_scope(platform, Scope.CPU)
    scan = StreamSpec("scan", OpKind.READ, cpu_cores)
    cpu_read = fabric.achieved_gbps([scan])["scan"]
    binding = fabric.binding_channel([scan]) or "-"

    victim, hog = contention_streams(platform)
    victim_cores = victim.core_ids
    granted = fabric.achieved_gbps([victim, hog])["victim"]
    victim_share = granted / VICTIM_DEMAND_GBPS

    # DES backend: the faulted chiplet streaming through its GMI port while
    # the schedule plays out mid-run. Strict mode guards the injected run.
    bench = MicroBench(platform, seed=seed)
    result = bench.loaded_latency(
        list(victim_cores),
        OpKind.READ,
        offered_gbps=None,
        transactions_per_core=transactions_per_core,
        fault_schedule=schedule,
        strict=True,
    )
    return ChaosPoint(
        severity=severity,
        cpu_read_gbps=cpu_read,
        binding=binding,
        victim_share=victim_share,
        avg_ns=result.stats.mean,
        p999_ns=result.stats.p999,
    )


def cells(
    platform: Platform,
    severities: Sequence[float] = SEVERITIES,
    seed: int = 0,
    transactions_per_core: int = 200,
) -> List[Cell]:
    """One cell per severity, for :func:`repro.runner.run_cells_detailed`.

    Submission order is severity order; run with ``fail_fast=False``, a
    failed severity is reported in its row instead of aborting the sweep.
    """
    return [
        Cell(
            run_point,
            (platform, float(severity)),
            dict(seed=seed, transactions_per_core=transactions_per_core),
        )
        for severity in severities
    ]


def render(platform_name: str, results: Sequence[CellResult]) -> str:
    """The graceful-degradation table, one row per severity."""
    headers = [
        "severity", "CPU read GB/s", "binding", "victim share",
        "avg ns", "P999 ns",
    ]
    rows = []
    for result in results:
        if result.ok:
            point = result.value
            rows.append([
                f"{point.severity:.2f}",
                f"{point.cpu_read_gbps:.1f}",
                point.binding,
                f"{point.victim_share:.3f}",
                f"{point.avg_ns:.1f}",
                f"{point.p999_ns:.1f}",
            ])
        else:
            rows.append([
                f"cell {result.index}",
                f"FAILED ({result.failure.kind})",
                "-", "-", "-", "-",
            ])
    return render_table(
        headers, rows,
        title=f"Chaos sweep: graceful degradation ({platform_name})",
    )


# --------------------------------------------------------------------------
# Recovery sweep (``repro chaos --recover``): collapse, then recovery.
#
# One clean failure scenario instead of the severity mix above: the victim
# chiplet stripes its paced demand over its NPS4 memory endpoints, and at
# ``_REC_FAIL_T_NS`` the cross-die path to the first endpoint permanently
# fails (lane-failure residue ``_REC_FAIL_FACTOR``). Without recovery the
# workers homed there strand — throughput collapses to the surviving
# endpoints plus the dead link's trickle, and stays there. With recovery the
# monitors declare the endpoint dead, stranded credits reclaim home, stuck
# transactions retransmit over failover paths, and the post-failure
# steady-state share returns to ~1× pre-failure. Both backends run both
# arms, from the same schedule and the same health state machine.
# --------------------------------------------------------------------------

#: When the cross-die path to the victim's first NPS4 endpoint fails (ns).
_REC_FAIL_T_NS = 1500.0

#: Lane-failure capacity residue of the failed link.
_REC_FAIL_FACTOR = 0.05

#: Pre-failure measurement window (ns): inside warm steady state, clear of
#: both the cold start and the failure instant.
_REC_PRE_WINDOW = (400.0, 1400.0)

#: Post-failure steady-state window (ns): past detection (~2.2 µs), credit
#: reclamation and the retransmission of every stranded attempt.
_REC_POST_WINDOW = (3200.0, 5600.0)

#: Fluid probe instant for the post-failure solve (mid post window).
_REC_FLUID_POST_T_NS = 4000.0


@dataclass(frozen=True)
class RecoveryPoint:
    """One (backend, recovery arm) cell of the failover comparison."""

    backend: str
    recover: bool
    pre_gbps: float
    post_gbps: float
    #: Post-failure steady-state throughput as a fraction of pre-failure.
    recovered: float
    #: Simulated time the monitor declared the endpoint dead (NaN: never).
    detect_ns: float
    reclaimed: int
    retries: int
    failovers: int


def recovery_schedule(seed: int = 0) -> FaultSchedule:
    """The recovery scenario: one permanent cross-die endpoint failure."""
    return FaultSchedule(
        [
            FaultEvent.failure(
                "umc0:r", start=_REC_FAIL_T_NS, factor=_REC_FAIL_FACTOR
            ),
        ],
        seed=seed,
    )


def _victim_cell(platform: Platform) -> StreamSpec:
    """The recovery cell's victim, on its chiplet's NPS4 endpoints."""
    victim, __ = contention_streams(platform)
    return replace(victim, endpoints=tuple(sorted(shared_umc_ids(platform))))


def _sample_at(
    env: Environment, times: Sequence[float], read, out: Dict[float, int]
) -> Generator[Event, None, None]:
    """Record ``read()`` at each simulated time in ``times`` (sorted)."""
    for t in sorted(times):
        if t > env.now:
            yield t - env.now
        out[t] = read()


def _window_gbps(marks: Dict[float, int], window: Tuple[float, float]) -> float:
    start, end = window
    return (marks[end] - marks[start]) / (end - start)


def _worker_streams(victim: StreamSpec) -> List[StreamSpec]:
    """The recovery cell: one paced single-core stream per victim worker,
    worker ``i`` homed on the victim's endpoint ``i`` (in turn,
    netstack-style). Both backends lower this list.
    """
    rate_each = victim.demand_gbps / len(victim.core_ids)
    return [
        StreamSpec(
            f"w{index}", OpKind.READ, (core_id,), demand_gbps=rate_each,
            endpoints=(victim.endpoints[index % len(victim.endpoints)],),
        )
        for index, core_id in enumerate(victim.core_ids)
    ]


def _fluid_worker_tput(
    platform: Platform,
    streams: Sequence[StreamSpec],
    derates: Optional[Dict[str, float]] = None,
) -> float:
    """Aggregate victim throughput of the worker streams, each on its
    (possibly rerouted) home, all solved together on the (possibly
    degraded) fabric — the fluid counterpart of the DES recovery cell.
    """
    fabric = FabricModel(platform, derates=derates or None)
    flows = []
    for spec in streams:
        flows.extend(fabric.flows_for(spec))
    allocation = solve(flows, Policy.DEMAND_PROPORTIONAL)
    return sum(allocation.values())


def _fluid_recovery(
    platform: Platform, recover: bool, seed: int
) -> RecoveryPoint:
    schedule = recovery_schedule(seed=seed)
    config = RecoveryConfig.on()
    victim = _victim_cell(platform)
    streams = _worker_streams(victim)
    endpoints = [f"umc{u}" for u in victim.endpoints]

    pre = _fluid_worker_tput(platform, streams)
    post_derates = dict(schedule.derates_at(_REC_FLUID_POST_T_NS))
    detect = math.nan
    failovers = 0
    if recover:
        monitor = fluid_health(
            platform, schedule, config, endpoints,
            until_ns=_REC_POST_WINDOW[0],
        )
        detect = monitor.detect_ns("umc0")
        if detect is None:
            detect = math.nan
        router = FailoverRouter(platform, monitor)
        for index, spec in enumerate(streams):
            for umc_id in sorted(platform.umcs):
                router.register(
                    index, f"umc{umc_id}",
                    primary=(umc_id == spec.endpoints[0]),
                    slice_gbps=spec.demand_gbps,
                )
        for index, spec in enumerate(streams):
            if monitor.is_dead(f"umc{spec.endpoints[0]}"):
                rerouted = router.reroute(index)
                if rerouted is not None:
                    umc_id = int(rerouted[0][len("umc"):])
                    streams[index] = replace(spec, endpoints=(umc_id,))
                    failovers += 1
        # Health-aware capacity masking: the dead link keeps only its
        # residue in the post-failure solve.
        for channel, factor in monitor.capacity_mask().items():
            post_derates[channel] = min(
                post_derates.get(channel, 1.0), factor
            )
    post = _fluid_worker_tput(platform, streams, derates=post_derates)
    return RecoveryPoint(
        backend="fluid",
        recover=recover,
        pre_gbps=pre,
        post_gbps=post,
        recovered=post / pre,
        detect_ns=detect,
        reclaimed=0,
        retries=0,
        failovers=failovers,
    )


def _des_recovery(
    platform: Platform,
    recover: bool,
    seed: int,
    transactions_per_core: int,
) -> RecoveryPoint:
    schedule = recovery_schedule(seed=seed)
    victim = _victim_cell(platform)
    streams = _worker_streams(victim)
    endpoints = [f"umc{u}" for u in victim.endpoints]

    env = Environment()
    resolver = PathResolver(env, platform, seed=seed)
    install_faults(resolver, schedule)
    stack = NetStackConfig.with_credits()
    recovery = RecoveryConfig.on() if recover else RecoveryConfig.off()
    installation = install_recovery(
        resolver, stack, recovery,
        flows=["victim"], endpoints=endpoints, seed=seed,
    )
    executor = TransactionExecutor(env, flow="victim")
    if recover:
        homed_gbps: Dict[str, float] = {}
        for index, spec in enumerate(streams):
            home = f"umc{spec.endpoints[0]}"
            for umc_id in sorted(platform.umcs):
                endpoint = f"umc{umc_id}"
                installation.router.register(
                    index, endpoint,
                    path=resolver.dram_path(spec.core_ids[0], umc_id),
                    primary=(endpoint == home),
                    slice_gbps=spec.demand_gbps,
                )
            homed_gbps[home] = homed_gbps.get(home, 0.0) + spec.demand_gbps
        for endpoint in endpoints:
            umc_id = int(endpoint[len("umc"):])
            installation.watch(
                endpoint,
                homed_gbps.get(endpoint, 0.0),
                probe_path=resolver.dram_path(victim.core_ids[0], umc_id),
            )
        installation.start()

    window = platform.spec.bandwidth.mlp_read
    finished = []
    for index, spec in enumerate(streams):
        if recover:
            gate = installation.gate(executor, "victim", worker=index)
        else:
            gate = installation.gate(executor, "victim")
        issuer = lower_stream(
            env, gate, resolver, spec,
            window=window, count_per_worker=transactions_per_core,
        )
        finished.append(issuer.start())
    # Throughput marks: bytes completed by each window boundary, whichever
    # endpoint served them (failover retries count where they landed).
    marks: Dict[float, int] = {}
    boundaries = sorted(set(_REC_PRE_WINDOW) | set(_REC_POST_WINDOW))
    env.process(_sample_at(
        env, boundaries, lambda: executor.bytes_delivered, marks
    ))
    env.run(env.all_of(finished))
    if recover:
        installation.stop()
    # Drain: abandoned wrecks trickling through the dead link, the last
    # probes, and the monitors' exit all land before quiescence — then the
    # extended conservation invariant must hold.
    env.run()
    installation.assert_credits_home()

    pre = _window_gbps(marks, _REC_PRE_WINDOW)
    post = _window_gbps(marks, _REC_POST_WINDOW)
    if recover:
        stats = installation.stats
        detect = installation.health.detect_ns("umc0")
        return RecoveryPoint(
            backend="des",
            recover=True,
            pre_gbps=pre,
            post_gbps=post,
            recovered=post / pre,
            detect_ns=math.nan if detect is None else detect,
            reclaimed=stats.reclaimed_credits,
            retries=stats.retries,
            failovers=stats.failovers,
        )
    return RecoveryPoint(
        backend="des",
        recover=False,
        pre_gbps=pre,
        post_gbps=post,
        recovered=post / pre,
        detect_ns=math.nan,
        reclaimed=0,
        retries=0,
        failovers=0,
    )


def run_recovery_point(
    platform: Platform,
    backend: str,
    recover: bool,
    seed: int = 0,
    transactions_per_core: int = 600,
) -> RecoveryPoint:
    """One (backend, arm) recovery cell (independent, runner-friendly)."""
    if backend == "fluid":
        return _fluid_recovery(platform, recover, seed)
    if backend == "des":
        return _des_recovery(platform, recover, seed, transactions_per_core)
    raise ConfigurationError(
        f"unknown backend {backend!r} (choose from fluid, des)"
    )


def recovery_cells(
    platform: Platform,
    seed: int = 0,
    transactions_per_core: int = 600,
) -> List[Cell]:
    """Both backends × both recovery arms, one runner cell each."""
    return [
        Cell(
            run_recovery_point,
            (platform, backend, recover),
            dict(seed=seed, transactions_per_core=transactions_per_core),
        )
        for backend in ("fluid", "des")
        for recover in (False, True)
    ]


def render_recovery(platform_name: str, results: Sequence[CellResult]) -> str:
    """The collapse-then-recovery table, one row per (backend, arm)."""
    headers = [
        "backend", "recovery", "pre GB/s", "post GB/s", "post/pre",
        "detect ns", "reclaimed", "retries", "failovers",
    ]
    rows = []
    for result in results:
        if result.ok:
            point = result.value
            rows.append([
                point.backend,
                "on" if point.recover else "off",
                f"{point.pre_gbps:.2f}",
                f"{point.post_gbps:.2f}",
                f"{point.recovered:.3f}",
                "-" if math.isnan(point.detect_ns)
                else f"{point.detect_ns:.0f}",
                f"{point.reclaimed}",
                f"{point.retries}",
                f"{point.failovers}",
            ])
        else:
            rows.append([
                f"cell {result.index}",
                f"FAILED ({result.failure.kind})",
                "-", "-", "-", "-", "-", "-", "-",
            ])
    return render_table(
        headers, rows,
        title=(
            "Chaos recovery: permanent cross-die link failure "
            f"({platform_name})"
        ),
    )

"""The five benchmark workloads.

A workload turns ``--seed`` into fixed inputs at set-up and then makes the
same calls into the library's public functions on every repeat, always with
``jobs=1`` and no environment-variable switches. A repeat reports how many
operations it completed, the host latency of each user-visible call, and
one digest per cell of the simulated results, so the harness checks the
outputs of every repeat it times.

``repro`` is imported inside each ``setup``, so set-up time covers
importing the library as well as building platforms and starting servers.

Between cells a repeat also times a fixed pure-Python loop, the host-speed
reference; the harness rescales the repeat's host times by it (see
``Repeat.scale``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import ROOT

#: Steps of the host-speed reference loop, and the seconds it took on the
#: idle 2-core x86_64 VM the bounds were measured on (Python 3.11). Host
#: times are reported as if the loop had taken ``REFERENCE_S`` while they
#: were measured.
REFERENCE_STEPS = 100_000
REFERENCE_S = 0.0065


def time_reference() -> float:
    """Seconds the fixed reference loop takes now: the host's current speed."""
    began = time.perf_counter()
    total = 0
    for step in range(REFERENCE_STEPS):
        total += step * step % 7
    return time.perf_counter() - began


def digest(*parts: str) -> str:
    """Short SHA-256 over text parts (the stored per-cell digest form)."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode("utf-8"))
        sha.update(b"\0")
    return sha.hexdigest()[:16]


def canonical(value: Any) -> str:
    """Exact text form of a result: dataclass fields, floats by ``repr``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    return json.dumps(value, sort_keys=True, default=str)


@dataclass(frozen=True)
class Call:
    """One public library call of a repeat and the operations it simulates."""

    label: str
    run: Callable[[], Any]
    ops: int
    digest: Callable[[Any], str]


@dataclass
class Repeat:
    """What one repeat did; ``digests[label]`` is None when the cell failed."""

    #: Host seconds each cell's operations took (the cold submit, for the
    #: service), and per cell the user-visible call latencies behind
    #: ``call_ms`` (the call itself; the warm submits, for the service).
    cell_s: Dict[str, float] = field(default_factory=dict)
    latencies_s: Dict[str, List[float]] = field(default_factory=dict)
    digests: Dict[str, Optional[str]] = field(default_factory=dict)
    cell_ops: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, str] = field(default_factory=dict)
    #: Client-side service timings (seconds), for the per-layer report.
    accept_s: List[float] = field(default_factory=list)
    first_result_s: List[float] = field(default_factory=list)
    #: Reference-loop times taken between the repeat's cells.
    reference_s: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor taking this repeat's host times to the reference host speed.

        The host's speed drifts by tens of percent over seconds to minutes
        when other tenants share its cores; interpreter-bound code slows in
        step with the reference loop, so the rescaled times hold steady.
        """
        return REFERENCE_S / statistics.median(self.reference_s)

    def fail(self, label: str, problem: str) -> None:
        """Mark one cell failed: no digest, and why."""
        self.digests[label] = None
        self.errors[label] = problem


def run_calls(calls: List[Call]) -> Repeat:
    """One repeat of a call-list workload: time each call, digest its result."""
    repeat = Repeat()
    for call in calls:
        repeat.reference_s.append(time_reference())
        began = time.perf_counter()
        try:
            value = call.run()
        except Exception as error:  # noqa: BLE001 — a failed cell, counted
            elapsed = time.perf_counter() - began
            repeat.fail(call.label, repr(error))
        else:
            elapsed = time.perf_counter() - began
            repeat.digests[call.label] = call.digest(value)
        repeat.cell_s[call.label] = elapsed
        repeat.latencies_s[call.label] = [elapsed]
        repeat.cell_ops[call.label] = call.ops
    return repeat


class Workload:
    """Base: set up from a seed, repeat identical work, close."""

    name = ""
    #: Layers the traced run must see called (zero calls fails the run).
    layers: Tuple[str, ...] = ()

    def setup(self, seed: int, quick: bool) -> Any:
        raise NotImplementedError

    def repeat(self, state: Any) -> Repeat:
        return run_calls(state)

    def close(self, state: Any) -> None:
        """Release what ``setup`` started (nothing for call-list workloads)."""


class DesGated(Workload):
    """Per-event DES on 7302 with credit, QoS and recovery interposers live."""

    name = "des-gated"
    layers = ("platform", "transport", "sim", "net", "experiments")

    def setup(self, seed: int, quick: bool) -> List[Call]:
        from repro.experiments import chaos, netstack
        from repro.experiments.contention import contention_streams
        from repro.platform.presets import epyc_7302

        platform = epyc_7302()
        per_core = 200 if quick else 1500
        small_victim = tuple(
            core.core_id for core in platform.cores_of_ccx(0)
        )
        victim, hog = contention_streams(platform, victim_cores=small_victim)
        netstack_ops = per_core * (len(victim.core_ids) + len(hog.core_ids))
        recovery_ops = per_core * len(contention_streams(platform)[0].core_ids)
        calls = [
            Call(
                f"netstack/{arm}",
                partial(
                    netstack.run_point, platform, arm, "des",
                    seed=seed, transactions_per_core=per_core,
                ),
                netstack_ops,
                lambda point: digest(canonical(point)),
            )
            for arm in netstack.ARMS
        ]
        calls += [
            Call(
                f"recovery/{'on' if recover else 'off'}",
                partial(
                    chaos.run_recovery_point, platform, "des", recover,
                    seed=seed, transactions_per_core=per_core,
                ),
                recovery_ops,
                lambda point: digest(canonical(point)),
            )
            for recover in (False, True)
        ]
        return calls


class DesPlain(Workload):
    """Per-event DES with no interposers: every Figure 3 panel, both presets."""

    name = "des-plain"
    layers = ("platform", "transport", "sim", "experiments")

    def setup(self, seed: int, quick: bool) -> List[Call]:
        from repro.experiments import fig3
        from repro.platform.presets import epyc_7302, epyc_9634
        from repro.transport.message import OpKind

        per_core = 20 if quick else 100
        points = len(fig3.LOAD_FRACTIONS) + 1  # plus the unthrottled point
        calls = []
        for platform in (epyc_7302(), epyc_9634()):
            for config in fig3.panel_configs(platform):
                for op in (OpKind.READ, OpKind.NT_WRITE):
                    calls.append(Call(
                        f"{config.panel}/{op.value}",
                        partial(
                            fig3.run_panel, platform, config, op,
                            transactions_per_core=per_core, seed=seed,
                        ),
                        points * config.core_count * per_core,
                        lambda sweep: digest(
                            fig3.render([sweep]), canonical(sweep)
                        ),
                    ))
        return calls


class ShardedClosed(Workload):
    """The 12-CCD closed-loop contention cell on the sharded engine.

    The cell runs without DRAM timing jitter, so the seed reaches its
    results only through the stream layout. A repeat runs the cell with
    the victim on each of the twelve CCDs once, the seed choosing which
    shard count (2, 4, 6 or 12) runs which layout: the layouts' costs
    differ by up to ±8%, and covering all of them every repeat keeps the
    work nearly the same whatever the seed.
    """

    name = "sharded-closed"
    layers = ("platform", "transport", "sim", "core")

    def setup(self, seed: int, quick: bool) -> List[Call]:
        from repro.core import shardexec
        from repro.platform.presets import epyc_9634

        platform = epyc_9634()
        # About 0.17 s a call and 2 s a repeat. (Above ~2000 per core the
        # library's absolute 1e-6 check on the cross-shard byte accounting
        # trips on float rounding and raises.)
        per_core = 100 if quick else 700
        calls = []
        for index, shards in enumerate((2, 4, 6, 12)):
            for k in range(3):
                flows = contention_layout(platform, seed + index + 4 * k)
                calls.append(Call(
                    f"shards{shards}/{k}",
                    partial(
                        shardexec.run_cell, platform, flows, engine="sharded",
                        shards=shards, transactions_per_core=per_core,
                        seed=seed,
                    ),
                    per_core * sum(len(flow.core_ids) for flow in flows),
                    lambda outcome: outcome.fingerprint(),
                ))
        return calls


def contention_layout(platform, victim: int) -> list:
    """The contention cell with the victim on CCD ``victim % CCDs``.

    A one-CCX paced victim on that CCD and a whole-CCD hog on every other,
    all on the victim's NPS4 channels; victim 0 gives
    ``shardexec.contention_flows`` itself.
    """
    from repro.core.fabric import FabricModel
    from repro.core.shardexec import VICTIM_DEMAND_GBPS, ShardFlowSpec
    from repro.platform.numa import NpsMode

    ccds = sorted(platform.ccds)
    victim = ccds[victim % len(ccds)]
    shared = tuple(FabricModel(platform).umc_ids_for_nps(victim, NpsMode.NPS4))
    victim_ccx = platform.ccds[victim].ccx_ids[0]
    flows = [ShardFlowSpec(
        "victim",
        tuple(core.core_id for core in platform.cores_of_ccx(victim_ccx)),
        shared,
        demand_gbps=VICTIM_DEMAND_GBPS,
    )]
    flows += [
        ShardFlowSpec(
            f"hog{ccd}",
            tuple(core.core_id for core in platform.cores_of_ccd(ccd)),
            shared,
        )
        for ccd in ccds
        if ccd != victim
    ]
    return flows


#: Offered load per tenant (QPS): unloaded through past saturation.
QPS_LADDER = (0.5e6, 1e6, 2e6, 3e6, 4e6, 5e6)

#: (label, hog on the server CCD's spare cores, hog pacing GB/s): the
#: ``repro kvstore`` arms, with the QoS arm's 8 GB/s admission grant.
BACKGROUND_ARMS = (("alone", False, None), ("hog", True, None), ("qos", True, 8.0))


class KvstoreOpen(Workload):
    """Four open-loop kvstore tenants on 9634 over a QPS ladder and three
    background arms (none, a colocated hog, the hog paced by QoS)."""

    name = "kvstore-open"
    layers = ("platform", "transport", "sim", "core", "apps", "analysis", "fluid")

    def setup(self, seed: int, quick: bool) -> List[Call]:
        from repro.apps import ArrivalSpec, HybridKvServer, KvWorkload, TenantSpec
        from repro.platform.presets import epyc_9634

        platform = epyc_9634()
        server = HybridKvServer(platform, seed=seed)
        per_tenant = 2_000 if quick else 250_000
        hog = [core.core_id for core in platform.cores_of_ccd(0)[4:]]
        calls = []
        for qps in QPS_LADDER:
            # The four tenants of benchmarks/bench_kvserve.py's million sweep.
            tenants = [
                TenantSpec(
                    "web", KvWorkload(qps=qps, requests=per_tenant),
                    server_ccd=0, workers=4,
                ),
                TenantSpec(
                    "feed", KvWorkload(qps=qps, requests=per_tenant),
                    server_ccd=1, workers=4, arrival=ArrivalSpec(kind="onoff"),
                ),
                TenantSpec(
                    "ads",
                    KvWorkload(qps=qps, requests=per_tenant, value_tier="cxl"),
                    server_ccd=2, workers=4,
                    arrival=ArrivalSpec(
                        kind="diurnal", levels=(1.0, 2.0, 0.5, 0.5)
                    ),
                ),
                TenantSpec(
                    "batch",
                    KvWorkload(qps=qps, requests=per_tenant, index_depth=4),
                    server_ccd=3, workers=4,
                ),
            ]
            for arm, cores, rate in BACKGROUND_ARMS:
                calls.append(Call(
                    f"{qps / 1e6:g}M/{arm}",
                    partial(
                        server.serve_tenants, tenants,
                        background_cores=hog if cores else None,
                        background_rate_gbps=rate,
                    ),
                    len(tenants) * per_tenant,
                    _serving_digest,
                ))
        return calls


def _serving_digest(result) -> str:
    reports, merged = result
    return digest(canonical(merged), *(canonical(report) for report in reports))


#: Warm submits (about 3.5 ms each) between two host-speed reference samples.
WARM_SUBMITS_PER_REFERENCE = 25


@dataclass
class _ServiceState:
    thread: Any
    client: Any
    cache: Any
    work: Path
    #: label -> job spec, and label -> how many cells the spec expands to.
    specs: Dict[str, Dict[str, Any]]
    cells: Dict[str, int]
    warm_submits: int


class ServiceSweep(Workload):
    """An in-process service on a fresh cache, driven by one client.

    Each repeat submits every spec cold (real cells, cache writes), then
    resubmits them warm in a closed loop (cache reads, framing, scheduling),
    and finally empties the cache so the next repeat is cold again.
    """

    name = "service-sweep"
    layers = ("platform", "experiments", "runner", "cache", "service")

    def setup(self, seed: int, quick: bool) -> _ServiceState:
        from repro.cache import ResultCache
        from repro.service.client import ServiceClient
        from repro.service.registry import build_cells, normalize_spec
        from repro.service.server import ServiceThread

        # Inside the checkout (the benchmark writes nowhere else); close()
        # removes it.
        work = Path(tempfile.mkdtemp(prefix=".e2e-service-", dir=ROOT))
        cache = ResultCache(work / "cache")
        # A relative socket path keeps it under the AF_UNIX length limit
        # however deep the checkout is (the harness runs from the root).
        socket_path = os.path.relpath(work / "svc.sock", ROOT)
        thread = None
        try:
            thread = ServiceThread(socket_path, jobs=1, cache=cache).start()
            client = ServiceClient(socket_path, client="e2e").connect()
        except BaseException:
            if thread is not None:
                thread.stop()
            shutil.rmtree(work, ignore_errors=True)
            raise
        per_core = 20 if quick else 400
        requests = 1_000 if quick else 100_000
        packets = 10 if quick else 120
        by_label: Dict[str, Dict[str, Any]] = {}
        for k in range(2):
            spec_seed = seed * 10 + k
            for spec in [
                {
                    "kind": "netstack", "platform": "7302", "seed": spec_seed,
                    # "off" twice: the runner collapses in-batch duplicates.
                    "params": {
                        "arms": ["off", "credits", "credits+qos", "off"],
                        "transactions_per_core": per_core,
                    },
                },
                {
                    "kind": "kvstore", "platform": "9634", "seed": spec_seed,
                    "params": {"qps": 2e6, "requests": requests},
                },
                {
                    "kind": "explore", "platform": "7302", "seed": spec_seed,
                    "params": {
                        "topologies": ["squeeze-3x2"],
                        "routings": ["xy", "adaptive"],
                        "workloads": ["contention"],
                        "packets_per_sender": packets,
                    },
                },
            ]:
                by_label[f"{spec['kind']}/{k}"] = spec
        cells = {
            label: len(build_cells(normalize_spec(spec)))
            for label, spec in by_label.items()
        }
        return _ServiceState(
            thread, client, cache, work, by_label, cells, 12 if quick else 300
        )

    def repeat(self, state: _ServiceState) -> Repeat:
        from repro.errors import ProtocolError, ServiceError

        repeat = Repeat()
        renders: Dict[str, str] = {}
        for label, spec in state.specs.items():
            repeat.cell_ops[label] = state.cells[label]
            repeat.reference_s.append(time_reference())
            began = time.perf_counter()
            try:
                outcome = state.client.submit(spec)
            except (OSError, ProtocolError, ServiceError) as error:
                problem = repr(error)
            else:
                problem = _outcome_problem(outcome, warm=False)
            repeat.cell_s[label] = time.perf_counter() - began
            if problem:
                repeat.fail(label, problem)
                continue
            renders[label] = outcome.render()
            repeat.digests[label] = digest(renders[label])
        labels = list(state.specs)
        for index in range(state.warm_submits):
            label = labels[index % len(labels)]
            if index % WARM_SUBMITS_PER_REFERENCE == 0:
                repeat.reference_s.append(time_reference())
            seen: Dict[str, float] = {}
            began = time.perf_counter()

            def on_event(frame, seen=seen, began=began):
                event = frame.get("event")
                if event in ("accepted", "cell") and event not in seen:
                    seen[event] = time.perf_counter() - began

            try:
                outcome = state.client.submit(
                    state.specs[label], on_event=on_event
                )
            except (OSError, ProtocolError, ServiceError) as error:
                problem = repr(error)
            else:
                problem = _outcome_problem(outcome, warm=True)
                if not problem and outcome.render() != renders.get(label):
                    problem = "warm render differs from the cold render"
            repeat.latencies_s.setdefault(label, []).append(
                time.perf_counter() - began
            )
            repeat.accept_s.append(seen.get("accepted", 0.0))
            repeat.first_result_s.append(seen.get("cell", 0.0))
            if problem and repeat.digests.get(label) is not None:
                repeat.fail(label, problem)
        state.cache.clear()
        return repeat

    def close(self, state: _ServiceState) -> None:
        state.client.close()
        state.thread.stop()
        shutil.rmtree(state.work, ignore_errors=True)


def _outcome_problem(outcome, warm: bool) -> str:
    """Why a submit's outcome is wrong for its pass, or '' when it is right."""
    if outcome.status != "done":
        return f"job ended {outcome.status}"
    if outcome.failures:
        return f"{outcome.failures} failed cells"
    if warm and outcome.hits != len(outcome.results):
        return f"warm submit hit {outcome.hits}/{len(outcome.results)} cells"
    if not warm and outcome.hits:
        return f"cold submit hit {outcome.hits} cells"
    return ""


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        DesGated(), DesPlain(), ShardedClosed(), KvstoreOpen(), ServiceSweep()
    )
}

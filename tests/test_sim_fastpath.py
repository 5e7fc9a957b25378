"""Events that fire next skip the queue — and change nothing.

The default run loops let a zero-delay event the loop would pop next skip
the queue (``Environment.fires_next``): free ``Resource`` grants and
``TokenPool`` tokens come back already fired, a ``Process`` with one
waiter completes in place, and ``ClosedLoopIssuer`` lanes run their
transactions inline. ``Environment(strict=True)`` queues every event and is
the reference. These tests run the same DES cells both ways and require
everything the cells leave behind to be identical: issuer results, every
link direction's books, token-pool wait statistics, RNG states and the
clock. Only the number of sequence numbers drawn may differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loadgen import ClosedLoopIssuer
from repro.core.microbench import MicroBench
from repro.experiments import chaos, fig3, netstack
from repro.faults.inject import install as install_faults
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.inject import install as install_credits
from repro.net.qos import QosClass
from repro.net.recovery import RecoveryConfig, install as install_recovery
from repro.net.stack import NetStackConfig
from repro.noc.arbiter import LinkArbiter
from repro.noc.flowcontrol import TokenPool
from repro.platform.interconnect import LinkKind, LinkSpec
from repro.platform.presets import epyc_7302, epyc_9634, synthetic_ucie
from repro.sim.engine import Environment, Event, Resource, Timeout
from repro.transport.message import OpKind
from repro.transport.path import CompiledPath, PathResolver, QueuedStage
from repro.transport.transaction import TransactionExecutor

_PLATFORMS = {
    "7302": epyc_7302(),
    "9634": epyc_9634(),
    "synthetic": synthetic_ucie(),
}

#: ``pick(options)`` returns one element of the sequence ``options``.
Pick = Callable[[Sequence], object]

GATES = ("none", "credits", "credits+qos", "recovery")

#: Recovery deadlines short enough that credit waits and service phases
#: expire: retries, backoff draws and abandoned attempts.
TIGHT = RecoveryConfig.on(retry_timeout_ns=20.0, service_timeout_ns=60.0)


@dataclass(frozen=True)
class IssuerSpec:
    """One ClosedLoopIssuer: one worker per core, all on ``target``."""

    kind: str  # dram | cxl
    cores: Tuple[int, ...]
    target: int
    op: OpKind
    window: int
    count: int
    rate_gbps: Optional[float]
    token_pools: bool


@dataclass(frozen=True)
class CellSpec:
    platform: str
    jitter: bool
    seed: int
    gate: str
    #: Recovery cells only: TIGHT deadlines instead of the calibrated ones.
    tight: bool
    issuers: Tuple[IssuerSpec, ...]
    #: (derate stage, start, length, factor, stall stage, start, length).
    fault: Optional[tuple]


def build_cell(pick: Pick) -> CellSpec:
    """Draw one cell whose issuers share stages, pools and devices."""
    name = pick(sorted(_PLATFORMS))
    platform = _PLATFORMS[name]
    gate = pick(GATES)
    # Cores of the first two CCDs: issuers share IF/GMI ports and the NoC.
    cores = [c for c in sorted(platform.cores) if platform.core(c).ccd_id < 2]
    # Recovery accounts delivered bytes per DRAM endpoint link.
    kinds = ["dram"] + (
        ["cxl"] if platform.cxl_devices and gate != "recovery" else []
    )
    issuers = []
    for __ in range(pick(range(1, 4))):
        kind = pick(kinds)
        issuers.append(IssuerSpec(
            kind=kind,
            cores=tuple(pick(cores) for __ in range(pick(range(1, 3)))),
            target=pick([0, 1]),
            op=pick([OpKind.READ, OpKind.NT_WRITE]),
            window=pick(range(1, 5)),
            count=pick(range(1, 13)),
            rate_gbps=pick([None, 2.0, 24.0]),
            token_pools=pick([False, True]),
        ))
    fault = None
    if pick([False, True]):
        fault = (
            pick(range(8)), pick([0.0, 40.0]), pick([60.0, 400.0]),
            pick([0.1, 0.5]),
            pick(range(8)), pick([0.0, 100.0]), pick([30.0, 300.0]),
        )
    return CellSpec(
        platform=name,
        jitter=pick([False, True]),
        seed=pick(range(4)),
        gate=gate,
        tight=gate == "recovery" and pick([False, True]),
        issuers=tuple(issuers),
        fault=fault,
    )


def _compile(resolver, spec: IssuerSpec, core: int):
    compile_path = resolver.dram_path if spec.kind == "dram" else resolver.cxl_path
    path = compile_path(core, spec.target, op=spec.op)
    return path if spec.token_pools else replace(path, tokens=[])


def _channel(stage, is_write: bool) -> str:
    """The fault-schedule channel name of a path stage."""
    base = (
        stage.name.replace("hubport/", "hub/")
        .replace("/ccd", "").replace("/rc", "").replace("/", "")
    )
    return f"{base}:{'w' if is_write else 'r'}"


def _fault_schedule(cell: CellSpec, path) -> FaultSchedule:
    """A derate plus a stall (the ``_stall`` interposer) on ``path``."""
    stages = path.stages
    is_write = cell.issuers[0].op.is_write
    derate, d0, d1, factor, stall, s0, s1 = cell.fault
    return FaultSchedule([
        FaultEvent.derate(
            _channel(stages[derate % len(stages)], is_write), d0, d0 + d1,
            factor,
        ),
        FaultEvent.stall(
            _channel(stages[stall % len(stages)], is_write), s0, s0 + s1
        ),
    ])


def _install_gates(cell, resolver, paths):
    """The cell's credit/QoS/recovery installation (None for no gate)."""
    flows = [f"i{index}" for index in range(len(cell.issuers))]
    endpoints = sorted({path.stages[-1].name for row in paths for path in row})
    if cell.gate == "none":
        return None
    if cell.gate == "credits":
        config = NetStackConfig.with_credits()
    elif cell.gate == "credits+qos":
        classes = [QosClass.LATENCY, QosClass.BULK]
        config = NetStackConfig.with_qos(
            {flow: classes[index % 2] for index, flow in enumerate(flows)}
        )
    else:
        installation = install_recovery(
            resolver, NetStackConfig.with_credits(),
            TIGHT if cell.tight else RecoveryConfig.on(),
            flows=flows, endpoints=endpoints, seed=cell.seed,
        )
        worker = 0
        for spec, row in zip(cell.issuers, paths):
            for core, path in zip(spec.cores, row):
                for umc in (0, 1):
                    installation.router.register(
                        worker, f"umc{umc}",
                        path=resolver.dram_path(core, umc, op=spec.op),
                        primary=(path.stages[-1].name == f"umc{umc}"),
                        slice_gbps=4.0,
                    )
                worker += 1
        for endpoint in endpoints:
            installation.watch(
                endpoint, 4.0,
                probe_path=resolver.dram_path(
                    cell.issuers[0].cores[0], int(endpoint[len("umc"):])
                ),
            )
        installation.start()
        return installation
    return install_credits(resolver, config, flows=flows, endpoints=endpoints)


def run_cell(cell: CellSpec, strict: bool):
    """Run ``cell``; returns (everything it left behind, sequence draws)."""
    env = Environment(strict=strict)
    resolver = PathResolver(
        env, _PLATFORMS[cell.platform], seed=cell.seed,
        with_dram_jitter=cell.jitter,
    )
    paths = [
        [_compile(resolver, spec, core) for core in spec.cores]
        for spec in cell.issuers
    ]
    if cell.fault is not None:
        install_faults(resolver, _fault_schedule(cell, paths[0][0]))
    installation = _install_gates(cell, resolver, paths)
    executors, issuers, gates, finished = [], [], [], []
    worker_base = 0
    for index, (spec, row) in enumerate(zip(cell.issuers, paths)):
        executor = TransactionExecutor(env, flow=f"i{index}")
        if installation is None:
            gate = executor
        elif cell.gate == "recovery":
            # One gate per issuer; its failover identity is its first
            # worker (the issuer's workers share the gate).
            gate = installation.gate(executor, f"i{index}", worker=worker_base)
        else:
            gate = installation.gate(executor, f"i{index}")
        worker_base += len(spec.cores)
        issuer = ClosedLoopIssuer(
            env, gate, row, spec.op, window=spec.window,
            count_per_worker=spec.count, rate_gbps=spec.rate_gbps,
        )
        executors.append(executor)
        gates.append(gate)
        issuers.append(issuer)
        finished.append(issuer.start())
    env.run(env.all_of(finished))
    if cell.gate == "recovery":
        installation.stop()
        env.run()  # drain wrecks, probes and the monitor loops
    if installation is not None:
        installation.assert_credits_home()

    servers, pools = {}, {}
    for path in (path for row in paths for path in row):
        for stage in path.stages:
            servers.setdefault(stage.name, stage.server)
        for pool in path.tokens:
            pools.setdefault(pool.name, pool)
    if installation is not None:
        for pool in installation.scheduler.pools.values():
            pools.setdefault(pool.name, pool)
    directions, rngs = [], []
    for name, server in servers.items():
        for tag, direction in (("r", server.read_dir), ("w", server.write_dir)):
            directions.append((
                name, tag, direction.busy_ns, direction.bytes_served,
                direction.transfers, direction.max_queue_len,
            ))
            if direction.jitter is not None:
                rngs.append(direction.jitter[1].bit_generator.state)
    rngs += [
        gate.rng.bit_generator.state for gate in gates if hasattr(gate, "rng")
    ]
    outcome = {
        "results": [repr(issuer.result()) for issuer in issuers],
        "txns": [
            [(t.src_core, t.issued_ns, t.completed_ns) for t in ex.completed]
            for ex in executors
        ],
        "directions": directions,
        "pools": [
            (name, pool.max_wait_ns, pool.total_wait_ns, pool.acquired_count,
             pool.available)
            for name, pool in sorted(pools.items())
        ],
        "rngs": rngs,
        "recovery": (
            repr(installation.stats) if cell.gate == "recovery" else None
        ),
        "now": env.now,
    }
    return outcome, env._sequence


def check_cell(cell: CellSpec) -> Tuple[int, int]:
    """The fast loop reproduces the strict one; returns both draw counts."""
    expected, strict_draws = run_cell(cell, strict=True)
    fast, fast_draws = run_cell(cell, strict=False)
    assert fast == expected
    assert fast_draws <= strict_draws
    return strict_draws, fast_draws


class TestFastLoopMatchesStrict:
    def test_seeded_sweep(self):
        rng = random.Random(0)
        seen = set()
        strict_draws = fast_draws = 0
        for __ in range(160):
            cell = build_cell(rng.choice)
            seen |= {
                ("platform", cell.platform), ("gate", cell.gate),
                ("jitter", cell.jitter), ("fault", cell.fault is not None),
            }
            for spec in cell.issuers:
                seen |= {
                    ("kind", spec.kind), ("paced", spec.rate_gbps is not None)
                }
            drawn = check_cell(cell)
            strict_draws += drawn[0]
            fast_draws += drawn[1]
        assert seen == (
            {("platform", name) for name in _PLATFORMS}
            | {("gate", gate) for gate in GATES}
            | {(axis, flag) for axis in ("jitter", "fault", "paced")
               for flag in (False, True)}
            | {("kind", "dram"), ("kind", "cxl")}
        )
        # The sweep exercises the rule: most zero-delay events skip.
        assert fast_draws < 0.7 * strict_draws

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_property(self, data):
        check_cell(build_cell(lambda options: data.draw(
            st.sampled_from(list(options))
        )))


def _strict_in(monkeypatch, *modules):
    """Make each module build strict environments (the reference loop);
    returns the list of environments built, so a test can see it took."""
    made = []

    def strict_environment(*args, **kwargs):
        made.append(Environment(*args, **dict(kwargs, strict=True)))
        return made[-1]

    for module in modules:
        monkeypatch.setattr(module, "Environment", strict_environment)
    return made


class TestExperimentCellsMatchStrict:
    """The cells the benchmarks and artifacts run, both ways."""

    @pytest.mark.parametrize("arm", netstack.ARMS)
    @pytest.mark.parametrize("name", sorted(_PLATFORMS))
    def test_netstack_des_arm(self, monkeypatch, name, arm):
        run = partial(
            netstack.run_point, _PLATFORMS[name], arm, "des", seed=1,
            transactions_per_core=40,
        )
        fast = run()
        made = _strict_in(monkeypatch, netstack)
        assert repr(run()) == repr(fast)
        assert len(made) == 1

    @pytest.mark.parametrize("recover", [False, True])
    def test_chaos_recovery_point(self, monkeypatch, recover):
        run = partial(
            chaos.run_recovery_point, _PLATFORMS["7302"], "des", recover,
            seed=0, transactions_per_core=150,
        )
        fast = run()
        made = _strict_in(monkeypatch, chaos)
        assert repr(run()) == repr(fast)
        assert len(made) == 1

    def test_fig3_panels(self, monkeypatch):
        from repro.core import microbench

        platform = _PLATFORMS["9634"]
        configs = fig3.panel_configs(platform)[:2]

        def run():
            return [
                fig3.render([fig3.run_panel(
                    platform, config, op, transactions_per_core=12, seed=1,
                )])
                for config in configs
                for op in (OpKind.READ, OpKind.NT_WRITE)
            ]

        fast = run()
        made = _strict_in(monkeypatch, microbench)
        assert run() == fast
        assert made


class TestSleepsBuildNoTimeout:
    """Processes sleep by yielding their delay (see the ordering contract
    in ``repro.sim.engine``), so a plain closed-loop cell builds no
    :class:`Timeout`, however many transactions it runs."""

    def test_a_plain_closed_loop_cell(self, monkeypatch):
        built = []
        init = Timeout.__init__

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Timeout, "__init__", counted)
        platform = _PLATFORMS["7302"]
        cores = tuple(core.core_id for core in platform.cores_of_ccd(0))
        counts = []
        for per_core in (20, 80):
            built.clear()
            # Paced: the lanes also sleep between pacing slots.
            result = MicroBench(platform).loaded_latency(
                cores, OpKind.READ, 20.0, transactions_per_core=per_core,
            )
            assert result.achieved_gbps > 0
            counts.append(len(built))
        assert counts == [0, 0]


class TestRuleEdges:
    def test_fires_next_only_inside_a_non_strict_run(self):
        for strict in (False, True):
            env = Environment(strict=strict)
            seen = []

            def probe():
                seen.append(env.fires_next())
                yield env.timeout(1.0)
                seen.append(env.fires_next())

            env.process(probe())
            assert not env.fires_next()
            env.run()
            assert not env.fires_next()
            assert seen == ([False, False] if strict else [True, True])

    def test_free_grant_skips_the_queue_when_nothing_else_is_due(self):
        env = Environment()
        res = Resource(env, capacity=1)
        pool = TokenPool(env, 1)
        seen = []

        def proc():
            yield env.timeout(2.0)
            grant, token = res.request(), pool.acquire()
            seen.append((grant.processed, token.processed, env._sequence))
            yield grant
            yield token

        env.process(proc())
        env.run()
        # Bootstrap and timeout drew 1 and 2; the grants drew nothing.
        assert seen == [(True, True, 2)]

    def test_grant_stays_queued_when_another_event_is_due_now(self):
        def scenario(strict):
            env = Environment(strict=strict)
            res = Resource(env, capacity=1)
            pool = TokenPool(env, 1)
            log = []

            def requester():
                yield env.timeout(5.0)
                grant, token = res.request(), pool.acquire()
                log.append(("queued", grant.processed, token.processed))
                yield grant
                yield token
                log.append(("granted", env.now))

            def other():
                yield env.timeout(5.0)
                log.append(("other", env.now))

            env.process(requester())
            env.process(other())
            env.run()
            return log

        assert scenario(False) == scenario(True) == [
            ("queued", False, False), ("other", 5.0), ("granted", 5.0),
        ]

    def test_nothing_runs_inline_while_a_multi_callback_event_fires(self):
        def scenario(strict):
            env = Environment(strict=strict)
            res = Resource(env, capacity=2)
            shared = env.timeout(3.0)
            log = []

            def waiter(name):
                yield shared
                grant = res.request()
                log.append((name, "requested", grant.processed))
                yield grant
                log.append((name, "granted"))
                done = env.process(child(name))
                yield done
                log.append((name, "joined"))

            def child(name):
                log.append((name, "child"))
                yield env.timeout(0.0)

            env.process(waiter("a"))
            env.process(waiter("b"))
            env.run()
            return log

        fast = scenario(False)
        assert fast == scenario(True)
        assert fast[:4] == [
            ("a", "requested", False), ("b", "requested", False),
            ("a", "granted"), ("b", "granted"),
        ]

    def test_completion_with_one_waiter_is_in_place_and_two_are_queued(self):
        def scenario(strict, waiters):
            env = Environment(strict=strict)
            log = []

            def child():
                yield env.timeout(1.0)
                log.append(("child done", env._sequence))

            def parent(name, proc):
                value = yield proc
                log.append((name, env.now, value, env._sequence))

            proc = env.process(child())
            for name in waiters:
                env.process(parent(name, proc))
            env.run()
            return log

        for waiters in (["p"], ["p", "q"]):
            fast, strict = scenario(False, waiters), scenario(True, waiters)
            assert [entry[:3] for entry in fast] == [
                entry[:3] for entry in strict
            ]
        # One waiter: the completion draws no sequence number.
        (__, drawn), (__, __, __, seen) = scenario(False, ["p"])
        assert seen == drawn
        # Two waiters: it is queued (one draw) and fires for both.
        (__, drawn), first, second = scenario(False, ["p", "q"])
        assert first[-1] == drawn + 1
        assert first[:2] == ("p", 1.0) and second[:2] == ("q", 1.0)

    def test_completion_stays_queued_when_another_event_is_due_now(self):
        def scenario(strict):
            env = Environment(strict=strict)
            log = []

            def child():
                yield env.timeout(2.0)

            def parent(proc):
                yield proc
                log.append("parent")

            def other():
                yield env.timeout(2.0)
                log.append("other")

            proc = env.process(child())
            env.process(parent(proc))
            env.process(other())
            env.run()
            return log

        assert scenario(False) == scenario(True) == ["other", "parent"]

    def test_lane_issue_waits_behind_an_event_due_at_the_same_time(self):
        # An intruder's zero timeout is queued after the lane's bootstrap
        # and before the lane reaches its first issue, so it must take the
        # shared link first: a process per transaction would have queued
        # its bootstrap behind it.
        def scenario(strict):
            env = Environment(strict=strict)
            link = LinkArbiter(
                env, LinkSpec("link", LinkKind.IF, 0.0, 6.4, 6.4)
            )  # 64 B take 10 ns
            path = CompiledPath(
                "p", 0.0, [QueuedStage("link", link)], [], 10.0
            )
            issuer = ClosedLoopIssuer(
                env, TransactionExecutor(env), (path,),
                OpKind.READ, window=1, count_per_worker=2,
                warmup_fraction=0.0,
            )
            done = issuer.start()
            held = []

            def intruder():
                yield env.timeout(0.0)
                yield from link.transfer(64, is_write=False)
                held.append(env.now)

            env.process(intruder())
            env.run(done)
            return issuer.result().stats, held

        (stats, held) = scenario(False)
        assert (stats, held) == scenario(True)
        assert held == [10.0] and (stats.maximum, stats.minimum) == (20.0, 10.0)

    def test_awaited_event_is_not_run_past(self):
        # run(until=event) stops right after the event fires; its waiter
        # must not run on past it, in place or through a free grant.
        def scenario(strict):
            env = Environment(strict=strict)
            res = Resource(env, capacity=1)
            log = []

            def child():
                yield env.timeout(1.0)

            def waiter(proc):
                yield proc
                grant = res.request()
                log.append("requested")
                yield grant
                log.append("granted")

            proc = env.process(child())
            env.process(waiter(proc))
            env.run(until=proc)
            stopped = list(log)
            env.run()
            return stopped, log

        assert scenario(False) == scenario(True) == (
            ["requested"], ["requested", "granted"]
        )

    def test_a_run_that_raised_leaves_the_next_run_correct(self):
        def scenario(strict):
            env = Environment(strict=strict)
            res = Resource(env, capacity=1)
            shared = env.event()
            log, skipped = [], []

            def boom(event):
                raise RuntimeError("boom")

            def user(name, delay):
                yield env.timeout(delay)
                grant = res.request()
                skipped.append((name, grant.processed))
                with grant:
                    yield grant
                    yield env.timeout(1.0)
                log.append((name, env.now))

            # The raise escapes while a two-callback event fires, with the
            # rule switched off for its callbacks.
            shared.callbacks += [boom, lambda event: None]
            shared.succeed()
            with pytest.raises(RuntimeError, match="boom"):
                env.run()
            log.append(("after raise", env.fires_next()))
            env.process(user("a", 1.0))
            env.process(user("b", 1.5))
            env.run()
            return log, skipped

        fast, skipped = scenario(False)
        strict, queued = scenario(True)
        assert fast == strict == [
            ("after raise", False), ("a", 2.0), ("b", 3.0),
        ]
        # The next run switched the rule back on: "a" found the slot free
        # with nothing else due and was granted in place.
        assert skipped == [("a", True), ("b", False)]
        assert queued == [("a", False), ("b", False)]

    def test_store_put_and_fired_events(self):
        from repro.sim.engine import Store, fired

        env = Environment()
        event = fired(env, 7)
        assert isinstance(event, Event)
        assert event.triggered and event.processed and event.value == 7
        done = Store(env).put("x")
        assert done.processed and done.value == "x"

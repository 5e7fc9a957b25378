"""Tests for the transaction layer: messages, paths, execution."""

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.faults.inject import install
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.memory.cxl import CxlDeviceModel, wire_bytes
from repro.memory.umc import UmcServer
from repro.noc.arbiter import LinkArbiter
from repro.noc.flowcontrol import TokenPool
from repro.platform.numa import Position
from repro.platform.presets import epyc_7302, epyc_9634
from repro.sim.engine import Environment, Resource
from repro.trace import Tracer, assert_tiles
from repro.transport.message import OpKind, Transaction
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE, CXL_FLIT_LARGE, CXL_FLIT_SMALL


class TestTransaction:
    def test_defaults(self):
        txn = Transaction(OpKind.READ)
        assert txn.size_bytes == CACHELINE
        assert not txn.op.is_write

    def test_nt_write_is_write(self):
        assert OpKind.NT_WRITE.is_write
        assert OpKind.WRITE.is_write
        assert not OpKind.READ.is_write

    def test_ids_are_unique(self):
        a = Transaction(OpKind.READ)
        b = Transaction(OpKind.READ)
        assert a.txn_id != b.txn_id

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            Transaction(OpKind.READ, size_bytes=0)

    def test_latency_before_completion_raises(self):
        with pytest.raises(ConfigurationError):
            __ = Transaction(OpKind.READ).latency_ns

    def test_latency(self):
        txn = Transaction(OpKind.READ)
        txn.issued_ns = 10.0
        txn.completed_ns = 150.0
        assert txn.latency_ns == pytest.approx(140.0)


class TestPathCompilation:
    def test_unloaded_dram_latency_preserved(self, platform):
        # The compiled path's fixed latency plus unloaded stage service must
        # equal the analytic path latency exactly.
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path = resolver.dram_path(0, near)
        service = sum(
            stage.unloaded_service_ns(CACHELINE, False) for stage in path.stages
        )
        assert path.fixed_ns + service == pytest.approx(path.unloaded_ns)
        assert path.unloaded_ns == pytest.approx(
            platform.dram_latency_ns(0, near)
        )

    def test_cxl_path_unloaded_latency(self, p9634):
        env = Environment()
        resolver = PathResolver(env, p9634, with_dram_jitter=False)
        path = resolver.cxl_path(0)
        assert path.unloaded_ns == pytest.approx(243.0, abs=1.0)

    def test_cxl_path_on_7302_raises(self, p7302):
        env = Environment()
        resolver = PathResolver(env, p7302)
        with pytest.raises(TopologyError):
            resolver.cxl_path(0)

    def test_paths_share_des_elements(self, platform):
        env = Environment()
        resolver = PathResolver(env, platform)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path_a = resolver.dram_path(0, near)
        path_b = resolver.dram_path(1, near)
        # Same CCX/CCD: the IF arbiter and token pool objects are shared.
        assert path_a.stages[0].server is path_b.stages[0].server
        assert path_a.tokens[0] is path_b.tokens[0]

    def test_token_pools_optional(self, platform):
        env = Environment()
        resolver = PathResolver(env, platform)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path = replace(resolver.dram_path(0, near), tokens=[])
        assert path.tokens == []

    def test_ccd_pool_presence_matches_platform(self, p7302, p9634):
        env7, env9 = Environment(), Environment()
        r7 = PathResolver(env7, p7302)
        r9 = PathResolver(env9, p9634)
        near7 = p7302.umcs_at(0, Position.NEAR)[0].umc_id
        near9 = p9634.umcs_at(0, Position.NEAR)[0].umc_id
        assert len(r7.dram_path(0, near7).tokens) == 2  # CCX + CCD
        assert len(r9.dram_path(0, near9).tokens) == 1  # CCX only


class TestExecution:
    def test_unloaded_execution_matches_analytic(self, platform):
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path = resolver.dram_path(0, near)
        txn = Transaction(OpKind.READ)
        env.run(env.process(executor.execute(txn, path)))
        assert txn.latency_ns == pytest.approx(path.unloaded_ns)

    def test_tokens_released_after_completion(self, platform):
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path = resolver.dram_path(0, near)
        env.run(env.process(executor.execute(Transaction(OpKind.READ), path)))
        for pool in path.tokens:
            assert pool.in_use == 0

    def test_latency_samples_by_flow(self, platform):
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path = resolver.dram_path(0, near)
        for flow_id in (1, 1, 2):
            txn = Transaction(OpKind.READ, flow_id=flow_id)
            env.process(executor.execute(txn, path))
        env.run()
        assert len(executor.latencies_ns()) == 3
        assert len(executor.latencies_ns(flow_id=1)) == 2
        executor.reset()
        assert executor.latencies_ns() == []

    def test_concurrent_transactions_queue(self, platform):
        env = Environment()
        resolver = PathResolver(env, platform, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        near = platform.umcs_at(0, Position.NEAR)[0].umc_id
        path = resolver.dram_path(0, near)
        for __ in range(50):
            env.process(executor.execute(Transaction(OpKind.READ), path))
        env.run()
        latencies = executor.latencies_ns()
        # Later transactions queue behind earlier ones somewhere on the path.
        assert max(latencies) > min(latencies)
        assert min(latencies) == pytest.approx(path.unloaded_ns)


# ----------------------------------------------------- reference executor
#
# The nested generator chain the flat executor loop replaced, kept as its
# oracle: execute -> QueuedStage.serve -> LinkArbiter.transfer ->
# _DirectionServer.transfer for links, or -> UmcServer.access /
# CxlDeviceModel.access for the memory devices, each with its own copy of
# the service body. It drives the same DES elements, so the two executors
# must leave identical results, books, counters and RNG states behind.


def _reference_direction_transfer(direction, size_bytes):
    with Resource.request(direction) as grant:
        backlog = direction.queue_length
        if backlog > direction.max_queue_len:
            direction.max_queue_len = backlog
        yield grant
        service = size_bytes / (direction.gbps / direction.capacity)
        direction.busy_ns += service
        direction.bytes_served += size_bytes
        yield direction.env.timeout(service)


def _reference_link_transfer(arbiter, size_bytes, is_write):
    direction = arbiter.write_dir if is_write else arbiter.read_dir
    yield from _reference_direction_transfer(direction, size_bytes)


def _reference_device_access(device, size_bytes, is_write, accesses):
    accesses[device.name] = accesses.get(device.name, 0) + 1
    if isinstance(device, CxlDeviceModel):
        size_bytes = wire_bytes(size_bytes, device.flit_bytes)
    direction = device.arbiter.write_dir if is_write else device.arbiter.read_dir
    with Resource.request(direction) as grant:
        yield grant
        service = size_bytes / (direction.gbps / direction.capacity)
        if direction.jitter is not None:
            timing, rng = direction.jitter
            service += timing.sample_extra_ns(rng)
        direction.busy_ns += service
        direction.bytes_served += size_bytes
        yield direction.env.timeout(service)


def _reference_serve(stage, size_bytes, is_write, accesses):
    if isinstance(stage.server, LinkArbiter):
        yield from _reference_link_transfer(stage.server, size_bytes, is_write)
    elif isinstance(stage.server, (UmcServer, CxlDeviceModel)):
        yield from _reference_device_access(
            stage.server, size_bytes, is_write, accesses
        )
    else:
        raise TopologyError(f"stage {stage.name}: unsupported server type")


class ReferenceExecutor(TransactionExecutor):
    """The untraced executor as the nested chain ran it."""

    def __init__(self, env, accesses, **kwargs):
        super().__init__(env, **kwargs)
        #: Device name -> accesses served (the devices' old counters).
        self.accesses = accesses

    def execute(self, txn, path):
        txn.issued_ns = self.env.now
        self.bytes_injected += txn.size_bytes
        self.bytes_in_flight += txn.size_bytes
        for pool in path.tokens:
            yield pool.acquire()
        try:
            for stage in path.stages:
                yield from _reference_serve(
                    stage, txn.size_bytes, txn.op.is_write, self.accesses
                )
            yield self.env.timeout(path.fixed_ns)
        finally:
            for pool in reversed(path.tokens):
                pool.release()
        txn.completed_ns = self.env.now
        self.bytes_in_flight -= txn.size_bytes
        self.bytes_delivered += txn.size_bytes
        self.completed.append(txn)
        return txn


# ------------------------------------------------------ random DES cells


def _mixed_flit_9634():
    """A 9634 whose CXL device 0 speaks 68 B FLITs and device 1 256 B."""
    platform = epyc_9634()
    platform.cxl_devices[0] = replace(
        platform.cxl_devices[0], flit_bytes=CXL_FLIT_SMALL
    )
    platform.cxl_devices[1] = replace(
        platform.cxl_devices[1], flit_bytes=CXL_FLIT_LARGE
    )
    return platform


_PLATFORMS = {"7302": epyc_7302(), "9634": _mixed_flit_9634()}

#: ``pick(options)`` returns one element of the sequence ``options``.
Pick = Callable[[Sequence], object]


@dataclass(frozen=True)
class IssuerSpec:
    """One issuer: ``lanes`` closed loops of ``count`` transactions each."""

    kind: str  # dram | cxl | dma
    core: int
    target: int
    op: OpKind
    size: int
    lanes: int
    count: int
    #: Pacing: each lane waits this long before every issue (None: off).
    interval_ns: Optional[float]
    #: Indices of the cell's token pools this issuer's path claims.
    pools: Tuple[int, ...]


@dataclass(frozen=True)
class CellSpec:
    platform: str
    jitter: bool
    seed: int
    #: Capacities of the token pools the issuers' paths claim, in order.
    pools: Tuple[int, ...]
    issuers: Tuple[IssuerSpec, ...]
    #: (derate stage, start, end, factor, stall stage, start, end) or None.
    fault: Optional[tuple]


def build_cell(pick: Pick) -> CellSpec:
    """Draw one DES cell whose issuers share stages, pools and devices."""
    name = pick(["7302", "9634"])
    platform = _PLATFORMS[name]
    # Cores of the first two CCDs: issuers share IF/GMI ports and the NoC.
    cores = [c for c in sorted(platform.cores) if platform.core(c).ccd_id < 2]
    kinds = ["dram", "dma"] + (["cxl"] if platform.cxl_devices else [])
    pools = tuple(pick([1, 2, 4]) for __ in range(pick(range(3))))
    issuers = []
    for __ in range(pick(range(1, 5))):
        kind = pick(kinds)
        issuers.append(IssuerSpec(
            kind=kind,
            core=pick(cores),
            target=pick([0, 1]),
            op=pick([OpKind.READ, OpKind.NT_WRITE]),
            size=pick(range(8, 4097)),
            lanes=pick(range(1, 4)),
            count=pick(range(1, 7)),
            interval_ns=pick([None, 3.0, 25.0]),
            pools=tuple(i for i in range(len(pools)) if pick([True, False])),
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
        pools=pools,
        issuers=tuple(issuers),
        fault=fault,
    )


def _compile(resolver, spec: IssuerSpec):
    if spec.kind in ("dram", "cxl"):
        compile_path = (
            resolver.dram_path if spec.kind == "dram" else resolver.cxl_path
        )
        path = compile_path(
            spec.core, spec.target, op=spec.op, size_bytes=spec.size
        )
        return replace(path, tokens=[])
    return resolver.dma_path(0, spec.target, op=spec.op, size_bytes=spec.size)


def _channel(stage, is_write: bool) -> str:
    """The fault-schedule channel name of a path stage."""
    base = (
        stage.name.replace("hubport/", "hub/")
        .replace("/ccd", "").replace("/rc", "").replace("/", "")
    )
    return f"{base}:{'w' if is_write else 'r'}"


def _fault_schedule(cell: CellSpec, paths) -> FaultSchedule:
    """A derate plus a stall on stages the first issuer's path crosses."""
    stages = paths[0].stages
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


def run_cell(cell: CellSpec, reference: bool = False, traced: bool = False):
    """Run ``cell`` on a fresh environment; returns everything it left."""
    env = Environment()
    tracer = Tracer(env) if traced else None
    resolver = PathResolver(
        env, _PLATFORMS[cell.platform], seed=cell.seed,
        with_dram_jitter=cell.jitter,
    )
    pools = [
        TokenPool(env, capacity, name=f"pool{index}")
        for index, capacity in enumerate(cell.pools)
    ]
    paths = [
        replace(
            _compile(resolver, spec), tokens=[pools[i] for i in spec.pools]
        )
        for spec in cell.issuers
    ]
    if cell.fault is not None:
        install(resolver, _fault_schedule(cell, paths))
    accesses = {}
    executors = [
        ReferenceExecutor(env, accesses, flow=f"i{index}") if reference
        else TransactionExecutor(env, strict=True, flow=f"i{index}")
        for index in range(len(cell.issuers))
    ]

    def lane(executor, path, spec, lane_id):
        for __ in range(spec.count):
            if spec.interval_ns is not None:
                yield env.timeout(spec.interval_ns)
            txn = Transaction(spec.op, spec.size, src_core=lane_id)
            yield env.process(executor.execute(txn, path))

    for executor, path, spec in zip(executors, paths, cell.issuers):
        for lane_id in range(spec.lanes):
            env.process(lane(executor, path, spec, lane_id))
    env.run()

    servers = {}
    for path in paths:
        for stage in path.stages:
            servers.setdefault(stage.name, stage.server)
    directions, devices = [], []
    for name, server in servers.items():
        for tag, direction in (("r", server.read_dir), ("w", server.write_dir)):
            directions.append((
                name, tag, direction.busy_ns, direction.bytes_served,
                direction.max_queue_len if isinstance(server, LinkArbiter)
                else None,
            ))
        if not isinstance(server, LinkArbiter):
            jitter = server.read_dir.jitter
            devices.append((
                name,
                accesses.get(name, 0) if reference else server.accesses,
                jitter[1].bit_generator.state if jitter is not None else None,
            ))
    for executor in executors:
        executor.assert_conserved()
    outcome = {
        "txns": [
            [(t.src_core, t.issued_ns, t.completed_ns) for t in ex.completed]
            for ex in executors
        ],
        "directions": directions,
        "devices": devices,
        "pools": [
            (p.max_wait_ns, p.total_wait_ns, p.acquired_count) for p in pools
        ],
        "now": env.now,
    }
    return outcome, tracer


def check_cell(cell: CellSpec) -> None:
    """The flat loop (untraced and traced) reproduces the nested chain."""
    expected, __ = run_cell(cell, reference=True)
    flat, __ = run_cell(cell)
    assert flat == expected
    traced, tracer = run_cell(cell, traced=True)
    assert traced == expected
    recording = tracer.recording()
    assert recording.dropped_open == 0
    issued = sum(spec.lanes * spec.count for spec in cell.issuers)
    assert assert_tiles(recording) == issued


class TestFlatLoopMatchesNestedChain:
    def test_seeded_sweep(self):
        rng = random.Random(0)
        kinds = set()
        for __ in range(320):
            cell = build_cell(rng.choice)
            kinds.update(spec.kind for spec in cell.issuers)
            check_cell(cell)
        assert kinds == {"dram", "cxl", "dma"}

    def test_devices_own_their_framing_and_jitter(self, p9634):
        env = Environment()
        resolver = PathResolver(env, _PLATFORMS["9634"])
        umc, cxl = resolver.umc_server(0), resolver.cxl_device(1)
        assert umc.read_dir.jitter is umc.write_dir.jitter is not None
        assert umc.read_dir.frame is None
        assert cxl.write_dir.frame(64) == wire_bytes(64, CXL_FLIT_LARGE)
        assert cxl.read_dir.jitter is not None
        link = resolver.noc_arbiter()
        assert link.read_dir.frame is None and link.read_dir.jitter is None
        plain = PathResolver(env, p9634, with_dram_jitter=False)
        assert plain.umc_server(0).read_dir.jitter is None

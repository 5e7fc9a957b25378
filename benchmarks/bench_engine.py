"""Engineering benchmarks: raw throughput of the simulation engines.

These are genuine performance measurements (pytest-benchmark statistics,
multiple rounds) for the hot paths everything else is built on: the DES
event loop, resource arbitration, the fluid solver, and transaction
execution. Regressions here slow every experiment in the repository.
"""

from repro.fluid.solver import Channel, FluidFlow, solve
from repro.platform.numa import Position
from repro.sim.engine import Environment, Resource
from repro.transport.message import OpKind, Transaction
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor


def bench_des_timeout_throughput(benchmark):
    """Schedule-and-fire rate of bare timeout events."""

    def run():
        env = Environment()

        def ticker():
            for __ in range(2000):
                yield env.timeout(1.0)

        env.run(env.process(ticker()))
        return env.now

    assert benchmark(run) == 2000.0


def bench_des_sleep_throughput(benchmark):
    """Schedule-and-fire rate of sleeps: the same ticker yielding its delay."""

    def run():
        env = Environment()

        def ticker():
            for __ in range(2000):
                yield 1.0

        env.run(env.process(ticker()))
        return env.now

    assert benchmark(run) == 2000.0


def bench_des_resource_contention(benchmark):
    """FIFO arbitration with heavy queueing."""

    def run():
        env = Environment()
        resource = Resource(env, capacity=2)

        def worker():
            for __ in range(50):
                with resource.request() as grant:
                    yield grant
                    yield env.timeout(1.0)

        for __ in range(16):
            env.process(worker())
        env.run()
        return env.now

    benchmark(run)


def bench_transaction_execution(benchmark, p9634):
    """Full compiled-path transactions through the shared fabric."""

    def run():
        env = Environment()
        resolver = PathResolver(env, p9634, with_dram_jitter=False)
        executor = TransactionExecutor(env)
        near = p9634.umcs_at(0, Position.NEAR)[0].umc_id
        path = resolver.dram_path(0, near)
        for __ in range(300):
            env.process(executor.execute(Transaction(OpKind.READ), path))
        env.run()
        return len(executor.completed)

    assert benchmark(run) == 300


def bench_fluid_solver_scaling(benchmark):
    """Demand-proportional solve over a CPU-sized flow set."""
    shared = Channel("noc", 366.2)
    channels = [Channel(f"gmi{i}", 35.2) for i in range(12)]

    def run():
        flows = []
        for i in range(48):
            flow = FluidFlow(f"f{i}", 30.0)
            flow.add(channels[i % 12])
            flow.add(shared)
            flows.append(flow)
        return solve(flows)

    allocation = benchmark(run)
    assert sum(allocation.values()) <= 366.2 * (1 + 1e-9)

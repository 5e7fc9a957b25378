#!/usr/bin/env python3
"""The chiplet-network device tree — the paper's §4 direction #1, running.

Exports the hardware description the paper proposes for
``/sys/firmware/chiplet-net`` and, after replaying a short workload through
the transaction-level simulator, the runtime per-link telemetry report it
proposes for ``/proc/chiplet-net``.

Run:  python examples/chiplet_devtree.py
"""

from dataclasses import replace

from repro import OpKind, StreamSpec, epyc_9634
from repro.core.fabric import FabricModel
from repro.core.loadgen import lower_stream
from repro.platform.numa import Position
from repro.sim.engine import Environment
from repro.telemetry.counters import CounterRegistry
from repro.telemetry.devtree import build_devtree, proc_chiplet_net, render_dts
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor


def main() -> None:
    platform = epyc_9634()

    print("== /sys/firmware/chiplet-net (static hardware description) ==\n")
    text = render_dts(build_devtree(platform))
    lines = text.splitlines()
    print("\n".join(lines[:40]))
    print(f"\t... ({len(lines) - 40} more lines)")

    # Replay a mixed workload: CCD0 streams reads to its near DIMMs while
    # CCD1 writes to CXL, then read the fabric's counters back out.
    env = Environment()
    resolver = PathResolver(env, platform, seed=3)
    executor = TransactionExecutor(env)
    near = [u.umc_id for u in platform.umcs_at(0, Position.NEAR)]
    ccd0, ccd1 = (
        tuple(core.core_id for core in platform.cores_of_ccd(ccd_id))
        for ccd_id in (0, 1)
    )
    reads = StreamSpec("reads", OpKind.READ, ccd0, endpoints=tuple(near))
    writes = StreamSpec("writes", OpKind.NT_WRITE, ccd1, target="cxl")
    # An empty endpoint set is the default interleave (every CXL device).
    writes = replace(
        writes, endpoints=FabricModel(platform).endpoints_of(writes)
    )
    readers = lower_stream(
        env, executor, resolver, reads, window=8, count_per_worker=300,
    )
    writers = lower_stream(
        env, executor, resolver, writes, window=8, count_per_worker=300,
    )
    env.run(env.all_of([readers.start(), writers.start()]))

    # Read the fabric's own byte counters back into the telemetry registry.
    registry = CounterRegistry()
    elapsed = env.now
    utilizations = {}
    for ccd_id in (0, 1):
        for name, arbiter in (
            (f"if/ccd{ccd_id}", resolver.if_arbiter(ccd_id)),
            (f"gmi/ccd{ccd_id}", resolver.gmi_arbiter(ccd_id)),
        ):
            link = platform.link(name)
            counters = registry.attach(link)
            counters.read_bytes = arbiter.read_dir.bytes_served
            counters.write_bytes = arbiter.write_dir.bytes_served
            utilizations[f"{name}:r"] = arbiter.utilization(False, elapsed)
            utilizations[f"{name}:w"] = arbiter.utilization(True, elapsed)
    for umc_id in near:
        arbiter = resolver.umc_server(umc_id).arbiter
        counters = registry.attach(platform.link(f"umc{umc_id}"))
        counters.read_bytes = arbiter.read_dir.bytes_served
        counters.write_bytes = arbiter.write_dir.bytes_served
    for dev_id in range(4):
        arbiter = resolver.cxl_device(dev_id).arbiter
        counters = registry.attach(platform.link(f"cxldev{dev_id}"))
        counters.read_bytes = arbiter.read_dir.bytes_served
        counters.write_bytes = arbiter.write_dir.bytes_served

    print("\n== /proc/chiplet-net (runtime telemetry after the replay) ==\n")
    print(proc_chiplet_net(platform, registry, elapsed, utilizations))


if __name__ == "__main__":
    main()

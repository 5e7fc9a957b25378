"""DES driver for accelerator job dispatch.

One job runs six phases over the chiplet network:

1. **doorbell** — posted MMIO write from the host core (signal plane);
2. **descriptor fetch** — the device DMA-reads the 64 B command descriptor;
3. **input DMA** — the device DMA-reads the input buffer in chunks, several
   chunks in flight (the data plane crossing P Link → NoC → UMC);
4. **compute** — device-side kernel execution (launch overhead + streaming);
5. **output DMA** — chunked DMA writes of the results;
6. **completion** — the device DMA-writes a 64 B completion record that the
   polling host observes.

Every phase queues at the same arbiters background traffic uses, so
interference is emergent — the experiment behind the intra-host-switch
ablation.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, List, Optional

from repro.accel.device import AcceleratorJob, AcceleratorModel, JobTrace
from repro.errors import ConfigurationError
from repro.platform.numa import Position
from repro.platform.topology import Platform
from repro.sim.engine import Environment, Event
from repro.transport.message import OpKind, Transaction
from repro.transport.path import CompiledPath, PathResolver
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = ["DispatchSimulator", "bulk_transfer"]


def bulk_transfer(
    env: Environment,
    executor: TransactionExecutor,
    path_of_chunk: Callable[[int], CompiledPath],
    op: OpKind,
    total_bytes: int,
    chunk_bytes: int = 4096,
    window: int = 8,
) -> Generator[Event, None, float]:
    """DES process: move ``total_bytes`` in chunks with ``window`` in flight.

    Returns the elapsed time (ns). This is the DMA engine's behaviour: it
    pipelines chunk transfers, bounded by its outstanding-request window.
    """
    if total_bytes <= 0 or chunk_bytes <= 0 or window < 1:
        raise ConfigurationError("bulk transfer sizes must be positive")
    start = env.now
    chunks = math.ceil(total_bytes / chunk_bytes)

    def lane(lane_id: int) -> Generator[Event, None, None]:
        base, extra = divmod(chunks, window)
        quota = base + (1 if lane_id < extra else 0)
        for i in range(quota):
            remaining = total_bytes - (lane_id + i * window) * chunk_bytes
            size = max(1, min(chunk_bytes, remaining))
            txn = Transaction(op, size_bytes=size)
            yield env.process(
                executor.execute(txn, path_of_chunk(lane_id + i * window))
            )

    lanes = [env.process(lane(i)) for i in range(min(window, chunks))]
    yield env.all_of(lanes)
    return env.now - start


class DispatchSimulator:
    """Dispatches accelerator jobs through the simulated chiplet network."""

    def __init__(
        self,
        env: Environment,
        platform: Platform,
        accelerator: AcceleratorModel,
        resolver: Optional[PathResolver] = None,
        chunk_bytes: int = 4096,
        dma_window: int = 16,
        seed: int = 0,
    ) -> None:
        if accelerator.pcie_dev_id not in platform.pcie_devices:
            raise ConfigurationError(
                f"{platform.name} has no PCIe device "
                f"{accelerator.pcie_dev_id} for {accelerator.name}"
            )
        self.env = env
        self.platform = platform
        self.accelerator = accelerator
        self.resolver = resolver or PathResolver(env, platform, seed=seed)
        self.executor = TransactionExecutor(env)
        self.chunk_bytes = chunk_bytes
        self.dma_window = dma_window
        # DMA buffers live in the hub-near NUMA domain.
        hub = platform.io_hubs[0]
        self._dma_umcs = sorted(
            umc.umc_id
            for umc in platform.umcs.values()
        )
        self.traces: List[JobTrace] = []

    def _dma_path(self, index: int, op: OpKind, size: int) -> CompiledPath:
        umc_id = self._dma_umcs[index % len(self._dma_umcs)]
        return self.resolver.dma_path(
            self.accelerator.pcie_dev_id, umc_id, op=op, size_bytes=size
        )

    def dispatch(self, job: AcceleratorJob) -> Generator[Event, None, JobTrace]:
        """DES process: run one job end to end; returns its trace."""
        env = self.env
        dev_id = self.accelerator.pcie_dev_id
        trace = JobTrace(start_ns=env.now)

        # 1. Doorbell (posted MMIO write from the host core).
        mark = env.now
        doorbell = self.resolver.doorbell_path(job.host_core, dev_id)
        yield env.process(
            self.executor.execute(Transaction(OpKind.NT_WRITE, 8), doorbell)
        )
        trace.phases["doorbell"] = env.now - mark

        # 2. Descriptor fetch (device DMA-reads the 64 B command).
        mark = env.now
        descriptor = self._dma_path(0, OpKind.READ, CACHELINE)
        yield env.process(
            self.executor.execute(
                Transaction(OpKind.READ, CACHELINE), descriptor
            )
        )
        trace.phases["descriptor_fetch"] = env.now - mark

        # 3. Input DMA (chunked, pipelined).
        mark = env.now
        yield env.process(
            bulk_transfer(
                env, self.executor,
                lambda i: self._dma_path(i, OpKind.READ, self.chunk_bytes),
                OpKind.READ, job.bytes_in, self.chunk_bytes, self.dma_window,
            )
        )
        trace.phases["input_dma"] = env.now - mark

        # 4. Compute.
        mark = env.now
        yield self.accelerator.kernel_time_ns(job.bytes_in)
        trace.phases["compute"] = env.now - mark

        # 5. Output DMA.
        mark = env.now
        yield env.process(
            bulk_transfer(
                env, self.executor,
                lambda i: self._dma_path(i, OpKind.NT_WRITE, self.chunk_bytes),
                OpKind.NT_WRITE, job.bytes_out, self.chunk_bytes,
                self.dma_window,
            )
        )
        trace.phases["output_dma"] = env.now - mark

        # 6. Completion record (device DMA-write; the polling host sees it
        #    one local DRAM access later).
        mark = env.now
        completion = self._dma_path(0, OpKind.NT_WRITE, CACHELINE)
        yield env.process(
            self.executor.execute(
                Transaction(OpKind.NT_WRITE, CACHELINE), completion
            )
        )
        host_ccd = self.platform.core(job.host_core).ccd_id
        yield self.platform.dram_latency_at(host_ccd, Position.NEAR)
        trace.phases["completion"] = env.now - mark

        trace.end_ns = env.now
        self.traces.append(trace)
        return trace

    def run_jobs(self, jobs: List[AcceleratorJob]) -> List[JobTrace]:
        """Dispatch jobs back to back and run the DES to completion."""

        def sequence() -> Generator[Event, None, None]:
            for job in jobs:
                yield self.env.process(self.dispatch(job))

        self.env.run(self.env.process(sequence()))
        return list(self.traces)

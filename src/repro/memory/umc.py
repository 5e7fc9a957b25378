"""Unified memory controller service model.

A UMC is the last queued stage before DRAM: it serializes cacheline transfers
at the per-channel rate (21.1/19.0 GB/s read/write on the 7302, 34.9/28.3 on
the 9634 — §3.3) and each access additionally suffers the DRAM timing jitter
of :class:`~repro.memory.dram.DramTimingModel`, which the channel's link
directions draw themselves (:mod:`repro.noc.arbiter`).
"""

from __future__ import annotations

from typing import Generator, Optional

import numpy as np

from repro.memory.dram import DramTimingModel
from repro.noc.arbiter import LinkArbiter
from repro.platform.interconnect import LinkKind, LinkSpec
from repro.sim.engine import Environment, Event

__all__ = ["UmcServer"]


class UmcServer:
    """DES element: one memory channel (UMC + its DIMM)."""

    def __init__(
        self,
        env: Environment,
        name: str,
        read_gbps: float,
        write_gbps: float,
        timing: Optional[DramTimingModel] = None,
        rng: Optional[np.random.Generator] = None,
        banks: int = 16,
    ) -> None:
        spec = LinkSpec(
            name, LinkKind.GMI, latency_ns=0.0,
            read_gbps=read_gbps, write_gbps=write_gbps,
        )
        # A DRAM channel overlaps accesses across banks; `banks` parallel
        # servers sharing the channel rate capture that pipelining.
        self.arbiter = LinkArbiter(env, spec, lanes=banks)
        self.read_dir = self.arbiter.read_dir
        self.write_dir = self.arbiter.write_dir
        if timing is not None and rng is not None:
            self.read_dir.jitter = self.write_dir.jitter = (timing, rng)
        self.name = name

    @property
    def accesses(self) -> int:
        """Accesses served so far, both directions."""
        return self.read_dir.transfers + self.write_dir.transfers

    def access(self, size_bytes: int, is_write: bool) -> Generator[Event, None, None]:
        """DES process fragment: serve one access (queueing + jitter)."""
        return self.arbiter.transfer(size_bytes, is_write)

    def achieved_gbps(self, is_write: bool, elapsed_ns: float) -> float:
        """Average delivered bandwidth on one direction."""
        return self.arbiter.achieved_gbps(is_write, elapsed_ns)

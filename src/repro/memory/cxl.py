"""CXL Type-3 memory device model.

CXL.mem transactions are "encoded as the FLIT size (68/256B)" (§2.3): a
cacheline request is framed into fixed-size FLITs before crossing the P Link
and CXL lanes, so the *wire* bytes exceed the payload bytes. The 68 B FLIT
carries one 64 B cacheline (~6 % overhead); the 256 B FLIT of CXL 3.x carries
236 B of slots (~8 % overhead amortized over multiple lines).

:class:`CxlDeviceModel` combines FLIT framing, the device's sustained-rate
ceiling, and DRAM-style timing jitter of the media behind the controller;
its link directions apply the framing and draw the jitter themselves.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Generator, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.dram import DramTimingModel
from repro.noc.arbiter import LinkArbiter
from repro.platform.interconnect import LinkKind, LinkSpec
from repro.sim.engine import Environment, Event
from repro.units import CXL_FLIT_LARGE, CXL_FLIT_SMALL

__all__ = ["wire_bytes", "CxlDeviceModel"]

#: Payload capacity of each FLIT size (bytes).
_FLIT_PAYLOAD = {CXL_FLIT_SMALL: 64, CXL_FLIT_LARGE: 236}


def wire_bytes(payload_bytes: int, flit_bytes: int = CXL_FLIT_LARGE) -> int:
    """Wire bytes needed to carry ``payload_bytes`` in fixed-size FLITs."""
    if payload_bytes <= 0:
        raise ConfigurationError(f"payload must be positive, got {payload_bytes}")
    try:
        payload_per_flit = _FLIT_PAYLOAD[flit_bytes]
    except KeyError:
        raise ConfigurationError(
            f"unsupported FLIT size {flit_bytes} (use {CXL_FLIT_SMALL} or "
            f"{CXL_FLIT_LARGE})"
        ) from None
    flits = math.ceil(payload_bytes / payload_per_flit)
    return flits * flit_bytes


class CxlDeviceModel:
    """DES element: one CXL memory expander behind a root complex."""

    def __init__(
        self,
        env: Environment,
        name: str,
        read_gbps: float,
        write_gbps: float,
        flit_bytes: int = CXL_FLIT_LARGE,
        timing: Optional[DramTimingModel] = None,
        rng: Optional[np.random.Generator] = None,
        banks: int = 16,
    ) -> None:
        if flit_bytes not in _FLIT_PAYLOAD:
            raise ConfigurationError(f"unsupported FLIT size {flit_bytes}")
        spec = LinkSpec(
            name, LinkKind.CXL, latency_ns=0.0,
            read_gbps=read_gbps, write_gbps=write_gbps,
        )
        self.arbiter = LinkArbiter(env, spec, lanes=banks)
        self.read_dir = self.arbiter.read_dir
        self.write_dir = self.arbiter.write_dir
        self.read_dir.frame = self.write_dir.frame = partial(
            wire_bytes, flit_bytes=flit_bytes
        )
        if timing is not None and rng is not None:
            self.read_dir.jitter = self.write_dir.jitter = (timing, rng)
        self.name = name
        self.flit_bytes = flit_bytes

    @property
    def accesses(self) -> int:
        """Accesses served so far, both directions."""
        return self.read_dir.transfers + self.write_dir.transfers

    def access(self, size_bytes: int, is_write: bool) -> Generator[Event, None, None]:
        """Serve one access; service time is charged on *wire* bytes."""
        return self.arbiter.transfer(size_bytes, is_write)

    def efficiency(self) -> float:
        """Payload/wire ratio of the configured FLIT framing."""
        return _FLIT_PAYLOAD[self.flit_bytes] / self.flit_bytes

    def achieved_payload_gbps(self, is_write: bool, elapsed_ns: float) -> float:
        """Delivered *payload* bandwidth (wire bandwidth × framing efficiency)."""
        raw = self.arbiter.achieved_gbps(is_write, elapsed_ns)
        return raw * self.efficiency()

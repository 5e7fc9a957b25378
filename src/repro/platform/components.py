"""Microarchitectural components of a chiplet server SoC.

The names follow AMD terminology used in the paper (Figure 1): CCD (Core
Complex Die, a compute chiplet), CCX (Core Complex, a sub-chiplet sharing an
L3 slice), UMC (Unified Memory Controller), GMI (Global Memory Interconnect
port), the I/O hub, the PCIe root complex, and CXL devices.

All components are frozen dataclasses; the mutable simulation state lives in
the simulators, not here. ``coord`` fields are stops on the I/O-die mesh
(see :mod:`repro.noc.mesh`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

Coord = Tuple[int, int]

__all__ = [
    "Core",
    "CCX",
    "CCD",
    "UMC",
    "DIMM",
    "IOHub",
    "RootComplex",
    "CXLDevice",
]


@dataclass(frozen=True)
class Core:
    """A CPU core with private L1/L2 caches."""

    core_id: int
    ccx_id: int
    ccd_id: int

    @property
    def name(self) -> str:
        return f"core{self.core_id}"


@dataclass(frozen=True)
class CCX:
    """A core complex: cores sharing one L3 slice."""

    ccx_id: int
    ccd_id: int
    core_ids: Tuple[int, ...]
    l3_slice_bytes: int

    @property
    def name(self) -> str:
        return f"ccx{self.ccx_id}"


@dataclass(frozen=True)
class CCD:
    """A compute chiplet; attaches to the I/O die via a GMI port at ``coord``."""

    ccd_id: int
    ccx_ids: Tuple[int, ...]
    coord: Coord

    @property
    def name(self) -> str:
        return f"ccd{self.ccd_id}"


@dataclass(frozen=True)
class UMC:
    """A unified memory controller (one DRAM channel) at a mesh stop."""

    umc_id: int
    coord: Coord

    @property
    def name(self) -> str:
        return f"umc{self.umc_id}"


@dataclass(frozen=True)
class DIMM:
    """An off-chip DRAM module attached to one UMC."""

    dimm_id: int
    umc_id: int
    capacity_bytes: int

    @property
    def name(self) -> str:
        return f"dimm{self.dimm_id}"


@dataclass(frozen=True)
class IOHub:
    """An I/O hub on the I/O die: the gateway from the mesh to device links."""

    hub_id: int
    coord: Coord

    @property
    def name(self) -> str:
        return f"iohub{self.hub_id}"


@dataclass(frozen=True)
class RootComplex:
    """A PCIe root complex hanging off an I/O hub (hosts P Links)."""

    rc_id: int
    hub_id: int

    @property
    def name(self) -> str:
        return f"rc{self.rc_id}"


@dataclass(frozen=True)
class PCIeDevice:
    """A generic PCIe endpoint (NIC, NVMe, accelerator) behind a root complex.

    MMIO reads to the device are non-posted (request + completion round
    trip); doorbell writes are posted (one way). DMA moves bulk data through
    the same P Link / hub path that CXL traffic uses.
    """

    dev_id: int
    rc_id: int
    kind: str = "nic"
    lanes: int = 16

    @property
    def name(self) -> str:
        return f"pcie{self.dev_id}"


@dataclass(frozen=True)
class CXLDevice:
    """A CXL Type-3 memory expander (e.g. Micron CZ120) behind a root complex.

    ``flit_bytes`` defaults to the 68 B protocol FLIT of CXL 1.1/2.0 devices
    (the Micron CZ120 of the paper's 9634 box); CXL 3.x devices use 256 B.
    """

    dev_id: int
    rc_id: int
    capacity_bytes: int
    flit_bytes: int = field(default=68)

    @property
    def name(self) -> str:
        return f"cxl{self.dev_id}"

"""Route resolution: from (core, target) to a compiled DES path.

A compiled path separates the two things that determine a transaction's
latency:

* ``fixed_ns`` — the load-independent propagation/pipeline latency (cache
  lookup, IF crossing, mesh hops, controller logic, DRAM/CXL media), summed
  exactly as :class:`~repro.platform.topology.LatencyParams` decomposes it;
* ``stages`` — the ordered *queued* resources (token pools, link serializers,
  the UMC/CXL device) where load-dependent delay arises.

So an unloaded transaction experiences ``fixed_ns`` plus each stage's service
time, which the compiler deducts from ``fixed_ns`` so that the unloaded DES
latency equals the platform's analytic latency; every extra nanosecond under
load is genuine emergent queueing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import TopologyError
from repro.memory.cxl import CxlDeviceModel
from repro.memory.dram import DramTimingModel
from repro.memory.umc import UmcServer
from repro.noc.arbiter import LinkArbiter, _DirectionServer
from repro.noc.flowcontrol import TokenPool, ccd_token_pool, ccx_token_pool
from repro.platform.topology import Platform
from repro.sim.engine import Environment
from repro.sim.rng import SplitRng
from repro.transport.message import OpKind
from repro.units import CACHELINE

__all__ = ["QueuedStage", "CompiledPath", "PathResolver"]


@dataclass(frozen=True)
class QueuedStage:
    """One queued resource on a path (an arbiter, UMC, or device).

    ``directions`` holds the server's ``(read_dir, write_dir)``, resolved
    once: a transaction is served on ``directions[is_write]``.
    """

    name: str
    server: object  # LinkArbiter | UmcServer | CxlDeviceModel
    directions: Tuple[_DirectionServer, _DirectionServer] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "directions", (self.server.read_dir, self.server.write_dir)
        )

    def unloaded_service_ns(self, size_bytes: int, is_write: bool) -> float:
        """Service time with empty queues (used for fixed-latency deduction)."""
        return self.directions[is_write].service_ns(size_bytes)


@dataclass
class CompiledPath:
    """The DES execution plan for one (source, target, op) combination."""

    name: str
    fixed_ns: float
    stages: List[QueuedStage]
    tokens: List[TokenPool]
    #: Analytic unloaded end-to-end latency (for validation/telemetry).
    unloaded_ns: float


class PathResolver:
    """Builds and caches the DES elements of a platform, and compiles paths.

    One resolver owns one platform's worth of simulated hardware: per-CCX
    token pools, per-CCD IF/GMI arbiters, the NoC aggregate arbiter, per-UMC
    servers, and the P-Link/CXL chain. Paths compiled for different cores
    share these elements, which is what makes contention emerge.

    Compiled paths are memoized: a sweep that re-resolves the same
    (core, target, op, size) combination gets the cached
    :class:`CompiledPath` back instead of recompiling it. This is safe
    because a compiled path is immutable in practice — executors only read
    its fields — and its stages/tokens are the resolver's shared elements
    either way.
    """

    def __init__(
        self,
        env: Environment,
        platform: Platform,
        seed: int = 0,
        with_dram_jitter: bool = True,
    ) -> None:
        self.env = env
        self.platform = platform
        self._rng = SplitRng(seed)
        self._timing = (
            DramTimingModel.for_platform(platform.name) if with_dram_jitter else None
        )
        self._ccx_pools: Dict[int, TokenPool] = {}
        self._ccd_pools: Dict[int, Optional[TokenPool]] = {}
        self._if_arbiters: Dict[int, LinkArbiter] = {}
        self._gmi_arbiters: Dict[int, LinkArbiter] = {}
        self._hub_arbiters: Dict[int, LinkArbiter] = {}
        self._umc_servers: Dict[int, UmcServer] = {}
        self._plink_arbiters: Dict[int, LinkArbiter] = {}
        self._cxl_devices: Dict[int, CxlDeviceModel] = {}
        self._pcie_arbiters: Dict[int, LinkArbiter] = {}
        self._noc_arbiter: Optional[LinkArbiter] = None
        self._xgmi_arbiter: Optional[LinkArbiter] = None
        #: Memoized compiled paths, keyed by the full compile signature.
        self._path_cache: Dict[tuple, CompiledPath] = {}

    # ------------------------------------------------------------ DES elements

    def ccx_pool(self, ccx_id: int) -> TokenPool:
        """The (cached) per-CCX traffic-control token pool."""
        if ccx_id not in self._ccx_pools:
            self._ccx_pools[ccx_id] = ccx_token_pool(self.env, self.platform, ccx_id)
        return self._ccx_pools[ccx_id]

    def ccd_pool(self, ccd_id: int) -> Optional[TokenPool]:
        """The (cached) per-CCD token pool, or None when absent."""
        if ccd_id not in self._ccd_pools:
            self._ccd_pools[ccd_id] = ccd_token_pool(self.env, self.platform, ccd_id)
        return self._ccd_pools[ccd_id]

    def if_arbiter(self, ccd_id: int) -> LinkArbiter:
        """The (cached) CCD-to-I/O-die IF link arbiter."""
        if ccd_id not in self._if_arbiters:
            spec = self.platform.link(f"if/ccd{ccd_id}")
            self._if_arbiters[ccd_id] = LinkArbiter(self.env, spec)
        return self._if_arbiters[ccd_id]

    def gmi_arbiter(self, ccd_id: int) -> LinkArbiter:
        """The (cached) per-CCD GMI port arbiter."""
        if ccd_id not in self._gmi_arbiters:
            spec = self.platform.link(f"gmi/ccd{ccd_id}")
            self._gmi_arbiters[ccd_id] = LinkArbiter(self.env, spec)
        return self._gmi_arbiters[ccd_id]

    def hub_arbiter(self, ccd_id: int) -> LinkArbiter:
        """The (cached) per-CCD mesh-to-hub port arbiter."""
        if ccd_id not in self._hub_arbiters:
            spec = self.platform.link(f"hubport/ccd{ccd_id}")
            self._hub_arbiters[ccd_id] = LinkArbiter(self.env, spec)
        return self._hub_arbiters[ccd_id]

    def noc_arbiter(self) -> LinkArbiter:
        """The (cached) aggregate NoC routing arbiter."""
        if self._noc_arbiter is None:
            spec = self.platform.link("noc")
            # The NoC provisions multiple routing paths; model it as a
            # multi-lane arbiter (one lane per CCD port keeps per-lane rates
            # sensible while preserving the aggregate ceiling).
            self._noc_arbiter = LinkArbiter(
                self.env, spec, lanes=self.platform.spec.ccd_count
            )
        return self._noc_arbiter

    def umc_server(self, umc_id: int) -> UmcServer:
        """The (cached) memory-channel server for one UMC."""
        if umc_id not in self._umc_servers:
            bw = self.platform.spec.bandwidth
            self._umc_servers[umc_id] = UmcServer(
                self.env,
                f"umc{umc_id}",
                read_gbps=bw.umc_read_gbps,
                write_gbps=bw.umc_write_gbps,
                timing=self._timing,
                rng=self._rng.stream(f"umc{umc_id}"),
            )
        return self._umc_servers[umc_id]

    def plink_arbiter(self, rc_id: int) -> LinkArbiter:
        """The (cached) P Link arbiter for one root complex."""
        if rc_id not in self._plink_arbiters:
            spec = self.platform.link(f"plink/rc{rc_id}")
            self._plink_arbiters[rc_id] = LinkArbiter(self.env, spec)
        return self._plink_arbiters[rc_id]

    def cxl_device(self, dev_id: int) -> CxlDeviceModel:
        """The (cached) CXL device model."""
        if dev_id not in self._cxl_devices:
            bw = self.platform.spec.bandwidth
            if bw.cxl_dev_read_gbps is None or bw.cxl_dev_write_gbps is None:
                raise TopologyError(
                    f"{self.platform.name} has no CXL bandwidth calibration"
                )
            device = self.platform.cxl_devices[dev_id]
            self._cxl_devices[dev_id] = CxlDeviceModel(
                self.env,
                f"cxldev{dev_id}",
                read_gbps=bw.cxl_dev_read_gbps,
                write_gbps=bw.cxl_dev_write_gbps,
                flit_bytes=device.flit_bytes,
                timing=self._timing,
                rng=self._rng.stream(f"cxl{dev_id}"),
            )
        return self._cxl_devices[dev_id]

    # ------------------------------------------------------------- compilation

    def _finalize(
        self,
        name: str,
        unloaded_ns: float,
        stages: List[QueuedStage],
        tokens: List[TokenPool],
        op: OpKind,
        size_bytes: int,
    ) -> CompiledPath:
        # The platform's calibrated unloaded latencies are cacheline
        # latencies, so the deduction uses cacheline-scale service. Larger
        # transactions (bulk DMA chunks) then pay their genuine extra
        # serialization on top — cut-through at the head, body behind it.
        reference = min(size_bytes, CACHELINE)
        service = sum(
            stage.unloaded_service_ns(reference, op.is_write) for stage in stages
        )
        fixed = unloaded_ns - service
        if fixed < 0:
            raise TopologyError(
                f"path {name}: queued service ({service:.1f} ns) exceeds the "
                f"unloaded latency ({unloaded_ns:.1f} ns)"
            )
        return CompiledPath(name, fixed, stages, tokens, unloaded_ns)

    def xgmi_arbiter(self) -> LinkArbiter:
        """The (cached) inter-socket xGMI arbiter."""
        if self._xgmi_arbiter is None:
            spec = self.platform.link("xgmi")
            self._xgmi_arbiter = LinkArbiter(self.env, spec, lanes=4)
        return self._xgmi_arbiter

    def dram_path(
        self,
        core_id: int,
        umc_id: int,
        op: OpKind = OpKind.READ,
        size_bytes: int = CACHELINE,
        remote: bool = False,
    ) -> CompiledPath:
        """Compile the core→DIMM path through IF, the mesh, and the UMC.

        ``remote=True`` targets the other socket's memory: the request
        additionally crosses the xGMI link (2-socket platforms only).
        """
        key = ("dram", core_id, umc_id, op, size_bytes, remote)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        core = self.platform.core(core_id)
        if remote:
            unloaded = self.platform.remote_dram_latency_ns(
                core.ccd_id, umc_id
            )
        else:
            unloaded = self.platform.dram_latency_ns(core.ccd_id, umc_id)
        stages = [
            QueuedStage(f"if/ccd{core.ccd_id}", self.if_arbiter(core.ccd_id)),
            QueuedStage(f"gmi/ccd{core.ccd_id}", self.gmi_arbiter(core.ccd_id)),
            QueuedStage("noc", self.noc_arbiter()),
            QueuedStage(f"umc{umc_id}", self.umc_server(umc_id)),
        ]
        if remote:
            stages.insert(2, QueuedStage("xgmi", self.xgmi_arbiter()))
        pools = (self.ccx_pool(core.ccx_id), self.ccd_pool(core.ccd_id))
        tokens = [pool for pool in pools if pool is not None]
        path = self._finalize(
            f"core{core_id}->dimm{umc_id}", unloaded, stages, tokens, op, size_bytes
        )
        self._path_cache[key] = path
        return path

    def pcie_arbiter(self, dev_id: int) -> LinkArbiter:
        """The (cached) PCIe endpoint arbiter."""
        if dev_id not in self._pcie_arbiters:
            spec = self.platform.link(f"pciedev{dev_id}")
            self._pcie_arbiters[dev_id] = LinkArbiter(self.env, spec)
        return self._pcie_arbiters[dev_id]

    def doorbell_path(
        self,
        core_id: int,
        dev_id: int = 0,
        size_bytes: int = 8,
    ) -> CompiledPath:
        """Compile a posted doorbell write (retires at the root complex)."""
        key = ("doorbell", core_id, dev_id, size_bytes)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        core = self.platform.core(core_id)
        unloaded = self.platform.doorbell_latency_ns(core.ccd_id, dev_id)
        stages = [
            QueuedStage(f"if/ccd{core.ccd_id}", self.if_arbiter(core.ccd_id)),
            QueuedStage("noc", self.noc_arbiter()),
            QueuedStage(f"hubport/ccd{core.ccd_id}", self.hub_arbiter(core.ccd_id)),
        ]
        path = self._finalize(
            f"core{core_id}->doorbell{dev_id}", unloaded, stages, [],
            OpKind.NT_WRITE, size_bytes,
        )
        self._path_cache[key] = path
        return path

    def dma_path(
        self,
        dev_id: int,
        umc_id: int,
        op: OpKind = OpKind.READ,
        size_bytes: int = CACHELINE,
    ) -> CompiledPath:
        """Compile a device-initiated DMA access to DRAM."""
        key = ("dma", dev_id, umc_id, op, size_bytes)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        dev = self.platform.pcie_devices[dev_id]
        hub = self.platform.io_hubs[0]
        umc = self.platform.umcs[umc_id]
        dx, dy = self.platform.mesh_offset(hub.coord, umc.coord)
        unloaded = self.platform.spec.latency.dma_dram_ns(dx, dy)
        stages = [
            QueuedStage(f"pciedev{dev_id}", self.pcie_arbiter(dev_id)),
            QueuedStage(f"plink/rc{dev.rc_id}", self.plink_arbiter(dev.rc_id)),
            QueuedStage("noc", self.noc_arbiter()),
            QueuedStage(f"umc{umc_id}", self.umc_server(umc_id)),
        ]
        path = self._finalize(
            f"pcie{dev_id}->dimm{umc_id}", unloaded, stages, [], op, size_bytes
        )
        self._path_cache[key] = path
        return path

    def cxl_path(
        self,
        core_id: int,
        dev_id: int = 0,
        op: OpKind = OpKind.READ,
        size_bytes: int = CACHELINE,
    ) -> CompiledPath:
        """Compile the core→CXL path through IF, mesh, hub, P Link, device."""
        key = ("cxl", core_id, dev_id, op, size_bytes)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        core = self.platform.core(core_id)
        unloaded = self.platform.cxl_latency_ns(core.ccd_id, dev_id)
        dev = self.platform.cxl_devices[dev_id]
        stages = [
            QueuedStage(f"if/ccd{core.ccd_id}", self.if_arbiter(core.ccd_id)),
            QueuedStage("noc", self.noc_arbiter()),
            QueuedStage(f"hubport/ccd{core.ccd_id}", self.hub_arbiter(core.ccd_id)),
            QueuedStage(f"plink/rc{dev.rc_id}", self.plink_arbiter(dev.rc_id)),
            QueuedStage(f"cxldev{dev_id}", self.cxl_device(dev_id)),
        ]
        pools = (self.ccx_pool(core.ccx_id), self.ccd_pool(core.ccd_id))
        tokens = [pool for pool in pools if pool is not None]
        path = self._finalize(
            f"core{core_id}->cxl{dev_id}", unloaded, stages, tokens, op, size_bytes
        )
        self._path_cache[key] = path
        return path

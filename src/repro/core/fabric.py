"""Fluid-model view of a platform's bandwidth domains.

:class:`FabricModel` materializes every bandwidth domain of a platform
(§3.3) as a :class:`~repro.fluid.solver.Channel` — CCX token pools, GMI
ports, UMC channels, the NoC aggregate, hub ports, P Links, CXL devices —
and compiles a :class:`~repro.core.flows.StreamSpec` into the
:class:`~repro.fluid.solver.FluidFlow` objects that load them.

Per-core demand ceilings derive from first principles: a core with ``mlp``
outstanding cachelines against an unloaded latency ``L`` can stream at most
``mlp × 64 B / L`` — the "limited by the per-core memory-level parallelism"
bound of §3.3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultSchedule
    from repro.platform.generator import NocRouting

from repro.errors import ConfigurationError, TopologyError
from repro.fluid.solver import Channel, FluidFlow, Policy, solve
from repro.core.flows import Pattern, StreamSpec
from repro.platform.topology import Platform
from repro.transport.message import OpKind
from repro.units import CACHELINE

__all__ = ["FabricModel"]

#: Wire expansion of CXL FLIT framing (68 B FLIT carries a 64 B cacheline).
_CXL_FRAMING = 68.0 / 64.0


def _mesh_channel_stem(src, dst) -> str:
    """Channel-name stem of one directed mesh link, e.g. ``mesh:0,0,0>1,0,0``."""
    return (
        f"mesh:{src[0]},{src[1]},{src[2]}>{dst[0]},{dst[1]},{dst[2]}"
    )


class FabricModel:
    """Channels and flow compilation for one platform.

    ``derates`` injects link degradation for reliability/what-if studies: a
    mapping from channel name (e.g. ``"gmi0:r"``) to a capacity multiplier
    in (0, 1] — a lane failure on a GMI port, a thermally-throttled P Link.

    ``routing`` (a :class:`~repro.platform.generator.NocRouting`) resolves
    the aggregate NoC domain into *per-mesh-link* channels: each directed
    link of the router grid becomes a channel (``mesh:x,y,z>x,y,z:r/w``),
    and DRAM streams load the links their routing policy's split puts them
    on — XY's single dimension-ordered path, or adaptive routing's fluid
    limit (equal split over min-weight minimal outports, the steady state
    of credit balancing). ``routing=None`` keeps the aggregate-only model,
    bit-identical to before.
    """

    def __init__(
        self,
        platform: Platform,
        derates: Optional[Dict[str, float]] = None,
        routing: Optional["NocRouting"] = None,
    ) -> None:
        self.platform = platform
        self.routing = routing
        self.derates = dict(derates or {})
        for name, factor in self.derates.items():
            if not 0.0 < factor <= 1.0:
                raise ConfigurationError(
                    f"derate for {name!r} must be in (0, 1], got {factor}"
                )
        self._channels: Dict[str, Channel] = {}
        self._build_channels()
        unknown = set(self.derates) - set(self._channels)
        if unknown:
            raise ConfigurationError(f"derates for unknown channels: {unknown}")

    @classmethod
    def with_faults(
        cls,
        platform: Platform,
        schedule: "FaultSchedule",
        at_time: Optional[float] = None,
    ) -> "FabricModel":
        """A fabric degraded by a fault schedule.

        ``at_time=None`` takes each channel's *deepest* factor over the whole
        schedule (the steady-state worst case); a concrete time samples the
        schedule at that instant. A null schedule (e.g. ``scaled(0.0)``)
        compiles to a pristine fabric, identical to ``FabricModel(platform)``.
        """
        derates = (
            schedule.worst_derates() if at_time is None
            else schedule.derates_at(at_time)
        )
        return cls(platform, derates=derates or None)

    # ----------------------------------------------------------------- build

    def _make(self, name: str, capacity: Optional[float]) -> None:
        if capacity is None:
            return
        capacity *= self.derates.get(name, 1.0)
        self._channels[name] = Channel(name, capacity)

    def _build_channels(self) -> None:
        spec = self.platform.spec
        bw = spec.bandwidth
        for ccx_id in self.platform.ccxs:
            self._make(f"ccx{ccx_id}:r", bw.ccx_read_gbps)
            self._make(f"ccx{ccx_id}:w", bw.ccx_write_gbps)
        for ccd_id in self.platform.ccds:
            self._make(f"gmi{ccd_id}:r", bw.gmi_read_gbps)
            self._make(f"gmi{ccd_id}:w", bw.gmi_write_gbps)
            self._make(f"hub{ccd_id}:r", bw.hub_port_read_gbps)
            self._make(f"hub{ccd_id}:w", bw.hub_port_write_gbps)
        for umc_id in self.platform.umcs:
            self._make(f"umc{umc_id}:r", bw.umc_read_gbps)
            self._make(f"umc{umc_id}:w", bw.umc_write_gbps)
        self._make("noc:r", bw.noc_read_gbps)
        self._make("noc:w", bw.noc_write_gbps)
        if self.routing is not None:
            for src, dst in self.routing.grid.links():
                stem = _mesh_channel_stem(src, dst)
                self._make(f"{stem}:r", self.routing.link_read_gbps)
                self._make(f"{stem}:w", self.routing.link_write_gbps)
        if self.platform.has_remote_socket:
            self._make("xgmi:r", bw.xgmi_read_gbps)
            self._make("xgmi:w", bw.xgmi_write_gbps)
        for rc_id in self.platform.root_complexes:
            self._make(f"plink{rc_id}:r", bw.p_link_read_gbps)
            self._make(f"plink{rc_id}:w", bw.p_link_write_gbps)
        for dev_id in self.platform.cxl_devices:
            self._make(f"cxldev{dev_id}:r", bw.cxl_dev_read_gbps)
            self._make(f"cxldev{dev_id}:w", bw.cxl_dev_write_gbps)

    # ---------------------------------------------------------------- lookup

    @property
    def channels(self) -> Dict[str, Channel]:
        return dict(self._channels)

    def channel(self, name: str) -> Channel:
        """Look up a channel by name (TopologyError if unknown)."""
        try:
            return self._channels[name]
        except KeyError:
            raise TopologyError(f"unknown channel {name!r}") from None

    def _direction(self, op: OpKind) -> str:
        return "w" if op.is_write else "r"

    # -------------------------------------------------------------- ceilings

    def per_core_ceiling_gbps(
        self,
        op: OpKind,
        target: str,
        ccd_id: int,
        umc_ids: Sequence[int] = (),
        pattern: Pattern = Pattern.SEQUENTIAL,
        remote: bool = False,
    ) -> float:
        """MLP-bound single-core streaming rate toward ``target``.

        Temporal stores (:attr:`OpKind.WRITE`) are limited by the demand-fill
        (RFO) window — the same MSHRs reads use — not by the write-combining
        buffers that non-temporal streams drain through.
        """
        bw = self.platform.spec.bandwidth
        if target == "dram":
            if umc_ids:
                latency = sum(
                    self.platform.dram_latency_ns(ccd_id, umc_id)
                    for umc_id in umc_ids
                ) / len(umc_ids)
            else:
                from repro.platform.numa import Position

                latency = self.platform.dram_latency_at(ccd_id, Position.NEAR)
            if remote:
                latency += float(self.platform.spec.latency.xgmi_ns or 0.0)
            if op is OpKind.NT_WRITE:
                window = bw.wcb_write
            elif pattern is Pattern.RANDOM:
                window = bw.effective_random_mlp
            else:
                window = bw.mlp_read
        elif target == "cxl":
            latency = self.platform.cxl_latency_ns(ccd_id)
            if op is OpKind.NT_WRITE:
                window = bw.cxl_wcb_write
            else:
                window = bw.cxl_mlp_read
                if pattern is Pattern.RANDOM and window > 0:
                    window = max(
                        4,
                        window * bw.effective_random_mlp // max(1, bw.mlp_read),
                    )
            if window <= 0:
                raise ConfigurationError(
                    f"{self.platform.name} has no CXL issue-window calibration"
                )
        else:
            raise ConfigurationError(f"unknown target {target!r}")
        if pattern is Pattern.POINTER_CHASE:
            window = 1
        return window * CACHELINE / latency

    # ------------------------------------------------------------ compilation

    def umc_ids_for_nps(self, ccd_id: int, nps: "NpsMode") -> List[int]:
        """The interleave set a BIOS NPS setting gives a chiplet (§3.1:
        "We changed the NPS (Node per Socket) configurations").

        * NPS1 — all channels interleave together;
        * NPS2 — the socket splits in two: the chiplet's half of the mesh
          (its own column side);
        * NPS4 — one domain per quadrant: only the chiplet's near group.
        """
        from repro.platform.numa import NpsMode, Position

        if nps is NpsMode.NPS1:
            return sorted(self.platform.umcs)
        if nps is NpsMode.NPS4:
            near = sorted(
                umc.umc_id
                for umc in self.platform.umcs_at(ccd_id, Position.NEAR)
            )
            if near:
                return near
            # Chiplets without a co-located UMC stop (the abstract mesh is
            # asymmetric away from CCD0) get their lowest-latency channels.
            latencies = {
                umc_id: self.platform.dram_latency_ns(ccd_id, umc_id)
                for umc_id in self.platform.umcs
            }
            best = min(latencies.values())
            return sorted(
                umc_id
                for umc_id, latency in latencies.items()
                if latency <= best + 1e-9
            )
        # NPS2: the chiplet's side of the mesh (by x coordinate).
        ccd_x = self.platform.ccds[ccd_id].coord[0]
        mid = self.platform.spec.mesh_grid[0] / 2.0
        same_side = [
            umc.umc_id
            for umc in self.platform.umcs.values()
            if (umc.coord[0] < mid) == (ccd_x < mid)
        ]
        return sorted(same_side) or sorted(self.platform.umcs)

    def endpoints_of(self, spec: StreamSpec) -> Tuple[int, ...]:
        """The endpoints a stream targets, for every engine.

        ``spec.endpoints`` when the stream names them. Otherwise the
        default interleave: local (NPS4-style) UMCs for a DRAM stream on
        one chiplet, every UMC (NPS1) once it spans chiplets, and every
        CXL device for a CXL stream.
        """
        if spec.endpoints:
            return spec.endpoints
        if spec.target == "cxl":
            return tuple(sorted(self.platform.cxl_devices))
        from repro.platform.numa import NpsMode

        ccd_ids = {self.platform.core(c).ccd_id for c in spec.core_ids}
        if len(ccd_ids) > 1:
            return tuple(sorted(self.platform.umcs))
        return tuple(self.umc_ids_for_nps(next(iter(ccd_ids)), NpsMode.NPS4))

    def flows_for(self, spec: StreamSpec) -> List[FluidFlow]:
        """Compile a stream into one fluid flow per participating CCX,
        each split evenly over :meth:`endpoints_of` the stream."""
        direction = self._direction(spec.op)
        by_ccx: Dict[int, List[int]] = {}
        for core_id in spec.core_ids:
            core = self.platform.core(core_id)
            by_ccx.setdefault(core.ccx_id, []).append(core_id)

        targets = self.endpoints_of(spec)
        if not targets and spec.target == "dram":
            raise ConfigurationError(f"stream {spec.name}: no target UMCs")
        if not targets:
            raise TopologyError(
                f"{self.platform.name} has no CXL devices for {spec.name}"
            )

        flows: List[FluidFlow] = []
        total_cores = len(spec.core_ids)
        for ccx_id, cores in sorted(by_ccx.items()):
            ccd_id = self.platform.ccxs[ccx_id].ccd_id
            if spec.remote and not self.platform.has_remote_socket:
                raise ConfigurationError(
                    f"stream {spec.name}: {self.platform.name} has no "
                    "remote socket"
                )
            ceiling = len(cores) * self.per_core_ceiling_gbps(
                spec.op, spec.target, ccd_id,
                umc_ids=targets if spec.target == "dram" else (),
                pattern=spec.pattern,
                remote=spec.remote,
            )
            if spec.demand_gbps is None:
                # Unthrottled: issue-window-limited, fills residual service.
                demand = ceiling
                elastic = True
            else:
                # Rate-controlled streams split their target evenly per core,
                # still bounded by what the cores can physically issue.
                demand = min(
                    ceiling, spec.demand_gbps * len(cores) / total_cores
                )
                elastic = False
            flow = FluidFlow(f"{spec.name}/ccx{ccx_id}", demand, elastic=elastic)
            self._attach_path(flow, direction, ccx_id, ccd_id, spec, targets)
            if spec.op is OpKind.WRITE:
                # Temporal stores read-for-ownership: every written line is
                # first fetched, so the stream loads the read direction of
                # the same path at equal weight (the §3.5 read/write mixing).
                self._attach_path(flow, "r", ccx_id, ccd_id, spec, targets)
            flows.append(flow)
        return flows

    def _attach_path(
        self,
        flow: FluidFlow,
        direction: str,
        ccx_id: int,
        ccd_id: int,
        spec: StreamSpec,
        targets: Sequence[int],
        weight: float = 1.0,
    ) -> None:
        """Append one direction's channels for the stream's route."""
        ccx_channel = self._channels.get(f"ccx{ccx_id}:{direction}")
        if ccx_channel is not None:
            flow.add(ccx_channel, weight)
        flow.add(self.channel(f"gmi{ccd_id}:{direction}"), weight)
        flow.add(self.channel(f"noc:{direction}"), weight)
        if spec.remote:
            flow.add(self.channel(f"xgmi:{direction}"), weight)
        share = weight / len(targets)
        if spec.target == "dram":
            for umc_id in targets:
                flow.add(self.channel(f"umc{umc_id}:{direction}"), share)
            if self.routing is not None:
                self._attach_mesh_links(
                    flow, direction, ccd_id, targets, share
                )
        else:
            flow.add(self.channel(f"hub{ccd_id}:{direction}"), weight)
            for dev_id in targets:
                rc_id = self.platform.cxl_devices[dev_id].rc_id
                flow.add(self.channel(f"plink{rc_id}:{direction}"), share)
                flow.add(
                    self.channel(f"cxldev{dev_id}:{direction}"),
                    share * _CXL_FRAMING,
                )

    def _attach_mesh_links(
        self,
        flow: FluidFlow,
        direction: str,
        ccd_id: int,
        umc_ids: Sequence[int],
        share: float,
    ) -> None:
        """Load the mesh-link channels the CCD→UMC route splits touch.

        Per-link weights accumulate over every target UMC before the
        channels join the path, so a flow never lists one channel twice
        (two UMCs at the same mesh stop share their links exactly).
        """
        from repro.noc.routing import route_split

        routing = self.routing
        assert routing is not None
        src = routing.ccd_coords3[ccd_id % len(routing.ccd_coords3)]
        combined: Dict[Tuple, float] = {}
        for umc_id in umc_ids:
            dst = routing.umc_coords3[umc_id % len(routing.umc_coords3)]
            split = route_split(routing.grid, src, dst, routing.policy)
            for link, fraction in split.items():
                combined[link] = combined.get(link, 0.0) + share * fraction
        for (link_src, link_dst), weight in sorted(combined.items()):
            stem = _mesh_channel_stem(link_src, link_dst)
            flow.add(self.channel(f"{stem}:{direction}"), weight)

    def achieved_gbps(
        self,
        specs: Sequence[StreamSpec],
        policy: Policy = Policy.DEMAND_PROPORTIONAL,
    ) -> Dict[str, float]:
        """Solve all streams together; returns {stream name: achieved GB/s}."""
        flows: List[FluidFlow] = []
        owners: List[Tuple[str, str]] = []
        for spec in specs:
            for flow in self.flows_for(spec):
                flows.append(flow)
                owners.append((flow.name, spec.name))
        allocation = solve(flows, policy)
        result = {spec.name: 0.0 for spec in specs}
        for flow_name, spec_name in owners:
            result[spec_name] += allocation[flow_name]
        return result

    def utilizations(
        self,
        specs: Sequence[StreamSpec],
        policy: Policy = Policy.DEMAND_PROPORTIONAL,
    ) -> Dict[str, float]:
        """Per-channel utilization (0..1) under the solved allocation.

        The runtime "intra-server traffic matrix" view Implication #2 asks
        for: which path segment is throttling right now. A utilization of
        ~1.0 marks the binding domain.
        """
        flows: List[FluidFlow] = []
        for spec in specs:
            flows.extend(self.flows_for(spec))
        allocation = solve(flows, policy)
        loads: Dict[str, float] = {}
        for flow in flows:
            for channel, weight in flow.path:
                loads[channel.name] = (
                    loads.get(channel.name, 0.0)
                    + allocation[flow.name] * weight
                )
        return {
            name: min(1.0, load / self._channels[name].capacity_gbps)
            for name, load in loads.items()
        }

    def binding_channel(
        self,
        specs: Sequence[StreamSpec],
        policy: Policy = Policy.DEMAND_PROPORTIONAL,
    ) -> Optional[str]:
        """The most-utilized channel, or None when nothing exceeds 99%."""
        utilizations = self.utilizations(specs, policy)
        if not utilizations:
            return None
        name = max(utilizations, key=lambda n: utilizations[n])
        return name if utilizations[name] >= 0.99 else None

"""The intra-host switching module (§4 direction #4).

"One should develop an intra-host switching module that proactively monitors
the traffic matrix, conceives an optimal communication path and schedule,
and provisions just enough bandwidth."

:class:`IntraHostSwitch` does the provisioning half: it registers the
accelerator's signal/data flows alongside the background streams, computes a
max-min allocation that reserves the accelerator's requirement, and emits
the paced rates the background load generators must honour. The dispatch
experiment (``repro.experiments.accel_dispatch``) drives background issuers
at those rates and measures the dispatch-latency protection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.errors import ConfigurationError
from repro.fluid.solver import Policy

__all__ = ["IntraHostSwitch", "ProvisionPlan"]


@dataclass(frozen=True)
class ProvisionPlan:
    """The switch's output: paced rates for background streams (GB/s)."""

    background_rates: Dict[str, float]
    accelerator_reserved_gbps: float

    def rate_for(self, stream_name: str) -> float:
        """The paced rate granted to one background stream."""
        try:
            return self.background_rates[stream_name]
        except KeyError:
            raise ConfigurationError(
                f"stream {stream_name!r} is not in the plan"
            ) from None


class IntraHostSwitch:
    """Provisions chiplet-network bandwidth around an accelerator."""

    def __init__(self, fabric: FabricModel) -> None:
        self.fabric = fabric
        self._background: Dict[str, StreamSpec] = {}

    def register_background(self, spec: StreamSpec) -> None:
        """Register a background stream the switch will pace."""
        if spec.name in self._background:
            raise ConfigurationError(f"stream {spec.name!r} already registered")
        self._background[spec.name] = spec

    def provision(
        self, accelerator_demand_gbps: float, host_ccd: int = 0
    ) -> ProvisionPlan:
        """Reserve the accelerator's bandwidth; pace everything else.

        The accelerator's data plane enters through the host chiplet's hub
        port, so it is modelled as a paced stream with that demand; the
        max-min solve then gives every background stream its fair share of
        what remains, and those shares become the pacing rates.
        """
        if accelerator_demand_gbps <= 0:
            raise ConfigurationError("accelerator demand must be positive")
        if not self._background:
            raise ConfigurationError("no background streams registered")
        platform = self.fabric.platform
        # The synthetic reservation stream spans the whole host chiplet so
        # its demand is not clipped by a single core's issue window.
        host_cores = tuple(
            core.core_id for core in platform.cores_of_ccd(host_ccd)
        )
        accel_stream = StreamSpec(
            "__accelerator__",
            # The dispatch path's congestion point is the hub port in the
            # device-read direction; model the reservation there.
            op=next(iter(self._background.values())).op,
            core_ids=host_cores,
            target="cxl" if platform.cxl_devices else "dram",
            demand_gbps=accelerator_demand_gbps,
        )
        specs: List[StreamSpec] = [accel_stream] + list(
            self._background.values()
        )
        allocation = self.fabric.achieved_gbps(specs, policy=Policy.MAX_MIN)
        background = {
            name: allocation[name] for name in self._background
        }
        return ProvisionPlan(background, allocation["__accelerator__"])

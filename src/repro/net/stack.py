"""The networking-stack configuration and its fluid-backend realization.

:class:`NetStackConfig` is the one switchboard both backends read:

* ``credits`` — receiver-driven credit control replaces the hardware's
  sender-driven token grab. Fluid mode: the demand-proportional FIFO split
  becomes max-min progressive filling (the fluid limit of per-flow receiver
  crediting) plus a per-flow window/RTT rate cap. DES mode:
  :func:`repro.net.inject.install` interposes per-(endpoint, flow) credit
  pools on the execute path.
* ``qos`` — service classes skew both realizations: class weights drive
  :attr:`~repro.fluid.solver.Policy.WEIGHTED` filling, class credit scales
  skew the receiver's credit split.

Everything defaults to off, and a disabled stack routes through the exact
code paths the reproduction already uses — Figures 4–6 stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fabric import FabricModel
from repro.core.flows import StreamSpec
from repro.errors import ConfigurationError
from repro.fluid.solver import Policy, solve
from repro.net.credits import CreditConfig, credit_rate_gbps, credit_share
from repro.net.qos import (
    CLASS_SPECS,
    QosClass,
    class_credit_scales,
    class_weights,
)

__all__ = ["NetStackConfig", "fluid_allocation"]


@dataclass(frozen=True)
class NetStackConfig:
    """Which stack features are on, and their tunables."""

    credits: bool = False
    qos: bool = False
    credit_config: CreditConfig = field(default_factory=CreditConfig)
    #: Flow name → service class (consulted only when ``qos`` is on).
    classes: Dict[str, QosClass] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.qos and not self.credits:
            raise ConfigurationError(
                "QoS classes ride on the credit machinery; enable credits too"
            )

    @property
    def enabled(self) -> bool:
        """Whether any feature is on (``qos`` implies ``credits``)."""
        return self.credits

    @property
    def label(self) -> str:
        """Short human-readable arm name ("off", "credits", "credits+qos")."""
        if not self.credits:
            return "off"
        return "credits+qos" if self.qos else "credits"

    # --------------------------------------------------------------- presets

    @classmethod
    def off(cls) -> "NetStackConfig":
        """The hardware as-is (sender-driven partitioning)."""
        return cls()

    @classmethod
    def with_credits(
        cls, credit_config: Optional[CreditConfig] = None
    ) -> "NetStackConfig":
        """Receiver-driven credits, one class for everyone."""
        return cls(
            credits=True,
            credit_config=credit_config or CreditConfig(),
        )

    @classmethod
    def with_qos(
        cls,
        classes: Dict[str, QosClass],
        credit_config: Optional[CreditConfig] = None,
    ) -> "NetStackConfig":
        """Credits plus service classes."""
        return cls(
            credits=True,
            qos=True,
            credit_config=credit_config or CreditConfig(),
            classes=dict(classes),
        )

    # ------------------------------------------------------------ derivations

    def fluid_policy(self) -> Policy:
        """The allocation discipline this configuration induces.

        Credits always compile to WEIGHTED progressive filling: receiver
        crediting is fair *per stream*, so a stream's share weight is spread
        over its per-CCX fluid flows (a stream spanning two chiplets must
        not count double). With equal class weights this degenerates to
        per-stream max-min.
        """
        if self.credits:
            return Policy.WEIGHTED
        return Policy.DEMAND_PROPORTIONAL

    def weight_of(self, flow: str) -> float:
        """WEIGHTED-policy share weight of one flow."""
        if not self.qos:
            return 1.0
        cls = self.classes.get(flow)
        return CLASS_SPECS[cls].weight if cls is not None else 1.0

    def credit_scales(self) -> Dict[str, float]:
        """Receiver credit-split scales per flow (empty without QoS)."""
        if not self.qos:
            return {}
        return class_credit_scales(self.classes)

    def class_weights(self) -> Dict[str, float]:
        """WEIGHTED-policy weights per flow (empty without QoS)."""
        if not self.qos:
            return {}
        return class_weights(self.classes)


def _endpoint_names(fabric: FabricModel, spec: StreamSpec) -> List[str]:
    prefix = "umc" if spec.target == "dram" else "cxldev"
    return [f"{prefix}{target}" for target in fabric.endpoints_of(spec)]


def fluid_allocation(
    fabric: FabricModel,
    specs: Sequence[StreamSpec],
    config: NetStackConfig,
) -> Dict[str, float]:
    """Steady-state grants under the stack; {stream name: achieved GB/s}.

    Disabled stack → exactly :meth:`FabricModel.achieved_gbps` under the
    hardware's demand-proportional policy (same call, same numbers). With
    credits on, each stream is capped at the aggregate window/RTT rate its
    credit shares sustain across its endpoints, and the channels are
    shared by (weighted) progressive filling — the fluid limit of
    receiver-driven crediting.
    """
    if not config.enabled:
        return fabric.achieved_gbps(specs, policy=Policy.DEMAND_PROPORTIONAL)
    platform = fabric.platform
    names = [spec.name for spec in specs]
    scales = config.credit_scales()
    flows = []
    owners: List[Tuple[str, str]] = []
    for spec in specs:
        cap = 0.0
        for endpoint in _endpoint_names(fabric, spec):
            share = credit_share(
                platform, endpoint, names, spec.name,
                config=config.credit_config, credit_scales=scales,
                is_write=spec.op.is_write,
            )
            cap += credit_rate_gbps(
                platform, endpoint, share, config=config.credit_config
            )
        spec_flows = fabric.flows_for(spec)
        demand_sum = sum(flow.demand_gbps for flow in spec_flows)
        for flow in spec_flows:
            if demand_sum > 0:
                # The stream's credit-rate cap, apportioned over its
                # per-CCX flows in proportion to their offered demands.
                flow.demand_gbps = min(
                    flow.demand_gbps, cap * flow.demand_gbps / demand_sum
                )
            # Per-stream fairness: the stream's class weight is spread over
            # its per-CCX flows so a many-chiplet stream cannot out-fill a
            # small one just by decomposing into more flows.
            flow.weight = config.weight_of(spec.name) / len(spec_flows)
            flows.append(flow)
            owners.append((flow.name, spec.name))
    allocation = solve(flows, config.fluid_policy())
    result = {spec.name: 0.0 for spec in specs}
    for flow_name, spec_name in owners:
        result[spec_name] += allocation[flow_name]
    return result

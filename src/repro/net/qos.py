"""QoS classes for the chiplet networking stack.

Two service classes cover the paper's workload split (§4): latency-sensitive
traffic (request/response, pointer-heavy) and bulk traffic (streaming,
checkpoint, migration). A class maps onto both backends at once:

* fluid — a share ``weight`` consumed by :attr:`~repro.fluid.solver.Policy.
  WEIGHTED` progressive filling (latency traffic fills twice as fast);
* DES — a ``credit_scale`` that skews the receiver-driven credit split
  (bulk senders hold fewer outstanding cachelines per endpoint, so they
  cannot build deep queues in front of latency traffic).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

__all__ = [
    "QosClass",
    "ClassSpec",
    "CLASS_SPECS",
    "class_weights",
    "class_credit_scales",
]


class QosClass(enum.Enum):
    """Service class of a flow."""

    LATENCY = "latency"
    BULK = "bulk"


@dataclass(frozen=True)
class ClassSpec:
    """How one service class maps onto the two backends."""

    #: Share weight under :attr:`Policy.WEIGHTED` progressive filling.
    weight: float
    #: Multiplier on the flow's receiver-driven credit share.
    credit_scale: float


#: The default class calibration: latency traffic fills twice as fast and
#: bulk senders hold half the credits a latency sender would.
CLASS_SPECS: Dict[QosClass, ClassSpec] = {
    QosClass.LATENCY: ClassSpec(weight=2.0, credit_scale=1.0),
    QosClass.BULK: ClassSpec(weight=1.0, credit_scale=0.5),
}


def class_weights(
    classes: Dict[str, QosClass],
    specs: Optional[Dict[QosClass, ClassSpec]] = None,
) -> Dict[str, float]:
    """Fluid WEIGHTED-policy share weights for a flow→class mapping."""
    table = specs or CLASS_SPECS
    return {name: table[cls].weight for name, cls in classes.items()}


def class_credit_scales(
    classes: Dict[str, QosClass],
    specs: Optional[Dict[QosClass, ClassSpec]] = None,
) -> Dict[str, float]:
    """Receiver credit-share scales for a flow→class mapping."""
    table = specs or CLASS_SPECS
    return {name: table[cls].credit_scale for name, cls in classes.items()}


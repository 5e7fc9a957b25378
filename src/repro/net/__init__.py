"""``repro.net`` — the treatment layer: an intra-server networking stack.

The reproduction's other packages *diagnose* the paper's idiosyncrasies
(telemetry, faults, the fluid and DES backends); this package is the §4
*treatment*: receiver-driven credit-based congestion control
(:mod:`repro.net.credits`) and QoS classes (:mod:`repro.net.qos`), tied
together by one configuration (:class:`~repro.net.stack.NetStackConfig`)
that realizes identically on both backends —
:func:`~repro.net.stack.fluid_allocation` for steady state,
:func:`~repro.net.inject.install` for the discrete-event simulator.
:mod:`repro.net.recovery` closes the loop with :mod:`repro.faults`:
link-health detection, credit reclamation through permanent failures,
deadline/backoff retransmission, and health-aware failover.
"""

from repro.net.credits import (
    CreditConfig,
    CreditScheduler,
    credit_budget,
    credit_rate_gbps,
    link_credit_budget,
    credit_share,
    endpoint_rate_gbps,
    endpoint_rtt_ns,
)
from repro.net.inject import CreditGate, NetInstallation, install
from repro.net.qos import (
    CLASS_SPECS,
    ClassSpec,
    QosClass,
    class_credit_scales,
    class_weights,
)
from repro.net.recovery import (
    FailoverRouter,
    HealthMonitor,
    HealthTransition,
    LinkHealth,
    ReclaimableTokenPool,
    ReclaimingCreditScheduler,
    RecoveryConfig,
    RecoveryGate,
    RecoveryInstallation,
    RecoveryStats,
    fluid_health,
)
from repro.net.recovery import install as install_recovery
from repro.net.stack import NetStackConfig, fluid_allocation

__all__ = [
    "CreditConfig",
    "CreditScheduler",
    "credit_budget",
    "credit_rate_gbps",
    "link_credit_budget",
    "credit_share",
    "endpoint_rate_gbps",
    "endpoint_rtt_ns",
    "CreditGate",
    "NetInstallation",
    "install",
    "CLASS_SPECS",
    "ClassSpec",
    "QosClass",
    "class_credit_scales",
    "class_weights",
    "NetStackConfig",
    "fluid_allocation",
    "FailoverRouter",
    "HealthMonitor",
    "HealthTransition",
    "LinkHealth",
    "ReclaimableTokenPool",
    "ReclaimingCreditScheduler",
    "RecoveryConfig",
    "RecoveryGate",
    "RecoveryInstallation",
    "RecoveryStats",
    "fluid_health",
    "install_recovery",
]

"""Application studies built on the public API.

The paper motivates server chiplet networking with "skyrocketing
application demands" in the sub-microsecond regime (§2.3, citing the
killer-microseconds line of work). This package hosts request-level
application models that consume the simulator the way a systems developer
would: :mod:`repro.apps.kvstore` is a key-value server whose GET path —
NIC ingress, dependent index walks in DRAM, value fetch, egress — runs as
DES transactions over the shared fabric, exposing how placement and
noisy neighbours move its tail latency. :mod:`repro.apps.kvserve` is its
compiled twin: the same GET path as exact vectorized FIFO recurrences
with fluid-coupled background load, fast enough to serve millions of
open-loop requests per sweep arm.
"""

from repro.apps.kvserve import (
    ArrivalSpec,
    HybridKvServer,
    TenantReport,
    TenantSpec,
)
from repro.apps.kvstore import KvServerModel, KvWorkload, ServiceReport

__all__ = [
    "KvServerModel",
    "KvWorkload",
    "ServiceReport",
    "ArrivalSpec",
    "HybridKvServer",
    "TenantReport",
    "TenantSpec",
]

"""Collective communication across compute chiplets (§4 direction #6).

The paper expects accelerator-era systems to "rethink traffic control,
kernel scheduling, and communication collective" on chiplet networks. This
package provides alpha-beta cost models for the three classic collective
algorithms — flat (root-gathered), binomial tree, and ring — parameterized
entirely by the platform's measured chiplet-network characteristics: the
cross-chiplet message latency (alpha) and the per-chiplet IF bandwidth
(beta). The crossover structure (latency-bound small messages prefer
trees, bandwidth-bound large ones prefer rings) falls out of the platform
numbers.
"""

from repro.collective.model import (
    Algorithm,
    AllreduceTable,
    CollectiveCost,
    allreduce_table,
    allreduce_time_ns,
    crossover_bytes,
    render,
)

__all__ = [
    "Algorithm",
    "AllreduceTable",
    "CollectiveCost",
    "allreduce_table",
    "allreduce_time_ns",
    "crossover_bytes",
    "render",
]

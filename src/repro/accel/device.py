"""Accelerator device and job models."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import ConfigurationError

__all__ = ["AcceleratorModel", "AcceleratorJob", "JobTrace"]


@dataclass(frozen=True)
class AcceleratorModel:
    """A PCIe accelerator's execution characteristics.

    ``launch_overhead_ns`` covers command decode and kernel scheduling on
    the device; ``compute_gbps`` is the streaming rate at which the kernel
    consumes its input bytes (a bandwidth-style model in the LogCA spirit —
    the paper cites exactly that lineage for accelerator modelling).
    """

    name: str = "accel0"
    pcie_dev_id: int = 0
    launch_overhead_ns: float = 1500.0
    compute_gbps: float = 200.0

    def __post_init__(self) -> None:
        if self.launch_overhead_ns < 0:
            raise ConfigurationError("negative launch overhead")
        if self.compute_gbps <= 0:
            raise ConfigurationError("compute rate must be positive")

    def kernel_time_ns(self, bytes_in: int) -> float:
        """Device-side execution time for a job over ``bytes_in``."""
        return self.launch_overhead_ns + bytes_in / self.compute_gbps


@dataclass(frozen=True)
class AcceleratorJob:
    """One offloaded kernel invocation."""

    bytes_in: int
    bytes_out: int
    host_core: int = 0

    def __post_init__(self) -> None:
        if self.bytes_in <= 0 or self.bytes_out <= 0:
            raise ConfigurationError("job sizes must be positive")


@dataclass
class JobTrace:
    """Per-phase timings of one dispatched job (all ns)."""

    phases: Dict[str, float] = field(default_factory=dict)
    start_ns: float = 0.0
    end_ns: float = 0.0

    #: Phase order for reporting.
    PHASE_ORDER = (
        "doorbell",
        "descriptor_fetch",
        "input_dma",
        "compute",
        "output_dma",
        "completion",
    )

    @property
    def total_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def signal_ns(self) -> float:
        """The latency-sensitive signal plane: doorbell + descriptor +
        completion (what the paper's intra-host switch protects)."""
        return (
            self.phases.get("doorbell", 0.0)
            + self.phases.get("descriptor_fetch", 0.0)
            + self.phases.get("completion", 0.0)
        )

    @property
    def data_ns(self) -> float:
        """The bandwidth-intensive data plane: input + output DMA."""
        return self.phases.get("input_dma", 0.0) + self.phases.get(
            "output_dma", 0.0
        )

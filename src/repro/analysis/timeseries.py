"""Time-series utilities for the bandwidth-over-time experiments (Figure 5)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import MeasurementError

__all__ = ["TimeSeries"]


@dataclass(frozen=True)
class TimeSeries:
    """A sampled signal: times (seconds) and values (e.g. GB/s)."""

    times_s: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times_s, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise MeasurementError(
                f"times/values shape mismatch: {times.shape} vs {values.shape}"
            )
        if times.size and np.any(np.diff(times) <= 0):
            raise MeasurementError("times must be strictly increasing")
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "values", values)

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean value over the half-open window ``[t0, t1)``."""
        mask = (self.times_s >= t0) & (self.times_s < t1)
        if not mask.any():
            raise MeasurementError(f"no samples in [{t0}, {t1})")
        return float(self.values[mask].mean())

    def settling_time_s(
        self,
        start_s: float,
        target: float,
        tolerance: float,
        end_s: Optional[float] = None,
    ) -> Optional[float]:
        """Time after ``start_s`` until the signal stays within ±``tolerance``
        of ``target`` (first sample from which it never leaves the band before
        ``end_s``). Returns None if it never settles.

        This is how the Figure 5 "bandwidth harvesting delay" (≈100 ms on the
        IF, ≈500 ms on the P Link) is extracted from the simulated series.
        """
        mask = self.times_s >= start_s
        if end_s is not None:
            mask &= self.times_s < end_s
        times = self.times_s[mask]
        values = self.values[mask]
        if times.size == 0:
            raise MeasurementError(f"no samples after {start_s}")
        inside = np.abs(values - target) <= tolerance
        # Find the first index from which every later sample is inside.
        ever_outside_after = np.flip(np.logical_or.accumulate(np.flip(~inside)))
        settled = np.nonzero(~ever_outside_after)[0]
        if settled.size == 0:
            return None
        return float(times[settled[0]] - start_s)

"""The intra-server traffic matrix.

Implication #2 calls for "developing an intra-server traffic matrix" to find
the throttling path segment at runtime; §4 #4 wants a switching module that
"proactively monitors the traffic matrix". :class:`TrafficMatrix` accumulates
(source chiplet → destination domain) rates and supports the classic
gravity-model estimation from row/column sums (the Medina et al. / Vardi
tomography lineage the paper cites).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.errors import ConfigurationError, MeasurementError

__all__ = ["TrafficMatrix"]


class TrafficMatrix:
    """A dense (sources × destinations) rate matrix in GB/s."""

    def __init__(self, sources: Sequence[str], destinations: Sequence[str]) -> None:
        if not sources or not destinations:
            raise ConfigurationError("need at least one source and destination")
        if len(set(sources)) != len(sources):
            raise ConfigurationError("duplicate source names")
        if len(set(destinations)) != len(destinations):
            raise ConfigurationError("duplicate destination names")
        self.sources = list(sources)
        self.destinations = list(destinations)
        self._src_index = {name: i for i, name in enumerate(self.sources)}
        self._dst_index = {name: i for i, name in enumerate(self.destinations)}
        self._rates = np.zeros((len(sources), len(destinations)))

    def record(self, source: str, destination: str, gbps: float) -> None:
        """Add gbps to one (source, destination) cell."""
        if gbps < 0:
            raise MeasurementError(f"negative rate {gbps}")
        try:
            i = self._src_index[source]
            j = self._dst_index[destination]
        except KeyError as exc:
            raise MeasurementError(f"unknown endpoint {exc}") from None
        self._rates[i, j] += gbps

    def rate(self, source: str, destination: str) -> float:
        """The accumulated rate of one (source, destination) cell."""
        return float(
            self._rates[self._src_index[source], self._dst_index[destination]]
        )

    def row_sums(self) -> Dict[str, float]:
        """Per-source egress rate (what a sender-side counter would see)."""
        return dict(zip(self.sources, self._rates.sum(axis=1)))

    def col_sums(self) -> Dict[str, float]:
        """Per-destination ingress rate (what a memory-side counter sees)."""
        return dict(zip(self.destinations, self._rates.sum(axis=0)))

    def total_gbps(self) -> float:
        """Sum of every matrix cell."""
        return float(self._rates.sum())

    @classmethod
    def gravity_estimate(
        cls,
        row_sums: Dict[str, float],
        col_sums: Dict[str, float],
    ) -> "TrafficMatrix":
        """Estimate the full matrix from link-level aggregates.

        The gravity model assumes independence: ``T[i,j] ≈ out_i · in_j / N``.
        It is exact when every source spreads proportionally (e.g. NPS1
        channel interleave) and is the standard baseline the traffic-matrix
        literature starts from.
        """
        sources = sorted(row_sums)
        destinations = sorted(col_sums)
        matrix = cls(sources, destinations)
        total = sum(row_sums.values())
        col_total = sum(col_sums.values())
        if abs(total - col_total) > max(1e-6, 1e-3 * max(total, col_total)):
            raise MeasurementError(
                f"row/column totals disagree: {total} vs {col_total}"
            )
        if total <= 0:
            return matrix
        for src in sources:
            for dst in destinations:
                matrix.record(src, dst, row_sums[src] * col_sums[dst] / total)
        return matrix

"""A perf-like per-flow profiler (§4 direction #5).

Combines exact top-k accounting with a count-min sketch backing store: the
sketch bounds memory regardless of flow cardinality, the heap keeps the
heavy hitters exact — the structure the paper proposes for distilling
"application-specific execution telemetry" at sub-microsecond granularity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.sketch import CountMinSketch

__all__ = ["FlowProfiler", "FlowSample"]


@dataclass(frozen=True)
class FlowSample:
    """One profiler event: a flow moved ``size_bytes`` at time ``t_ns``."""

    flow: str
    size_bytes: int
    t_ns: float


class FlowProfiler:
    """Streaming per-flow byte accounting with bounded memory."""

    def __init__(
        self, top_k: int = 8, sketch_width: int = 2048, sketch_depth: int = 4
    ) -> None:
        if top_k < 1:
            raise ConfigurationError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.sketch = CountMinSketch(sketch_width, sketch_depth)
        self._heavy: Dict[str, int] = {}
        self.samples = 0
        self.first_ns: float | None = None
        self.last_ns = 0.0

    def record(self, sample: FlowSample) -> None:
        """Account one flow event in the sketch and top-k set."""
        self.sketch.add(sample.flow, sample.size_bytes)
        self.samples += 1
        if self.first_ns is None:
            self.first_ns = sample.t_ns
        self.last_ns = max(self.last_ns, sample.t_ns)
        # Track candidates; estimates are re-queried at ranking time (a
        # stored snapshot goes stale as later collisions raise the
        # sketch's answer, under-reporting — and mis-evicting — flows).
        self._heavy[sample.flow] = sample.size_bytes
        if len(self._heavy) > 4 * self.top_k:
            for flow, __ in heapq.nsmallest(
                len(self._heavy) - 2 * self.top_k,
                (
                    (flow, self.sketch.estimate(flow))
                    for flow in self._heavy
                ),
                key=lambda item: item[1],
            ):
                del self._heavy[flow]

    def top_flows(self) -> List[Tuple[str, int]]:
        """The heaviest flows as (name, bytes-estimate), descending.

        Estimates come fresh from the sketch, so each reported count is
        the flow's current (never-under) estimate; ties rank by name for
        run-to-run byte-identical reports.
        """
        ranked = sorted(
            ((flow, self.sketch.estimate(flow)) for flow in self._heavy),
            key=lambda item: (-item[1], item[0]),
        )
        return ranked[: self.top_k]

    def report(self) -> str:
        """Multi-line text summary of the heaviest flows."""
        window = (
            (self.last_ns - self.first_ns) if self.first_ns is not None else 0.0
        )
        lines = [
            f"flow profiler: {self.samples} samples over {window:.0f} ns "
            f"({self.sketch.memory_cells} sketch cells)",
            f"{'flow':<28}{'bytes':>14}{'GB/s':>9}",
        ]
        for flow, estimate in self.top_flows():
            rate = estimate / window if window > 0 else 0.0
            lines.append(f"{flow:<28}{estimate:>14}{rate:>9.2f}")
        return "\n".join(lines)

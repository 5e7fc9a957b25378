"""Per-link telemetry counters.

The hardware exposes "very limited hardware monitoring counters" (§4 #5);
the simulated fabric has no such limitation. :class:`CounterRegistry` tracks
bytes and transactions per link and direction and computes utilization
against the link's configured capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import MeasurementError
from repro.platform.interconnect import LinkSpec

__all__ = ["LinkCounters", "CounterRegistry"]


@dataclass
class LinkCounters:
    """Byte/transaction counts for one link (both directions)."""

    link: LinkSpec
    read_bytes: int = 0
    write_bytes: int = 0
    read_txns: int = 0
    write_txns: int = 0

    def record(self, size_bytes: int, is_write: bool) -> None:
        """Account one transfer in the matching direction."""
        if size_bytes < 0:
            raise MeasurementError(f"negative transfer size {size_bytes}")
        if is_write:
            self.write_bytes += size_bytes
            self.write_txns += 1
        else:
            self.read_bytes += size_bytes
            self.read_txns += 1

    def utilization(self, is_write: bool, elapsed_ns: float) -> float:
        """Average direction utilization over ``elapsed_ns``."""
        if elapsed_ns <= 0:
            raise MeasurementError(f"elapsed must be positive, got {elapsed_ns}")
        moved = self.write_bytes if is_write else self.read_bytes
        capacity = self.link.capacity(is_write)
        return min(1.0, (moved / elapsed_ns) / capacity)


class CounterRegistry:
    """All links' counters, keyed by link name."""

    def __init__(self) -> None:
        self._counters: Dict[str, LinkCounters] = {}

    def attach(self, link: LinkSpec) -> LinkCounters:
        """Get (creating if needed) the counters for a link."""
        if link.name not in self._counters:
            self._counters[link.name] = LinkCounters(link)
        return self._counters[link.name]

    def get(self, name: str) -> Optional[LinkCounters]:
        """The counters for a link name, or None."""
        return self._counters.get(name)

    def record(self, link: LinkSpec, size_bytes: int, is_write: bool) -> None:
        """Account one transfer on a link's counters."""
        self.attach(link).record(size_bytes, is_write)

    def snapshot(self) -> Dict[str, LinkCounters]:
        """A shallow copy of all counters by link name."""
        return dict(self._counters)

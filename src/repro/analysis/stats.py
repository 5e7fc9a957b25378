"""Latency statistics and the fairness index.

The paper reports average and tail (P999) latency throughout (Figure 3);
:class:`LatencyStats` bundles both plus the usual distribution summary.

Multi-million-sample runs (the open-loop kvstore serving sweeps) never
need to hold every latency in one Python list: each shard keeps its own
sorted numpy array and :meth:`LatencyStats.merge` computes exact
percentiles across shards by multi-array order-statistic selection
(``searchsorted`` window narrowing — O(shards · log n) per percentile,
O(shards) extra memory).

:func:`jain_index` scores how evenly a set of flows shares bandwidth; the
contention experiments and the traffic manager all report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import MeasurementError

__all__ = ["percentile", "jain_index", "LatencyStats"]

#: Below this many remaining candidates the multi-array selection just
#: concatenates the windows — cheaper than further narrowing passes.
_SELECT_DIRECT = 4096


def _kth_of_sorted(parts: Sequence[np.ndarray], k: int) -> float:
    """The ``k``-th smallest (0-based) value across sorted arrays.

    Pivot-and-narrow selection: counts below/through a pivot come from
    ``searchsorted`` on each part's live window, so memory stays O(parts)
    no matter how many samples the parts hold.
    """
    windows: List[Tuple[np.ndarray, int, int]] = [
        (part, 0, part.size) for part in parts if part.size
    ]
    while True:
        total = sum(hi - lo for __, lo, hi in windows)
        if total <= _SELECT_DIRECT:
            merged = np.concatenate(
                [part[lo:hi] for part, lo, hi in windows]
            )
            return float(np.partition(merged, k)[k])
        # Pivot: the middle element of the largest live window.
        part, lo, hi = max(windows, key=lambda w: w[2] - w[1])
        pivot = part[(lo + hi) // 2]
        below = 0
        through = 0
        cuts = []
        for part, lo, hi in windows:
            left = int(np.searchsorted(part[lo:hi], pivot, side="left"))
            right = int(np.searchsorted(part[lo:hi], pivot, side="right"))
            below += left
            through += right
            cuts.append((left, right))
        if k < below:
            windows = [
                (part, lo, lo + left)
                for (part, lo, hi), (left, __) in zip(windows, cuts)
            ]
        elif k < through:
            return float(pivot)
        else:
            k -= through
            windows = [
                (part, lo + right, hi)
                for (part, lo, hi), (__, right) in zip(windows, cuts)
            ]
        windows = [w for w in windows if w[2] > w[1]]


def _percentiles_of_sorted(
    parts: Sequence[np.ndarray], qs: Sequence[float], count: int
) -> List[float]:
    """Exact linear-interpolation percentiles over sorted shards."""
    values = []
    for q in qs:
        rank = q / 100.0 * (count - 1)
        j = int(rank)
        gamma = rank - j
        low = _kth_of_sorted(parts, j)
        if gamma == 0.0 or j + 1 >= count:
            values.append(low)
            continue
        high = _kth_of_sorted(parts, j + 1)
        values.append(low + gamma * (high - low))
    return values


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) of ``samples`` (linear interpolation)."""
    if len(samples) == 0:
        raise MeasurementError("percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise MeasurementError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(Σx)² / (n·Σx²)`` of a rate vector.

    1.0 when every value is equal, ``1/n`` when one value holds
    everything. An all-zero vector counts as perfectly fair (1.0).
    """
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0:
        return 1.0
    return total * total / (len(values) * squares)


@dataclass(frozen=True)
class LatencyStats:
    """Summary of a latency sample set (all values in ns)."""

    count: int
    mean: float
    p50: float
    p99: float
    p999: float
    minimum: float
    maximum: float
    std: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyStats":
        if len(samples) == 0:
            raise MeasurementError("cannot summarize an empty sample set")
        data = np.asarray(samples, dtype=float)
        p50, p99, p999 = np.percentile(data, [50.0, 99.0, 99.9])
        return cls(
            count=int(data.size),
            mean=float(data.mean()),
            p50=float(p50),
            p99=float(p99),
            p999=float(p999),
            minimum=float(data.min()),
            maximum=float(data.max()),
            std=float(data.std()),
        )

    @classmethod
    def from_sorted(cls, samples: np.ndarray) -> "LatencyStats":
        """Summarize an already-sorted 1-D array without re-sorting it.

        Percentiles come from direct index interpolation on the sorted
        data — the path :meth:`merge` and the batched engines use after
        they have sorted shards once.
        """
        data = np.asarray(samples, dtype=float)
        if data.ndim != 1:
            raise MeasurementError("from_sorted needs a 1-D sample array")
        if data.size == 0:
            raise MeasurementError("cannot summarize an empty sample set")
        if data.size > 1 and (data[1:] < data[:-1]).any():
            raise MeasurementError("from_sorted needs non-decreasing samples")
        n = data.size
        values = []
        for q in (50.0, 99.0, 99.9):
            rank = q / 100.0 * (n - 1)
            j = int(rank)
            gamma = rank - j
            low = float(data[j])
            high = float(data[min(j + 1, n - 1)])
            values.append(low + gamma * (high - low))
        return cls(
            count=int(n),
            mean=float(data.mean()),
            p50=values[0],
            p99=values[1],
            p999=values[2],
            minimum=float(data[0]),
            maximum=float(data[-1]),
            std=float(data.std()),
        )

    @classmethod
    def merge(cls, parts: Sequence[np.ndarray]) -> "LatencyStats":
        """Exact summary across per-shard *sorted* sample arrays.

        Never concatenates the shards: moments stream shard by shard and
        tail percentiles come from multi-array order-statistic selection,
        so the extra memory is O(shards), not O(samples). The result is
        identical (to float arithmetic) to ``from_samples`` over the
        concatenation.
        """
        arrays = []
        for part in parts:
            data = np.asarray(part, dtype=float)
            if data.ndim != 1:
                raise MeasurementError("merge needs 1-D sample arrays")
            if data.size > 1 and (data[1:] < data[:-1]).any():
                raise MeasurementError(
                    "merge needs non-decreasing per-shard samples"
                )
            if data.size:
                arrays.append(data)
        count = sum(int(a.size) for a in arrays)
        if count == 0:
            raise MeasurementError("cannot summarize an empty sample set")
        total = sum(float(a.sum()) for a in arrays)
        mean = total / count
        # Squared deviations, shard by shard, in one scratch buffer.
        scratch = np.empty(max(a.size for a in arrays))
        sumsq = 0
        for a in arrays:
            dev = np.subtract(a, mean, out=scratch[: a.size])
            sumsq += float(np.square(dev, out=dev).sum())
        p50, p99, p999 = _percentiles_of_sorted(
            arrays, (50.0, 99.0, 99.9), count
        )
        return cls(
            count=count,
            mean=mean,
            p50=p50,
            p99=p99,
            p999=p999,
            minimum=min(float(a[0]) for a in arrays),
            maximum=max(float(a[-1]) for a in arrays),
            std=float(np.sqrt(sumsq / count)),
        )

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.1f}ns p50={self.p50:.1f}ns "
            f"p99={self.p99:.1f}ns p999={self.p999:.1f}ns max={self.maximum:.1f}ns"
        )

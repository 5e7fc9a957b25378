"""Declarative fault timelines that compile to both simulation backends.

A :class:`FaultSchedule` is an ordered set of :class:`FaultEvent` objects,
each degrading one named fabric channel (the :class:`~repro.core.fabric.
FabricModel` vocabulary: ``"gmi0:r"``, ``"noc:w"``, ``"umc3:r"``, ...) over
an interval of simulated time. Times are plain floats in the *consumer's*
clock — seconds when the schedule drives the fluid simulator, nanoseconds
when it drives the DES — so one schedule type serves both backends.

Determinism: flapping events expand into concrete down-intervals through a
:class:`~repro.sim.rng.SplitRng` stream derived from the schedule seed and
the event's identity, so the same seed always produces the same flap curve
regardless of what other events the schedule contains.

Severity: :meth:`FaultSchedule.scaled` produces a schedule whose degradation
depth is interpolated between healthy (severity 0) and the event's full
depth (severity 1). ``scaled(0.0)`` is the *null schedule*: it contains no
active intervals at all, so installing it anywhere is a guaranteed no-op and
results stay bit-identical to a healthy run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FaultInjectionError
from repro.sim.rng import SplitRng

__all__ = ["FaultKind", "FaultEvent", "FaultSchedule"]

#: Capacity multiplier standing in for "down" — strictly positive so fluid
#: channels and DES service rates stay well-defined.
STALL_FACTOR = 1e-3

#: Hard floor on any combined per-channel factor (overlapping faults
#: multiply; the floor keeps service times finite).
_MIN_FACTOR = 1e-3

#: Open-ended (permanent) intervals end here.
_FOREVER = float("inf")

#: Safety cap on flap cycles expanded per event.
_MAX_FLAPS = 100_000


class FaultKind(enum.Enum):
    """What happens to the channel while the event is active."""

    TRANSIENT_DERATE = "transient-derate"
    PERMANENT_FAILURE = "permanent-failure"
    FLAPPING = "flapping"
    DEVICE_STALL = "device-stall"


@dataclass(frozen=True)
class FaultEvent:
    """One fault on one channel.

    ``factor`` is the capacity multiplier while the fault is active, in
    (0, 1]; ``start``/``end`` bound the active window (``end=None`` means
    forever — permanent failures). Flapping events alternate between healthy
    and ``factor`` with jittered period ``flap_period`` and duty cycle
    ``flap_duty`` (fraction of each period spent degraded).
    """

    kind: FaultKind
    channel: str
    start: float
    end: Optional[float] = None
    factor: float = 0.5
    flap_period: Optional[float] = None
    flap_duty: float = 0.5

    def __post_init__(self) -> None:
        if self.start < 0:
            raise FaultInjectionError(
                f"{self.channel}: fault start must be >= 0, got {self.start}"
            )
        if not 0.0 < self.factor <= 1.0:
            raise FaultInjectionError(
                f"{self.channel}: factor must be in (0, 1], got {self.factor}"
            )
        if self.kind is FaultKind.PERMANENT_FAILURE:
            if self.end is not None:
                raise FaultInjectionError(
                    f"{self.channel}: a permanent failure has no end time"
                )
        else:
            if self.end is None or self.end <= self.start:
                raise FaultInjectionError(
                    f"{self.channel}: {self.kind.value} needs end > start "
                    f"(got [{self.start}, {self.end}))"
                )
        if self.kind is FaultKind.FLAPPING:
            if self.flap_period is None or self.flap_period <= 0:
                raise FaultInjectionError(
                    f"{self.channel}: flapping needs a positive flap_period"
                )
            if not 0.0 < self.flap_duty < 1.0:
                raise FaultInjectionError(
                    f"{self.channel}: flap_duty must be in (0, 1), "
                    f"got {self.flap_duty}"
                )

    # ------------------------------------------------------------ constructors

    @classmethod
    def derate(
        cls, channel: str, start: float, end: float, factor: float
    ) -> "FaultEvent":
        """A transient derate: the channel runs at ``factor`` in [start, end)."""
        return cls(FaultKind.TRANSIENT_DERATE, channel, start, end, factor)

    @classmethod
    def failure(
        cls, channel: str, start: float, factor: float = 0.05
    ) -> "FaultEvent":
        """A permanent failure: from ``start`` on, only ``factor`` survives
        (a lane-failure residue, not a clean zero — capacities stay positive)."""
        return cls(FaultKind.PERMANENT_FAILURE, channel, start, None, factor)

    @classmethod
    def flapping(
        cls,
        channel: str,
        start: float,
        end: float,
        period: float,
        factor: float = 0.3,
        duty: float = 0.5,
    ) -> "FaultEvent":
        """A flapping link: alternates healthy/degraded with jittered period."""
        return cls(
            FaultKind.FLAPPING, channel, start, end, factor,
            flap_period=period, flap_duty=duty,
        )

    @classmethod
    def stall(cls, channel: str, start: float, end: float) -> "FaultEvent":
        """A device stall: the channel serves nothing during [start, end)."""
        return cls(FaultKind.DEVICE_STALL, channel, start, end, STALL_FACTOR)


class _ChannelFactor:
    """Duck-typed capacity schedule (``.at(t)``) for the fluid simulator."""

    __slots__ = ("_schedule", "_channel")

    def __init__(self, schedule: "FaultSchedule", channel: str) -> None:
        self._schedule = schedule
        self._channel = channel

    def at(self, t: float) -> float:
        return self._schedule.factor_at(self._channel, t)

    def at_many(self, times: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`at` — one factor per entry of ``times``."""
        return self._schedule.factor_curve(self._channel, times)


class FaultSchedule:
    """An immutable, severity-scalable timeline of fault events."""

    def __init__(
        self,
        events: Sequence[FaultEvent] = (),
        seed: int = 0,
        severity: float = 1.0,
    ) -> None:
        if not 0.0 <= severity <= 1.0:
            raise FaultInjectionError(
                f"severity must be in [0, 1], got {severity}"
            )
        self.events: Tuple[FaultEvent, ...] = tuple(events)
        self.seed = int(seed)
        self.severity = float(severity)
        #: Expanded (start, end, factor) intervals per channel, flaps
        #: unrolled; empty when the schedule is null.
        self._intervals: Dict[str, List[Tuple[float, float, float]]] = {}
        if self.severity > 0.0:
            for index, event in enumerate(self.events):
                self._intervals.setdefault(event.channel, []).extend(
                    self._expand(event, index)
                )
            for spans in self._intervals.values():
                spans.sort()

    # -------------------------------------------------------------- expansion

    def _effective_factor(self, factor: float) -> float:
        """Interpolate degradation depth by severity (1.0 = healthy)."""
        return 1.0 - self.severity * (1.0 - factor)

    def _expand(
        self, event: FaultEvent, index: int
    ) -> List[Tuple[float, float, float]]:
        if event.kind is FaultKind.DEVICE_STALL:
            # A stall is binary: severity scales its *duration* (see
            # :meth:`scaled`), never its depth.
            factor = event.factor
        else:
            factor = self._effective_factor(event.factor)
        if factor >= 1.0:
            return []
        end = _FOREVER if event.end is None else event.end
        if event.kind is not FaultKind.FLAPPING:
            return [(event.start, end, factor)]
        # Flapping: deterministic jittered down-phases. The stream depends
        # only on (seed, channel, event index), so the curve is stable under
        # severity scaling and under unrelated schedule edits.
        rng = SplitRng(self.seed).stream(f"flap/{event.channel}/{index}")
        spans: List[Tuple[float, float, float]] = []
        t = event.start
        for __ in range(_MAX_FLAPS):
            if t >= end:
                break
            period = event.flap_period * (0.5 + rng.random())
            down_until = min(t + period * event.flap_duty, end)
            spans.append((t, down_until, factor))
            t += period
        return spans

    # ---------------------------------------------------------------- queries

    @property
    def is_null(self) -> bool:
        """True when no event ever degrades anything (e.g. severity 0)."""
        return not self._intervals

    @property
    def channels(self) -> List[str]:
        """Channels with at least one active interval, sorted."""
        return sorted(self._intervals)

    def factor_at(self, channel: str, t: float) -> float:
        """Combined capacity multiplier on ``channel`` at time ``t``.

        Overlapping faults multiply (two half-speed events leave a quarter),
        floored at a strictly positive minimum.
        """
        factor = 1.0
        for start, end, f in self._intervals.get(channel, ()):
            if start <= t < end:
                factor *= f
        return max(factor, _MIN_FACTOR)

    def factor_curve(
        self, channel: str, times: Sequence[float]
    ) -> np.ndarray:
        """Vectorized :meth:`factor_at` over a whole time array.

        Applies the same sorted intervals in the same multiplication order
        per element, so ``factor_curve(c, ts)[i] == factor_at(c, ts[i])``
        bit-for-bit.
        """
        times = np.asarray(times, dtype=float)
        factor = np.ones(times.shape)
        for start, end, f in self._intervals.get(channel, ()):
            factor[(times >= start) & (times < end)] *= f
        return np.maximum(factor, _MIN_FACTOR)

    def derates_at(self, t: float) -> Dict[str, float]:
        """Per-channel factors at one instant, FabricModel-derate shaped.

        Channels at full health are omitted, so the result plugs straight
        into ``FabricModel(platform, derates=...)``.
        """
        derates: Dict[str, float] = {}
        for channel in self._intervals:
            factor = self.factor_at(channel, t)
            if factor < 1.0:
                derates[channel] = factor
        return derates

    def worst_derates(self) -> Dict[str, float]:
        """Deepest per-channel factor over all time — the steady-state view.

        Feed this to ``FabricModel(platform, derates=...)`` for a worst-case
        fluid solve; channels that never degrade are omitted.
        """
        derates: Dict[str, float] = {}
        for channel, spans in self._intervals.items():
            worst = 1.0
            boundaries = {start for start, __, ___ in spans}
            for t in boundaries:
                worst = min(worst, self.factor_at(channel, t))
            if worst < 1.0:
                derates[channel] = max(worst, _MIN_FACTOR)
        return derates

    def capacity_factors(self) -> Dict[str, _ChannelFactor]:
        """Per-channel ``.at(t)`` factor curves for ``FluidSimulator``.

        Pass the result as ``capacity_schedules=`` — the simulator only ever
        calls ``.at(t)``, so the multiplicative fault semantics are kept
        (a ``DemandSchedule`` would *add* overlapping deltas instead).
        """
        return {name: _ChannelFactor(self, name) for name in self.channels}

    def rate_points(self, channel: str) -> List[Tuple[float, float]]:
        """(time, combined factor) at every change point of ``channel``.

        This is the DES interposer's program: apply each factor at its time.
        Device stalls are excluded — on the DES they hold the channel's
        service lanes outright instead of scaling its rate.
        """
        stall_spans = self._stall_spans(channel)

        def in_stall(start: float, end: float) -> bool:
            return any(s == start and e == end for s, e, __ in stall_spans)

        times = sorted({
            t
            for start, end, __ in self._intervals.get(channel, ())
            if not in_stall(start, end)
            for t in (start, end)
            if t < _FOREVER
        })
        return [(t, self._rate_factor_at(channel, t)) for t in times]

    def _stall_spans(self, channel: str) -> List[Tuple[float, float, float]]:
        spans: List[Tuple[float, float, float]] = []
        for index, event in enumerate(self.events):
            if event.channel != channel:
                continue
            if event.kind is not FaultKind.DEVICE_STALL:
                continue
            if self.severity <= 0.0:
                continue
            spans.extend(self._expand(event, index))
        return spans

    def _rate_factor_at(self, channel: str, t: float) -> float:
        """Like :meth:`factor_at` but ignoring device-stall intervals."""
        stall_spans = set(self._stall_spans(channel))
        factor = 1.0
        for span in self._intervals.get(channel, ()):
            if span in stall_spans:
                continue
            start, end, f = span
            if start <= t < end:
                factor *= f
        return max(factor, _MIN_FACTOR)

    def stall_windows(self, channel: str) -> List[Tuple[float, float]]:
        """Concrete [start, end) stall windows on ``channel``."""
        return [(start, end) for start, end, __ in self._stall_spans(channel)]

    # ------------------------------------------------------------ derivations

    def scaled(self, severity: float) -> "FaultSchedule":
        """This schedule with degradation depth interpolated by ``severity``.

        Severity 0 yields the null schedule (bit-identical to healthy);
        severity 1 yields full depth. Stall events scale in *duration*: at
        severity s a [start, end) stall becomes [start, start + s·(end−start)).
        """
        if not 0.0 <= severity <= 1.0:
            raise FaultInjectionError(
                f"severity must be in [0, 1], got {severity}"
            )
        events = []
        for event in self.events:
            if event.kind is FaultKind.DEVICE_STALL and severity > 0.0:
                span = (event.end - event.start) * severity
                events.append(replace(event, end=event.start + span))
            else:
                events.append(event)
        return FaultSchedule(events, seed=self.seed, severity=severity)

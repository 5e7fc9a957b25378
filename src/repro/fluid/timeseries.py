"""Time-stepped fluid simulation for bandwidth-over-time experiments.

Each step the simulator (1) evaluates every flow's offered demand from its
:class:`DemandSchedule`, (2) solves the steady-state allocation with the
configured policy, and (3) advances every flow's *achieved* rate toward its
allocation through the flow's adaptation model. The output is one
:class:`FlowTrace` per flow — directly comparable to Figure 5's bandwidth
utilization timelines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.timeseries import TimeSeries
from repro.errors import ConfigurationError, SimulationError
from repro.fluid.adaptation import AdaptationModel, InstantAdaptation
from repro.fluid.solver import Channel, FluidFlow, Policy, solve

#: Tolerance for the strict-mode allocation invariants (GB/s).
_INVARIANT_EPS = 1e-6

__all__ = ["DemandSchedule", "FlowTrace", "FluidSimulator"]


@dataclass(frozen=True)
class DemandSchedule:
    """A base demand plus timed deltas (e.g. "throttle by 2 GB/s in [2s,3s)")."""

    base_gbps: float
    #: (start_s, end_s, delta_gbps) — delta is *added* during the interval.
    deltas: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (math.isfinite(self.base_gbps) and self.base_gbps >= 0):
            raise ConfigurationError(
                "base demand must be finite and non-negative"
            )
        for start, end, delta in self.deltas:
            if end <= start:
                raise ConfigurationError(f"empty delta interval [{start}, {end})")
            if not math.isfinite(delta):
                raise ConfigurationError(
                    f"delta over [{start}, {end}) must be finite"
                )

    def at(self, t_s: float) -> float:
        """Offered demand (GB/s) at time t (seconds)."""
        demand = self.base_gbps
        for start, end, delta in self.deltas:
            if start <= t_s < end:
                demand += delta
        return max(0.0, demand)

    def at_many(self, times_s: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`at` — applies the deltas in the same order per
        element, so ``at_many(ts)[i] == at(ts[i])`` bit-for-bit."""
        times = np.asarray(times_s, dtype=float)
        demand = np.full(times.shape, self.base_gbps)
        for start, end, delta in self.deltas:
            demand[(times >= start) & (times < end)] += delta
        return np.maximum(0.0, demand)


@dataclass
class FlowTrace:
    """One flow's sampled achieved bandwidth (plus demand, for reference)."""

    name: str
    times_s: List[float] = field(default_factory=list)
    achieved_gbps: List[float] = field(default_factory=list)
    demand_gbps: List[float] = field(default_factory=list)

    def achieved_series(self) -> TimeSeries:
        """The achieved-bandwidth samples as a TimeSeries."""
        return TimeSeries(np.asarray(self.times_s), np.asarray(self.achieved_gbps))


class FluidSimulator:
    """Drives scheduled flows through the allocation solver over time.

    ``capacity_schedules`` makes channel capacities time-varying: a mapping
    from channel name to a schedule of capacity *multipliers* (base 1.0,
    deltas negative for throttling). Any object with an ``at(t_s) -> float``
    method qualifies — a :class:`DemandSchedule`, or the multiplicative
    per-channel factor curves a :class:`~repro.faults.schedule.FaultSchedule`
    compiles to (``schedule.capacity_factors()``). This models link-level
    events — a thermally throttled P Link, a flapping xGMI lane — and the
    flows' adaptation to them.

    ``strict=True`` checks the solver's allocation invariants every step —
    no flow above its demand, no channel above its (scheduled) capacity —
    raising :class:`~repro.errors.SimulationError` with the offending flow
    or channel and timestamp instead of silently producing plausible-but-
    wrong curves.
    """

    def __init__(
        self,
        flows: Sequence[FluidFlow],
        schedules: Dict[str, DemandSchedule],
        adaptations: Optional[Dict[str, AdaptationModel]] = None,
        policy: Policy = Policy.DEMAND_PROPORTIONAL,
        dt_s: float = 0.005,
        capacity_schedules: Optional[Dict[str, DemandSchedule]] = None,
        strict: bool = False,
    ) -> None:
        if dt_s <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt_s}")
        names = {flow.name for flow in flows}
        missing = names - set(schedules)
        if missing:
            raise ConfigurationError(f"flows without a demand schedule: {missing}")
        channel_names = {
            channel.name for flow in flows for channel, __ in flow.path
        }
        unknown = set(capacity_schedules or {}) - channel_names
        if unknown:
            raise ConfigurationError(
                f"capacity schedules for unknown channels: {unknown}"
            )
        self.flows = list(flows)
        self.schedules = schedules
        self.capacity_schedules = dict(capacity_schedules or {})
        self.adaptations: Dict[str, AdaptationModel] = {
            name: (adaptations or {}).get(name, InstantAdaptation())
            for name in names
        }
        self.policy = policy
        self.dt_s = dt_s
        self.strict = bool(strict)

    def _check_invariants(
        self, flows: List[FluidFlow], allocation: Dict[str, float], t_s: float
    ) -> None:
        """Strict mode: the solver's contract, verified on every step."""
        loads: Dict[str, float] = {}
        capacities: Dict[str, float] = {}
        for flow in flows:
            granted = allocation[flow.name]
            if granted < -_INVARIANT_EPS:
                raise SimulationError(
                    f"t={t_s:.4f}s: flow {flow.name!r} got a negative "
                    f"allocation ({granted} GB/s)"
                )
            if granted > flow.demand_gbps + _INVARIANT_EPS:
                raise SimulationError(
                    f"t={t_s:.4f}s: flow {flow.name!r} was allocated "
                    f"{granted} GB/s above its demand {flow.demand_gbps}"
                )
            for channel, weight in flow.path:
                loads[channel.name] = (
                    loads.get(channel.name, 0.0) + granted * weight
                )
                capacities[channel.name] = channel.capacity_gbps
        for name, load in loads.items():
            if load > capacities[name] * (1.0 + 1e-9) + _INVARIANT_EPS:
                raise SimulationError(
                    f"t={t_s:.4f}s: channel {name!r} oversubscribed — "
                    f"load {load} GB/s exceeds capacity {capacities[name]}"
                )

    def _flows_at(self, t_s: float) -> List[FluidFlow]:
        """The flow set with channel capacities scaled for time ``t``."""
        if not self.capacity_schedules:
            return self.flows
        scaled: Dict[str, Channel] = {}
        for flow in self.flows:
            for channel, __ in flow.path:
                if channel.name in scaled:
                    continue
                schedule = self.capacity_schedules.get(channel.name)
                factor = schedule.at(t_s) if schedule is not None else 1.0
                if factor <= 0:
                    raise ConfigurationError(
                        f"channel {channel.name}: capacity factor must stay "
                        f"positive (got {factor} at t={t_s})"
                    )
                scaled[channel.name] = Channel(
                    channel.name, channel.capacity_gbps * factor
                )
        return [
            FluidFlow(
                flow.name,
                flow.demand_gbps,
                [(scaled[c.name], w) for c, w in flow.path],
                elastic=flow.elastic,
                weight=flow.weight,
            )
            for flow in self.flows
        ]

    def run(self, duration_s: float) -> Dict[str, FlowTrace]:
        """Simulate ``duration_s`` seconds; returns a trace per flow.

        Precomputes the demand and capacity series as arrays and only calls
        the solver when the inputs actually changed — piecewise-constant
        schedules like Figure 5's collapse from thousands of solves to a
        handful. Memoized steps reuse the solver's own earlier output, so
        the traces are identical to :meth:`_run_reference`, the step loop
        the tests compare against.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        return self._run_fast(duration_s)

    def _run_reference(self, duration_s: float) -> Dict[str, FlowTrace]:
        """The straightforward step loop: re-evaluate and re-solve every step."""
        traces = {flow.name: FlowTrace(flow.name) for flow in self.flows}
        # Start every flow at its t=0 allocation (steady state before the run).
        for flow in self.flows:
            flow.demand_gbps = self.schedules[flow.name].at(0.0)
        initial = solve(self._flows_at(0.0), self.policy)
        for flow in self.flows:
            self.adaptations[flow.name].reset(initial[flow.name])

        steps = int(round(duration_s / self.dt_s))
        for step in range(steps):
            t = step * self.dt_s
            for flow in self.flows:
                flow.demand_gbps = self.schedules[flow.name].at(t)
            stepped = self._flows_at(t)
            allocation = solve(stepped, self.policy)
            if self.strict:
                self._check_invariants(stepped, allocation, t)
            for flow in self.flows:
                achieved = self.adaptations[flow.name].step(
                    allocation[flow.name], self.dt_s
                )
                # A sender can undershoot its allocation while ramping, but it
                # can never exceed what the channels actually grant it... with
                # one exception: an under-damped sender (the 7302 IF) briefly
                # overshoots into the other flow's share — that *is* the
                # "drastic variation" of Figure 5, so only clamp to demand.
                achieved = min(achieved, flow.demand_gbps)
                trace = traces[flow.name]
                trace.times_s.append(t)
                trace.achieved_gbps.append(achieved)
                trace.demand_gbps.append(flow.demand_gbps)
        return traces

    # ------------------------------------------------------------- fast path

    @staticmethod
    def _series(schedule, times: List[float]) -> np.ndarray:
        """Evaluate a schedule over all ``times`` (vectorized when it can)."""
        at_many = getattr(schedule, "at_many", None)
        if at_many is not None:
            return np.asarray(at_many(times), dtype=float)
        return np.array([schedule.at(t) for t in times], dtype=float)

    def _solve_step(
        self, demand_column: np.ndarray, caps_column: Optional[List[float]]
    ) -> np.ndarray:
        """One cold solve: materialize the flow set and call :func:`solve`.

        Goes through the module-global ``solve`` exactly like the reference
        loop, so test monkeypatching sees the same seam on both paths.
        """
        for j, flow in enumerate(self.flows):
            flow.demand_gbps = float(demand_column[j])
        if caps_column is None:
            stepped = self.flows
        else:
            scaled = {
                channel.name: Channel(channel.name, cap)
                for channel, cap in zip(self._visit_channels, caps_column)
            }
            stepped = [
                FluidFlow(
                    flow.name,
                    flow.demand_gbps,
                    [(scaled[c.name], w) for c, w in flow.path],
                    elastic=flow.elastic,
                    weight=flow.weight,
                )
                for flow in self.flows
            ]
        allocation = solve(stepped, self.policy)
        return np.array(
            [allocation[flow.name] for flow in self.flows], dtype=float
        )

    def _check_fast(
        self,
        alloc: np.ndarray,
        demands: np.ndarray,
        caps: np.ndarray,
        matrix: np.ndarray,
        t_s: float,
    ) -> None:
        """Strict invariants on one step's vectors; first-violation order
        (flow order, negative before above-demand, then channels in path
        visit order) matches :meth:`_check_invariants`."""
        negative = alloc < -_INVARIANT_EPS
        above = alloc > demands + _INVARIANT_EPS
        if (negative | above).any():
            j = int(np.argmax(negative | above))
            name = self.flows[j].name
            if negative[j]:
                raise SimulationError(
                    f"t={t_s:.4f}s: flow {name!r} got a negative "
                    f"allocation ({float(alloc[j])} GB/s)"
                )
            raise SimulationError(
                f"t={t_s:.4f}s: flow {name!r} was allocated "
                f"{float(alloc[j])} GB/s above its demand "
                f"{float(demands[j])}"
            )
        loads = matrix @ alloc
        over = loads > caps * (1.0 + 1e-9) + _INVARIANT_EPS
        if over.any():
            k = int(np.argmax(over))
            raise SimulationError(
                f"t={t_s:.4f}s: channel {self._visit_channels[k].name!r} "
                f"oversubscribed — load {float(loads[k])} GB/s exceeds "
                f"capacity {float(caps[k])}"
            )

    def _run_fast(self, duration_s: float) -> Dict[str, FlowTrace]:
        """Array-driven run: precomputed schedules + solve memoization.

        Per step the solver is consulted only when (demands, capacities)
        differ from the previous step.
        """
        flows = self.flows
        n_flows = len(flows)
        steps = int(round(duration_s / self.dt_s))
        times = [step * self.dt_s for step in range(steps)]
        eval_times = times if steps else [0.0]

        demand_matrix = np.empty((n_flows, len(eval_times)))
        for j, flow in enumerate(flows):
            demand_matrix[j] = self._series(
                self.schedules[flow.name], eval_times
            )

        # Channels in path-visit order (first appearance), like _flows_at.
        visit: List[Channel] = []
        seen = set()
        for flow in flows:
            for channel, __ in flow.path:
                if channel.name not in seen:
                    seen.add(channel.name)
                    visit.append(channel)
        self._visit_channels = visit
        matrix = np.zeros((len(visit), n_flows))
        index_of = {channel.name: k for k, channel in enumerate(visit)}
        for j, flow in enumerate(flows):
            for channel, weight in flow.path:
                matrix[index_of[channel.name], j] += weight
        base_caps = np.array([channel.capacity_gbps for channel in visit])

        caps_matrix: Optional[np.ndarray] = None
        if self.capacity_schedules:
            factors = np.ones((len(visit), len(eval_times)))
            for k, channel in enumerate(visit):
                schedule = self.capacity_schedules.get(channel.name)
                if schedule is not None:
                    factors[k] = self._series(schedule, eval_times)
            if (factors <= 0.0).any():
                # Same first offender as the reference loop: earliest step,
                # then first channel in visit order.
                s = int(np.flatnonzero((factors <= 0.0).any(axis=0))[0])
                k = int(np.flatnonzero(factors[:, s] <= 0.0)[0])
                raise ConfigurationError(
                    f"channel {visit[k].name}: capacity factor must stay "
                    f"positive (got {factors[k, s]} at t={eval_times[s]})"
                )
            caps_matrix = base_caps[:, None] * factors

        def caps_at(step: int):
            if caps_matrix is None:
                return None, base_caps
            column = caps_matrix[:, step]
            return column.tolist(), column

        # Initial solve at t=0 (steady state before the run). times[0] is
        # also 0.0, so it seeds the memo for step 0.
        caps_list0, caps_vec0 = caps_at(0)
        alloc = self._solve_step(demand_matrix[:, 0], caps_list0)
        for j, flow in enumerate(flows):
            self.adaptations[flow.name].reset(float(alloc[j]))
        memo_demands = demand_matrix[:, 0].tobytes()
        memo_caps = caps_vec0.tobytes()

        alloc_matrix = np.empty((n_flows, steps))
        for step in range(steps):
            demand_column = demand_matrix[:, step]
            caps_list, caps_vec = caps_at(step)
            demand_key = demand_column.tobytes()
            caps_key = caps_vec.tobytes()
            if demand_key != memo_demands or caps_key != memo_caps:
                alloc = self._solve_step(demand_column, caps_list)
                memo_demands, memo_caps = demand_key, caps_key
            if self.strict:
                self._check_fast(
                    alloc, demand_column, caps_vec, matrix, times[step]
                )
            alloc_matrix[:, step] = alloc

        traces = {flow.name: FlowTrace(flow.name) for flow in flows}
        for j, flow in enumerate(flows):
            if steps:
                flow.demand_gbps = float(demand_matrix[j, -1])
            model = self.adaptations[flow.name]
            targets = alloc_matrix[j].tolist()
            run_series = getattr(model, "run_series", None)
            if run_series is not None:
                raw = run_series(targets, self.dt_s)
            else:
                raw = [model.step(target, self.dt_s) for target in targets]
            demand_list = demand_matrix[j].tolist() if steps else []
            trace = traces[flow.name]
            trace.times_s = list(times)
            trace.achieved_gbps = [
                min(achieved, demand)
                for achieved, demand in zip(raw, demand_list)
            ]
            trace.demand_gbps = demand_list
        return traces

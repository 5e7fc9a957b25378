"""repro — Server Chiplet Networking (HotNets '25) reproduction.

A chiplet-server interconnect simulator plus the paper's characterization
suite. Quickstart::

    from repro import MicroBench, epyc_9634, OpKind, Scope

    bench = MicroBench(epyc_9634())
    level, stats = bench.pointer_chase(working_set_bytes=64 * 2**20)
    print(level, stats)                        # DRAM, ~141 ns
    print(bench.stream_bandwidth(Scope.CPU, OpKind.READ))   # ~366 GB/s

Layers (bottom-up): :mod:`repro.sim` (DES kernel), :mod:`repro.platform`
(the SoC model and the EPYC 7302/9634 presets), :mod:`repro.noc` /
:mod:`repro.memory` / :mod:`repro.transport` (substrates),
:mod:`repro.fluid` (flow-level contention), :mod:`repro.core` (the
microbenchmark utility), :mod:`repro.manager` and :mod:`repro.telemetry`
(the paper's §4 proposals), :mod:`repro.experiments` (one module per
table/figure), and :mod:`repro.runner` (deterministic fan-out of
independent experiment cells over worker processes).
"""

from repro.core.flows import Scope, StreamSpec
from repro.core.microbench import MicroBench
from repro.errors import (
    CellExecutionError,
    ChipletError,
    ConfigurationError,
    ConvergenceError,
    FaultInjectionError,
    MeasurementError,
    SimulationError,
    TopologyError,
)
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.platform.numa import NpsMode, Position
from repro.platform.presets import epyc_7302, epyc_9634
from repro.platform.topology import Platform, PlatformSpec
from repro.runner import (
    Cell,
    CellFailure,
    CellResult,
    resolve_jobs,
    run_cells,
    run_cells_detailed,
)
from repro.transport.message import OpKind

__version__ = "1.0.0"

__all__ = [
    "MicroBench",
    "Scope",
    "StreamSpec",
    "OpKind",
    "Platform",
    "PlatformSpec",
    "Position",
    "NpsMode",
    "epyc_7302",
    "epyc_9634",
    "Cell",
    "CellFailure",
    "CellResult",
    "resolve_jobs",
    "run_cells",
    "run_cells_detailed",
    "FaultEvent",
    "FaultKind",
    "FaultSchedule",
    "CellExecutionError",
    "ChipletError",
    "ConfigurationError",
    "FaultInjectionError",
    "ConvergenceError",
    "MeasurementError",
    "SimulationError",
    "TopologyError",
    "__version__",
]

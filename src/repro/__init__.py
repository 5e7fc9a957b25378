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

``import repro`` loads none of them: each name in ``__all__`` is imported
from its defining module the first time it is used.
"""

from importlib import import_module

__version__ = "1.0.0"

#: Where each public name is defined. The package imports none of these
#: modules itself; :func:`__getattr__` imports one on its name's first use.
_ORIGINS = {
    "MicroBench": "repro.core.microbench",
    "Scope": "repro.core.flows",
    "StreamSpec": "repro.core.flows",
    "OpKind": "repro.transport.message",
    "Platform": "repro.platform.topology",
    "PlatformSpec": "repro.platform.topology",
    "Position": "repro.platform.numa",
    "NpsMode": "repro.platform.numa",
    "epyc_7302": "repro.platform.presets",
    "epyc_9634": "repro.platform.presets",
    "Cell": "repro.runner",
    "CellFailure": "repro.runner",
    "CellResult": "repro.runner",
    "resolve_jobs": "repro.runner",
    "run_cells": "repro.runner",
    "run_cells_detailed": "repro.runner",
    "FaultEvent": "repro.faults.schedule",
    "FaultKind": "repro.faults.schedule",
    "FaultSchedule": "repro.faults.schedule",
    "CellExecutionError": "repro.errors",
    "ChipletError": "repro.errors",
    "ConfigurationError": "repro.errors",
    "FaultInjectionError": "repro.errors",
    "ConvergenceError": "repro.errors",
    "MeasurementError": "repro.errors",
    "SimulationError": "repro.errors",
    "TopologyError": "repro.errors",
}

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


def __getattr__(name: str):
    """Resolve a public name from its defining module (PEP 562).

    Nothing is cached here: ``repro.X`` is always the defining module's
    current attribute, so a wrapper or monkeypatch installed there is what
    every caller sees.
    """
    try:
        origin = _ORIGINS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(origin), name)

"""One module per table/figure of the paper's evaluation (§3).

Each module exposes ``run(...)`` returning a structured result and
``render(result)`` producing the paper-style text artifact. The benchmark
harness under ``benchmarks/`` calls these and checks the shape criteria of
DESIGN.md §6; EXPERIMENTS.md records paper-vs-measured values.

The five submittable kinds — :mod:`~repro.experiments.netstack`,
:mod:`~repro.experiments.chaos`, :mod:`~repro.experiments.trace`,
:mod:`~repro.experiments.kvserve` and :mod:`~repro.experiments.explore` —
expose ``cells(...)`` instead of ``run(...)``: the kind's one list of
:class:`~repro.runner.Cell`, which ``repro <kind>`` and the service's
:func:`~repro.service.registry.build_cells` both run through
:func:`~repro.runner.run_cells_detailed`.
"""

from repro.experiments import (  # noqa: F401
    ablations,
    accel_dispatch,
    chaos,
    fig3,
    fig4,
    fig5,
    fig6,
    noc_routing,
    os_scaling,
    patterns,
    summary,
    table1,
    table2,
    table3,
    validation,
)

__all__ = [
    "table1",
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "ablations",
    "accel_dispatch",
    "chaos",
    "os_scaling",
    "noc_routing",
    "patterns",
    "summary",
    "validation",
]

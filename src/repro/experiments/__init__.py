"""One module per table/figure of the paper's evaluation (§3), and more.

Each artifact module exposes ``run(...)`` (one measurement, returning a
structured result), ``cells(...)`` (the artifact's list of
:class:`~repro.runner.Cell`, one per independent measurement) and
``render(...)`` (the paper-style text). Every artifact is a kind of
:mod:`repro.service.registry`, which normalizes a spec's params, builds
its cells from ``cells()`` and renders their results: ``repro <kind>``,
``repro submit <kind>`` and the service all run kinds that way, through
:func:`~repro.runner.run_cells_detailed`. ``repro all``
(:mod:`~repro.experiments.summary`) runs the paper's tables and figures
as one batch. The benchmark harness under ``benchmarks/`` checks the
shape criteria of DESIGN.md §6; EXPERIMENTS.md records paper-vs-measured
values.
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

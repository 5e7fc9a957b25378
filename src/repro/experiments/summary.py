"""One-call reproduction: every paper artifact in a single report.

``reproduce_all`` is the "run everything" entry point a new user reaches
for first: it regenerates Tables 1-3 and Figures 3-6 (plus the headline
ablation) and concatenates the paper-style renderings. Every cell of every
artifact runs in one runner batch, so in-batch dedup and the result cache
see all of them. Two quality levels trade DES sample counts for
wall-clock time; they only pick the cells' arguments.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConfigurationError
from repro.platform.presets import epyc_7302, epyc_9634

__all__ = ["QUALITY_PRESETS", "reproduce_all"]

#: (pointer-chase iterations, DES transactions/core, fig3 load fractions).
QUALITY_PRESETS: Dict[str, tuple] = {
    "quick": (600, 300, (0.3, 0.8)),
    "full": (2500, 1500, (0.2, 0.4, 0.6, 0.8, 0.9)),
}


def reproduce_all(quality: str = "quick", seed: int = 0, jobs=None) -> str:
    """Regenerate every table and figure; returns the combined report.

    ``jobs`` fans the cells out over worker processes (see
    :mod:`repro.runner`); the report is byte-identical for any value. A
    failed cell raises its error, and no report is returned.
    """
    try:
        iterations, transactions, fractions = QUALITY_PRESETS[quality]
    except KeyError:
        raise ConfigurationError(
            f"unknown quality {quality!r} (choose from "
            f"{sorted(QUALITY_PRESETS)})"
        ) from None
    from repro.experiments import (
        ablations,
        fig3,
        fig4,
        fig5,
        fig6,
        table1,
        table2,
        table3,
    )
    from repro.runner import Cell, run_groups, values_of

    p7302, p9634 = epyc_7302(), epyc_9634()
    both = (p7302, p9634)

    def by_platform(values):
        return {value.platform: value for value in values}

    def ablation_line(values):
        fair_before, fair_after = values[0]["case4-unequal-demands"].fairness()
        return (
            "Ablation highlights: the max-min traffic manager lifts case-4 "
            f"Jain fairness from {fair_before:.3f} to {fair_after:.3f}; see "
            "EXPERIMENTS.md, Ablations, for the full ablation set."
        )

    # (cells, rendering of their values), in report order.
    sections = [
        (table1.cells(), lambda values: table1.render(values[0])),
        (
            [c for p in both for c in table2.cells(p, iterations, seed)],
            lambda values: table2.render(by_platform(values)),
        ),
        (
            [c for p in both for c in table3.cells(p, seed)],
            lambda values: table3.render(by_platform(values)),
        ),
        (
            [
                c for p in both
                for c in fig3.cells(p, transactions, fractions, seed)
            ],
            fig3.render,
        ),
        ([c for p in both for c in fig4.cells(p)], fig4.render),
        # 9634 first: the report lists its IF and P Link before the 7302's IF.
        (fig5.cells(p9634) + fig5.cells(p7302), fig5.render),
        (fig6.cells(p9634), lambda values: fig6.render(values[0])),
        (
            [Cell(ablations.manager_vs_sender_driven, (p9634,))],
            ablation_line,
        ),
    ]
    results = run_groups([cells for cells, __ in sections], jobs=jobs)
    values = [values_of(group) for group in results]
    return "\n\n".join(
        render(group) for (__, render), group in zip(sections, values)
    )

"""Cross-platform characterization suite (§4 direction #5).

"It would be useful to develop a benchmarking framework for cross-platform
systematic characterization and to produce practical guidelines."

:class:`CharacterizationSuite` runs the paper's methodology — latency
ladder, queueing probes, bandwidth-domain ladder, partitioning cases —
against *any* :class:`~repro.platform.topology.Platform`, then distills the
numeric guidelines a systems developer would act on (placement penalty,
interconnect-wall position, CXL tiering cost, write asymmetry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from repro.analysis.report import render_table
from repro.core.coretocore import ccx_sample, measure_matrix
from repro.experiments import fig4, table2, table3
from repro.platform.topology import Platform
from repro.runner import Cell, run_cells

__all__ = ["CharacterizationReport", "CharacterizationSuite"]


@dataclass(frozen=True)
class CharacterizationReport:
    """Everything the suite measured for one platform, plus guidelines."""

    platform: str
    latency: table2.Table2Row
    bandwidth: table3.Table3Result
    partitioning: fig4.Fig4Result
    guidelines: Tuple[str, ...]

    def render(self) -> str:
        """The full report as paper-style text."""
        lines = [
            f"=== characterization: {self.platform} ===",
            table2.render({self.platform: self.latency})
            if self.platform in table2.PAPER_TABLE2
            else self._render_latency(),
            "",
            self._render_bandwidth(),
            "",
            "practical guidelines:",
        ]
        lines += [f"  * {guideline}" for guideline in self.guidelines]
        return "\n".join(lines)

    def _render_latency(self) -> str:
        row = self.latency.as_dict()
        cells = [
            [key, "N/A" if value is None else f"{value:.2f}"]
            for key, value in row.items()
        ]
        return render_table(
            ["latency (ns)", self.platform], cells,
            title="data-path latency breakdown",
        )

    def _render_bandwidth(self) -> str:
        rows = []
        for (scope, target), (read, write) in sorted(self.bandwidth.cells.items()):
            rows.append([scope, target, f"{read:.1f}", f"{write:.1f}"])
        return render_table(
            ["from", "to", "read GB/s", "write GB/s"], rows,
            title="bandwidth domains",
        )


def _handoff_matrix(platform: Platform):
    """The sampled core-to-core matrix (one core per CCX) — a runner cell."""
    return measure_matrix(platform, core_ids=ccx_sample(platform))


class CharacterizationSuite:
    """Runs the full §3 methodology on any platform.

    ``jobs`` fans the suite's independent measurement cells (the latency
    ladder, the bandwidth ladder, the partitioning cases, and the handoff
    matrix) out over worker processes; every cell builds its own
    simulation environment, so reports are bit-identical for any value.
    """

    def __init__(self, iterations: int = 1200, seed: int = 0, jobs=None) -> None:
        self.iterations = iterations
        self.seed = seed
        self.jobs = jobs

    def run(self, platform: Platform) -> CharacterizationReport:
        """Characterize one platform and derive guidelines."""
        return self.report(
            platform, run_cells(self.cells(platform), jobs=self.jobs)
        )

    def cells(self, platform: Platform) -> List[Cell]:
        """The platform's four measurement cells, in :meth:`report` order."""
        return [
            Cell(
                table2.run, (platform,),
                {"iterations": self.iterations, "seed": self.seed},
            ),
            Cell(table3.run, (platform,), {"seed": self.seed}),
            Cell(fig4.run, (platform,)),
            Cell(_handoff_matrix, (platform,)),
        ]

    def report(
        self, platform: Platform, values: Sequence[Any]
    ) -> CharacterizationReport:
        """The report from the values of :meth:`cells`, in order."""
        latency, bandwidth, partitioning, matrix = values
        guidelines = tuple(
            self.derive_guidelines(platform, latency, bandwidth, matrix)
        )
        return CharacterizationReport(
            platform.name, latency, bandwidth, partitioning, guidelines
        )

    def derive_guidelines(
        self,
        platform: Platform,
        latency: table2.Table2Row,
        bandwidth: table3.Table3Result,
        matrix,
    ) -> List[str]:
        """Numeric, actionable guidance from the measurements.

        ``matrix`` is the sampled core-to-core handoff matrix.
        """
        guidelines: List[str] = []

        worst = max(latency.vertical, latency.horizontal, latency.diagonal)
        placement_penalty = (worst - latency.near) / latency.near
        guidelines.append(
            f"place latency-critical data in the local NUMA domain: the "
            f"worst DIMM position costs {placement_penalty:.0%} more than "
            f"near ({worst:.0f} vs {latency.near:.0f} ns)"
        )

        core_read = bandwidth.read_gbps("core")
        cpu_read = bandwidth.read_gbps("cpu")
        linear = core_read * platform.spec.cores
        wall = cpu_read / linear
        guidelines.append(
            f"the interconnect wall caps aggregate reads at "
            f"{cpu_read:.0f} GB/s — {wall:.0%} of linear core scaling "
            f"({platform.spec.cores} x {core_read:.1f} GB/s); plan for "
            f"~{cpu_read / platform.spec.cores:.1f} GB/s per core at scale"
        )

        ccx_read = bandwidth.read_gbps("ccx")
        guidelines.append(
            f"a single chiplet saturates at {ccx_read:.1f} GB/s; spread "
            f"bandwidth-hungry threads across chiplets before adding "
            f"threads within one"
        )

        write_ratio = bandwidth.write_gbps("cpu") / cpu_read
        guidelines.append(
            f"streaming writes deliver only {write_ratio:.0%} of read "
            f"bandwidth; prefer read-mostly layouts for hot aggregate paths"
        )

        if latency.cxl is not None:
            premium = latency.cxl / latency.near
            cxl_cpu = bandwidth.read_gbps("cpu", "cxl")
            guidelines.append(
                f"CXL memory costs {premium:.2f}x local DRAM latency and "
                f"caps at {cxl_cpu:.0f} GB/s; tier bandwidth-insensitive, "
                f"capacity-hungry data there"
            )

        if latency.max_ccd_q is not None:
            guidelines.append(
                f"traffic-control queueing adds up to "
                f"{latency.max_ccx_q + latency.max_ccd_q:.0f} ns under "
                f"chiplet saturation; latency-critical threads should not "
                f"share a chiplet with streaming ones"
            )
        else:
            guidelines.append(
                f"traffic-control queueing adds up to "
                f"{latency.max_ccx_q:.0f} ns under chiplet saturation; "
                f"latency-critical threads should not share a chiplet with "
                f"streaming ones"
            )

        # Thread-placement tiers from the core-to-core handoff matrix
        # (sampled: one core per CCX is enough for the tier means).
        tiers = {t.name: t for t in matrix.classes(platform)}
        if "cross-ccd" in tiers:
            cross = tiers["cross-ccd"].latency_ns
            local = platform.spec.latency.l3_ns
            guidelines.append(
                f"a cross-chiplet cacheline handoff costs {cross:.0f} ns "
                f"({cross / local:.1f}x a same-CCX handoff); pin "
                f"communicating thread pairs to one core complex"
            )
        return guidelines

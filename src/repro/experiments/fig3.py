"""Figure 3 — average and P999 latency versus offered load.

Six panels, each a transaction-level DES sweep: rate-controlled sequential
reads and non-temporal writes from a set of cores toward DRAM or CXL memory,
with per-transaction latency sampling. Queueing at whichever resource
saturates (GMI port, UMC channel, hub port/P Link) produces the latency
rise; DRAM timing jitter produces the P999 tail.

Panel configurations (core counts and per-op issue windows) are calibration
constants chosen so the *endpoint* latencies land near the paper's; the
shape — flat at low load, knee near capacity, tails amplifying before
averages — is emergent. Paper endpoints (avg/P999 ns, low load → max load):

=========================  ======================  ======================
panel                      read                    write
=========================  ======================  ======================
(a) IF intra-CC, 7302      144.5/490 flat          142.5/500 flat
(b) IF intra-CC, 9634      ≈2× rise near peak      ≈2× rise near peak
(c) IF inter-CC, 7302      flat                    flat
(d) GMI, 7302              123.7/470 → 172.5/800   123.9/480 → 153.5/630
(e) GMI, 9634              143.7/380 → 249.5/810   144.1/350 → 695.8/1750
(f) P Link/CXL, 9634       ≈1.7×/1.4× rise         ≈2.1×/1.6× rise
=========================  ======================  ======================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.report import render_table
from repro.core.loadgen import LoadResult
from repro.core.microbench import MicroBench
from repro.errors import ConfigurationError
from repro.platform.numa import Position
from repro.platform.topology import Platform
from repro.runner import Cell
from repro.transport.message import OpKind

__all__ = [
    "PanelConfig", "PanelSweep", "run_panel", "cells", "panel_configs",
    "render",
]

#: Offered-load fractions of the panel's saturation bandwidth; the final
#: point is unthrottled (None rate → window-limited saturation).
LOAD_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.9)


@dataclass(frozen=True)
class PanelConfig:
    """One Figure 3 panel's workload definition."""

    panel: str
    platform_name: str
    description: str
    core_count: int
    target: str                       # "dram" or "cxl"
    position: Optional[Position]      # DRAM position (None → near group)
    window_read: int
    window_write: int
    #: Offered-load sweep ceiling (GB/s); roughly the bottleneck capacity.
    max_offered_read: float
    max_offered_write: float
    #: Whether cores span multiple chiplets (inter-CC panels).
    spread_ccds: bool = False


def panel_configs(platform: Platform) -> List[PanelConfig]:
    """The paper's panels available on ``platform``."""
    bw = platform.spec.bandwidth
    if "7302" in platform.name:
        return [
            # (a) IF intra-CC: one CCX, windows kept inside the token pool →
            # nothing saturates, latency is flat at the diagonal-DRAM base.
            PanelConfig(
                "a", platform.name, "IF intra-CC (7302)",
                core_count=2, target="dram", position=Position.DIAGONAL,
                window_read=20, window_write=6,
                max_offered_read=16.0, max_offered_write=4.5,
            ),
            # (c) IF inter-CC: two chiplets, load well inside the NoC.
            PanelConfig(
                "c", platform.name, "IF inter-CC (7302)",
                core_count=4, target="dram", position=Position.DIAGONAL,
                window_read=20, window_write=6, spread_ccds=True,
                max_offered_read=32.0, max_offered_write=9.0,
            ),
            # (d) GMI: one chiplet saturating its GMI port toward the near
            # UMC group; reads pile up to the CCD token pool.
            PanelConfig(
                "d", platform.name, "GMI (7302)",
                core_count=4, target="dram", position=Position.NEAR,
                window_read=22, window_write=9,
                max_offered_read=bw.gmi_read_gbps,
                max_offered_write=bw.gmi_write_gbps,
            ),
        ]
    if "9634" in platform.name:
        return [
            # (b) IF intra-CC: the whole 7-core chiplet against its
            # less-provisioned IF/GMI — ≈2× latency at peak.
            PanelConfig(
                "b", platform.name, "IF intra-CC (9634)",
                core_count=7, target="dram", position=Position.DIAGONAL,
                window_read=22, window_write=15,
                max_offered_read=bw.gmi_read_gbps,
                max_offered_write=bw.gmi_write_gbps,
            ),
            # (e) GMI: one chiplet against its near UMC group; deep NT-write
            # coalescing buffers produce the paper's write-tail blowup.
            PanelConfig(
                "e", platform.name, "GMI (9634)",
                core_count=7, target="dram", position=Position.NEAR,
                window_read=19, window_write=37,
                max_offered_read=bw.gmi_read_gbps,
                max_offered_write=bw.gmi_write_gbps,
            ),
            # (f) P Link/CXL: one chiplet against the hub port + CXL pool.
            PanelConfig(
                "f", platform.name, "P Link/CXL (9634)",
                core_count=7, target="cxl", position=None,
                window_read=22, window_write=18,
                max_offered_read=bw.hub_port_read_gbps,
                max_offered_write=bw.hub_port_write_gbps,
            ),
        ]
    raise ConfigurationError(f"no Figure 3 panels for {platform.name}")


@dataclass(frozen=True)
class PanelSweep:
    """One panel × one op: latency stats across the offered-load sweep."""

    config: PanelConfig
    op: OpKind
    offered_gbps: Tuple[Optional[float], ...]
    results: Tuple[LoadResult, ...]

    @property
    def base(self) -> LoadResult:
        return self.results[0]

    @property
    def peak(self) -> LoadResult:
        return self.results[-1]

    def mean_rise(self) -> float:
        """Peak-to-base ratio of the average latency."""
        return self.peak.stats.mean / self.base.stats.mean

    def tail_rise(self) -> float:
        """Peak-to-base ratio of the P999 latency."""
        return self.peak.stats.p999 / self.base.stats.p999


def _core_ids(platform: Platform, config: PanelConfig) -> List[int]:
    ccd_ids = sorted(platform.ccds)
    if not config.spread_ccds:
        cores = platform.cores_of_ccd(ccd_ids[0])[: config.core_count]
        return [core.core_id for core in cores]
    # Spread over the first two chiplets the platform actually has (one,
    # on single-CCD generated topologies, degenerates to no spread).
    spread = ccd_ids[:2]
    per_ccd = max(1, config.core_count // len(spread))
    ids: List[int] = []
    for ccd_id in spread:
        ids += [
            core.core_id
            for core in platform.cores_of_ccd(ccd_id)[:per_ccd]
        ]
    return ids[: config.core_count]


def _target_umcs(platform: Platform, config: PanelConfig) -> Optional[List[int]]:
    if config.target != "dram" or config.position is None:
        return None
    return sorted(
        umc.umc_id for umc in platform.umcs_at(0, config.position)
    )


def run_panel(
    platform: Platform,
    config: PanelConfig,
    op: OpKind,
    transactions_per_core: int = 600,
    fractions: Sequence[float] = LOAD_FRACTIONS,
    seed: int = 0,
) -> PanelSweep:
    """Sweep offered load for one panel and op kind."""
    bench = MicroBench(platform, seed=seed)
    core_ids = _core_ids(platform, config)
    umc_ids = _target_umcs(platform, config)
    max_offered = (
        config.max_offered_write if op.is_write else config.max_offered_read
    )
    window = config.window_write if op.is_write else config.window_read
    offered: List[Optional[float]] = [f * max_offered for f in fractions]
    offered.append(None)  # unthrottled: the panel's saturation point
    results = [
        bench.loaded_latency(
            core_ids, op, rate,
            umc_ids=umc_ids,
            target=config.target,
            window_per_core=window,
            transactions_per_core=transactions_per_core,
        )
        for rate in offered
    ]
    return PanelSweep(config, op, tuple(offered), tuple(results))


def cells(
    platform: Platform,
    transactions_per_core: int = 600,
    fractions: Sequence[float] = LOAD_FRACTIONS,
    seed: int = 0,
) -> List[Cell]:
    """Every (panel, op) sweep of the platform, one runner cell each.

    Each sweep builds its own Environment and seed streams, so results are
    bit-identical for any ``--jobs``. Order is canonical: panels in
    ``panel_configs`` order, READ before NT_WRITE. A platform with no
    Figure 3 panels raises :class:`ConfigurationError`.
    """
    return [
        Cell(
            run_panel,
            (platform, config, op),
            dict(
                transactions_per_core=transactions_per_core,
                fractions=tuple(fractions),
                seed=seed,
            ),
        )
        for config in panel_configs(platform)
        for op in (OpKind.READ, OpKind.NT_WRITE)
    ]


def export_csv(sweeps: Sequence[PanelSweep], out_dir) -> List[str]:
    """Write one CSV per (panel, op) sweep; returns the file paths.

    Columns: offered GB/s (empty for the unthrottled point), achieved GB/s,
    average ns, P999 ns - everything needed to re-plot the figure.
    """
    from pathlib import Path

    from repro.analysis.export import rows_to_csv

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for sweep in sweeps:
        rows = []
        for rate, result in zip(sweep.offered_gbps, sweep.results):
            rows.append([
                "" if rate is None else f"{rate:.3f}",
                f"{result.achieved_gbps:.3f}",
                f"{result.stats.mean:.2f}",
                f"{result.stats.p999:.2f}",
            ])
        path = directory / (
            f"fig3_{sweep.config.panel}_{sweep.op.value}.csv"
        )
        rows_to_csv(
            ["offered_gbps", "achieved_gbps", "avg_ns", "p999_ns"],
            rows, path,
        )
        written.append(str(path))
    return written


def render(sweeps: Sequence[PanelSweep]) -> str:
    """Render the result as an aligned paper-style text table."""
    headers = [
        "panel", "op", "offered GB/s", "achieved GB/s",
        "avg ns", "P999 ns",
    ]
    rows = []
    for sweep in sweeps:
        for rate, result in zip(sweep.offered_gbps, sweep.results):
            rows.append([
                f"({sweep.config.panel}) {sweep.config.description}",
                sweep.op.value,
                "max" if rate is None else f"{rate:.1f}",
                f"{result.achieved_gbps:.1f}",
                f"{result.stats.mean:.1f}",
                f"{result.stats.p999:.1f}",
            ])
    return render_table(
        headers, rows, title="Figure 3: latency vs offered load"
    )

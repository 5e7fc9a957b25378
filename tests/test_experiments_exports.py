"""Tests for figure CSV exports and the one-call reproduction runner."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import fig3, summary
from repro.transport.message import OpKind


class TestFig3Export:
    def test_csv_per_panel_op(self, p7302, tmp_path):
        config = fig3.panel_configs(p7302)[0]
        sweep = fig3.run_panel(
            p7302, config, OpKind.READ,
            transactions_per_core=150, fractions=(0.5,),
        )
        written = fig3.export_csv([sweep], tmp_path)
        assert len(written) == 1
        lines = (tmp_path / "fig3_a_read.csv").read_text().splitlines()
        assert lines[0] == "offered_gbps,achieved_gbps,avg_ns,p999_ns"
        assert len(lines) == 3  # header + one paced point + saturation
        # The unthrottled saturation point has an empty offered column.
        assert lines[-1].startswith(",")


class TestSummary:
    def test_unknown_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            summary.reproduce_all(quality="ludicrous")

    def test_quick_report_contains_every_artifact(self):
        report = summary.reproduce_all(quality="quick")
        for marker in (
            "Table 1", "Table 2", "Table 3",
            "Figure 3", "Figure 4", "Figure 5", "Figure 6",
            "Jain fairness",
        ):
            assert marker in report, marker

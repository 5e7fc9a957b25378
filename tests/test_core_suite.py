"""Tests for the cross-platform characterization suite (§4 #5)."""

import pytest

from repro.core.suite import CharacterizationSuite
from repro.platform.presets import synthetic_ucie


@pytest.fixture(scope="module")
def suite():
    return CharacterizationSuite(iterations=500)


@pytest.fixture(scope="module")
def synthetic_report(suite):
    return suite.run(synthetic_ucie())


class TestSuite:
    def test_runs_on_calibrated_platform(self, suite, p7302):
        report = suite.run(p7302)
        assert report.platform == "EPYC 7302"
        assert report.latency.near == pytest.approx(124.0, rel=0.05)
        assert report.bandwidth.read_gbps("cpu") == pytest.approx(106.7, rel=0.05)

    def test_runs_on_uncalibrated_platform(self, synthetic_report):
        # The framework works on a platform it was never tuned for.
        assert synthetic_report.platform == "Synthetic UCIe"
        assert synthetic_report.latency.near == pytest.approx(127.0, abs=4.0)
        assert synthetic_report.latency.cxl == pytest.approx(190.0, abs=5.0)

    def test_guidelines_are_generated(self, synthetic_report):
        assert len(synthetic_report.guidelines) >= 5
        text = " ".join(synthetic_report.guidelines)
        assert "interconnect wall" in text
        assert "CXL" in text

    def test_guideline_numbers_match_measurements(self, synthetic_report):
        bandwidth = synthetic_report.bandwidth
        wall_line = next(
            g for g in synthetic_report.guidelines if "interconnect wall" in g
        )
        assert f"{bandwidth.read_gbps('cpu'):.0f} GB/s" in wall_line

    def test_render_contains_sections(self, synthetic_report):
        text = synthetic_report.render()
        assert "bandwidth domains" in text
        assert "practical guidelines:" in text

    def test_compare_multiple(self, suite, p7302):
        reports = {
            platform.name: suite.run(platform)
            for platform in (p7302, synthetic_ucie())
        }
        assert set(reports) == {"EPYC 7302", "Synthetic UCIe"}

    def test_synthetic_keeps_the_interconnect_wall(self, synthetic_report):
        # The designed-in property: even the next-gen part's NoC binds
        # below Σ(GMI) — the paper's wall persists.
        spec = synthetic_ucie().spec
        gmi_sum = spec.ccd_count * spec.bandwidth.gmi_read_gbps
        assert synthetic_report.bandwidth.read_gbps("cpu") < gmi_sum

    def test_synthetic_partitioning_still_aggressive(self, synthetic_report):
        cases = synthetic_report.partitioning.outcomes["gmi"]
        outcome = cases["case4-unequal-demands"]
        assert outcome.achieved["flow1"] > outcome.equal_share()

    @pytest.mark.parametrize("preset", ["7302", "9634", "synthetic"])
    def test_idiosyncrasies_hold_on_every_preset(
        self, suite, synthetic_report, preset, p7302, p9634
    ):
        # The paper's idiosyncrasies are structural, not one machine's.
        platform = {
            "7302": p7302, "9634": p9634, "synthetic": synthetic_ucie(),
        }[preset]
        report = (
            synthetic_report if preset == "synthetic" else suite.run(platform)
        )
        # #1 extended data paths: positional NUMA spread.
        assert report.latency.near < report.latency.horizontal
        # #2 heterogeneous bandwidth domains: the whole CPU reads less
        # than its cores would alone.
        assert report.bandwidth.read_gbps("cpu") < (
            report.bandwidth.read_gbps("core") * len(platform.cores)
        )
        # #4 sender-driven partitioning on every link.
        for cases in report.partitioning.outcomes.values():
            outcome = cases["case4-unequal-demands"]
            assert outcome.achieved["flow1"] > outcome.equal_share()
        assert len(report.guidelines) >= 5

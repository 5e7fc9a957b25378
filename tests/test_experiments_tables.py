"""Tests for the Table 1/2/3 experiment harnesses against paper values."""

import pytest

from repro.experiments import table1, table2, table3


class TestTable1:
    def test_matches_paper_exactly(self):
        result = table1.run()
        for name, expected in table1.PAPER_TABLE1.items():
            measured = result.rows[name]
            for key, value in expected.items():
                assert measured[key] == value, (name, key)

    def test_render(self):
        text = table1.render(table1.run())
        assert "Zen 2" in text and "Zen 4" in text
        assert "384" in text  # 9634 L3 MiB


@pytest.fixture(scope="module")
def table2_rows(p7302, p9634):
    return {
        p7302.name: table2.run(p7302, iterations=800),
        p9634.name: table2.run(p9634, iterations=800),
    }


class TestTable2:
    def test_cache_levels_within_five_percent(self, table2_rows):
        for name, row in table2_rows.items():
            paper = table2.PAPER_TABLE2[name]
            assert row.l1 == pytest.approx(paper["l1"], rel=0.05)
            assert row.l2 == pytest.approx(paper["l2"], rel=0.05)
            assert row.l3 == pytest.approx(paper["l3"], rel=0.05)

    def test_dram_positions_within_five_percent(self, table2_rows):
        for name, row in table2_rows.items():
            paper = table2.PAPER_TABLE2[name]
            for key in ("near", "vertical", "horizontal", "diagonal"):
                measured = getattr(row, key)
                assert measured == pytest.approx(paper[key], rel=0.05), (
                    name, key,
                )

    def test_queueing_bounds_within_twelve_percent(self, table2_rows):
        for name, row in table2_rows.items():
            paper = table2.PAPER_TABLE2[name]
            assert row.max_ccx_q == pytest.approx(paper["max_ccx_q"], rel=0.12)
            if paper["max_ccd_q"] is not None:
                assert row.max_ccd_q == pytest.approx(
                    paper["max_ccd_q"], rel=0.12
                )

    def test_queueing_bounds(self, table2_rows):
        row7 = table2_rows["EPYC 7302"]
        assert row7.max_ccx_q == pytest.approx(30.0, abs=3.0)
        assert row7.max_ccd_q == pytest.approx(20.0, abs=3.0)
        row9 = table2_rows["EPYC 9634"]
        assert row9.max_ccx_q == pytest.approx(20.0, abs=3.0)
        assert row9.max_ccd_q is None

    def test_cxl_only_on_9634(self, table2_rows):
        assert table2_rows["EPYC 7302"].cxl is None
        assert table2_rows["EPYC 9634"].cxl == pytest.approx(243.0, rel=0.03)

    def test_position_ordering_holds(self, table2_rows):
        for row in table2_rows.values():
            assert row.near < row.vertical
            assert row.near < row.diagonal
            assert row.vertical < row.horizontal

    def test_9634_diagonal_beats_horizontal(self, table2_rows):
        row = table2_rows["EPYC 9634"]
        assert row.diagonal < row.horizontal

    def test_7302_diagonal_is_farthest(self, table2_rows):
        row = table2_rows["EPYC 7302"]
        assert row.diagonal > row.vertical

    def test_cxl_costs_its_premium_over_near_dram(self, table2_rows):
        # CXL ≈ 1.7× local DRAM on the 9634.
        row = table2_rows["EPYC 9634"]
        assert row.cxl / row.near == pytest.approx(243 / 141, rel=0.05)

    def test_render(self, table2_rows):
        text = table2.render(table2_rows)
        assert "DRAM near" in text
        assert "CXL DIMM" in text
        assert "(paper)" in text


@pytest.fixture(scope="module")
def table3_results(p7302, p9634):
    return {
        p7302.name: table3.run(p7302),
        p9634.name: table3.run(p9634),
    }


class TestTable3:
    @pytest.mark.parametrize("name", ["EPYC 7302", "EPYC 9634"])
    def test_dram_cells_within_ten_percent(self, table3_results, name):
        result = table3_results[name]
        for (scope, target), (read, write) in table3.PAPER_TABLE3[name].items():
            if target != "dram" or scope == "ccd":
                continue  # paper's CCD/CCX split on 9634 is within noise
            measured_read, measured_write = result.cells[(scope, target)]
            assert measured_read == pytest.approx(read, rel=0.10), (scope, "r")
            assert measured_write == pytest.approx(write, rel=0.10), (scope, "w")

    def test_7302_ccd_cells_within_ten_percent(self, table3_results):
        # Only the 9634's CCD row is paper noise (its CCX row exceeds it).
        result = table3_results["EPYC 7302"]
        read, write = table3.PAPER_TABLE3["EPYC 7302"][("ccd", "dram")]
        measured_read, measured_write = result.cells[("ccd", "dram")]
        assert measured_read == pytest.approx(read, rel=0.10)
        assert measured_write == pytest.approx(write, rel=0.10)

    def test_cxl_cells_within_ten_percent(self, table3_results):
        result = table3_results["EPYC 9634"]
        paper = table3.PAPER_TABLE3["EPYC 9634"]
        for scope in ("core", "ccx", "cpu"):
            read, write = paper[(scope, "cxl")]
            measured_read, measured_write = result.cells[(scope, "cxl")]
            assert measured_read == pytest.approx(read, rel=0.10)
            assert measured_write == pytest.approx(write, rel=0.10)

    def test_scope_scaling_monotonic(self, table3_results):
        for result in table3_results.values():
            reads = [
                result.read_gbps(scope) for scope in ("core", "ccx", "cpu")
            ]
            assert reads == sorted(reads)
            assert len(set(reads)) == len(reads)    # strictly

    def test_write_below_read_everywhere(self, table3_results):
        for result in table3_results.values():
            for (scope, target), (read, write) in result.cells.items():
                assert write < read, (scope, target)

    def test_cpu_binds_on_noc_not_gmi_sum(self, table3_results, p7302):
        result = table3_results["EPYC 7302"]
        gmi_sum = 4 * p7302.spec.bandwidth.gmi_read_gbps
        assert result.read_gbps("cpu") < gmi_sum

    def test_cxl_below_local_dram(self, table3_results):
        result = table3_results["EPYC 9634"]
        for scope in ("core", "ccx", "cpu"):
            assert result.read_gbps(scope, "cxl") < result.read_gbps(scope)

    def test_single_umc_ceiling(self, p7302):
        read, write = table3.umc_channel_bandwidth(p7302)
        assert read == pytest.approx(21.1, rel=0.05)
        assert write == pytest.approx(19.0, rel=0.05)

    def test_render(self, table3_results):
        text = table3.render(table3_results)
        assert "From CPU" in text
        assert "106.7/55.1" in text  # paper column present

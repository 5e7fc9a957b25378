"""Tests for the ``repro netstack`` experiment (repro.experiments.netstack)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments import netstack
from repro.runner import run_cells_detailed


class TestConfigFor:
    def test_arms_map_to_their_labels(self):
        for arm in netstack.ARMS:
            assert netstack.config_for(arm).label == arm

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigurationError):
            netstack.config_for("turbo")

    def test_unknown_backend_rejected(self, p7302):
        with pytest.raises(ConfigurationError):
            netstack.run_point(p7302, "off", "quantum")


class TestFairnessRestoration:
    """The acceptance property, on both backends of the contended cell."""

    @pytest.fixture(scope="class")
    def points(self, p7302):
        return {
            (arm, backend): netstack.run_point(
                p7302, arm, backend, transactions_per_core=200
            )
            for arm in ("off", "credits")
            for backend in netstack.BACKENDS
        }

    @pytest.mark.parametrize("backend", netstack.BACKENDS)
    def test_credits_improve_victim_share(self, points, backend):
        off = points[("off", backend)]
        on = points[("credits", backend)]
        assert off.victim_share < 1.0  # the cell actually contends
        assert on.victim_share > off.victim_share

    @pytest.mark.parametrize("backend", netstack.BACKENDS)
    def test_credits_strictly_increase_jain(self, points, backend):
        assert (
            points[("credits", backend)].jain
            > points[("off", backend)].jain
        )

    def test_fluid_points_carry_no_latency(self, points):
        point = points[("off", "fluid")]
        assert math.isnan(point.p50_ns) and math.isnan(point.p99_ns)

    def test_des_points_carry_latency(self, points):
        point = points[("off", "des")]
        assert point.p50_ns > 0 and point.p99_ns >= point.p50_ns


class TestRunner:
    def test_jobs_invariance(self, p7302):
        cells = netstack.cells(p7302, arms=("off",), transactions_per_core=100)
        serial = run_cells_detailed(cells, jobs=1)
        parallel = run_cells_detailed(cells, jobs=2)
        assert netstack.render("x", serial) == netstack.render("x", parallel)

    def test_render_table_shape(self, p7302):
        results = run_cells_detailed(
            netstack.cells(p7302, arms=("off",), transactions_per_core=100),
            jobs=1,
        )
        table = netstack.render(p7302.name, results)
        assert "Netstack" in table
        assert "fluid" in table and "des" in table
        # Fluid rows render their missing latency columns as dashes.
        fluid_row = next(
            line for line in table.splitlines() if "fluid" in line
        )
        assert "- " in fluid_row or fluid_row.rstrip().endswith("-")

    def test_failed_cell_renders_in_place(self, p7302):
        results = run_cells_detailed(
            netstack.cells(p7302, arms=("bogus",), transactions_per_core=100),
            jobs=1,
        )
        assert all(not result.ok for result in results)
        table = netstack.render(p7302.name, results)
        assert "FAILED" in table

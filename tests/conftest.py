"""Shared fixtures: the two paper platforms, built once per session, and
the fluid-implementation pin the cross-implementation tests use."""

import math
import os

import pytest

from repro.fluid import solver
from repro.fluid.timeseries import FluidSimulator
from repro.platform.presets import epyc_7302, epyc_9634

# Tests monkeypatch experiment functions and then drive cli.main(); the
# CLI's default-on result cache would persist those doctored values under
# real keys. Keep the whole test process uncached unless a test opts in
# explicitly (monkeypatch.setenv / an explicit ResultCache).
os.environ.setdefault("REPRO_CACHE", "0")


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help=(
            "rewrite tests/goldens/*.json from the current simulator "
            "output instead of comparing against it"
        ),
    )


@pytest.fixture(scope="session")
def update_goldens(request):
    """True when the run should rewrite golden snapshots, not check them."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session")
def p7302():
    return epyc_7302()


@pytest.fixture(scope="session")
def p9634():
    return epyc_9634()


@pytest.fixture(scope="session", params=["7302", "9634"])
def platform(request, p7302, p9634):
    """Parametrized over both evaluated platforms."""
    return p7302 if request.param == "7302" else p9634


@pytest.fixture()
def pin_fluid(monkeypatch):
    """Pin the fluid layer to one implementation for this test.

    ``pin_fluid("python")`` sends every :func:`repro.fluid.solver.solve`
    call to the reference loops and every :meth:`FluidSimulator.run` to its
    reference step loop; ``pin_fluid("numpy")`` sends every solve, however
    small, to the vectorized implementation and restores the fast run.
    Cross-implementation tests call it once per side of a comparison.
    """
    fast_run = FluidSimulator.run

    def pin(implementation):
        if implementation == "python":
            monkeypatch.setattr(solver, "_AUTO_MIN_FLOWS", math.inf)
            monkeypatch.setattr(
                FluidSimulator, "run", FluidSimulator._run_reference
            )
        elif implementation == "numpy":
            monkeypatch.setattr(solver, "_AUTO_MIN_FLOWS", 0)
            monkeypatch.setattr(FluidSimulator, "run", fast_run)
        else:
            raise ValueError(f"unknown fluid implementation {implementation!r}")

    return pin

"""Shared fixtures: the two paper platforms, built once per session."""

import os

import pytest

from repro.platform.presets import epyc_7302, epyc_9634

try:
    from hypothesis import settings
except ImportError:  # CI jobs that run no property test do not install it
    pass
else:
    # Property tests draw the same examples on every run: derandomized,
    # with no replay of what a local example database saved. Each test
    # keeps its own max_examples. ``--hypothesis-profile=randomized``
    # searches afresh (CI's conformance job runs the property files so).
    settings.register_profile("randomized", derandomize=False)
    settings.register_profile(
        "deterministic", derandomize=True, database=None
    )
    settings.load_profile("deterministic")

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

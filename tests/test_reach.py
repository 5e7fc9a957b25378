"""The reach audit's static half, in tier-1.

``make reach`` (``scripts/reach.py``) runs every entry point under a
call profiler, which takes minutes. What needs no run is checked here:
every ``scripts/reach_keep.txt`` entry names a src function, and no src
function outside that list is named only by tests.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def functions(reach):
    return reach.src_functions()


def test_every_keep_entry_names_a_src_function(reach, functions):
    assert reach.stale_entries(functions) == []


def test_no_tests_only_function_outside_the_keep_list(reach, functions):
    assert reach.unkept_tests_only(functions) == []


def test_a_kept_function_covers_its_nested_defs(reach, functions):
    kept = reach.keep_list()
    nested = [
        f for f in functions
        if f.qualname.startswith("simulate_multikernel.")
    ]
    assert nested
    assert all(reach.is_kept(f, kept) for f in nested)

"""Tests for the exception hierarchy."""

import pickle

import pytest

from repro import errors


@pytest.mark.parametrize(
    "exc",
    [
        errors.ConfigurationError,
        errors.TopologyError,
        errors.SimulationError,
        errors.ConvergenceError,
        errors.MeasurementError,
        errors.FaultInjectionError,
        errors.CellExecutionError,
    ],
)
def test_all_derive_from_chiplet_error(exc):
    assert issubclass(exc, errors.ChipletError)


def test_chiplet_error_is_exception():
    assert issubclass(errors.ChipletError, Exception)


def test_catchable_as_base():
    with pytest.raises(errors.ChipletError):
        raise errors.TopologyError("no such link")


def test_distinct_types():
    # Sibling error types must not catch each other.
    with pytest.raises(errors.SimulationError):
        try:
            raise errors.SimulationError("boom")
        except errors.ConfigurationError:  # pragma: no cover
            pytest.fail("wrong handler caught the error")


def test_cell_execution_error_carries_context():
    cause = OSError("disk vanished")
    exc = errors.CellExecutionError(
        "cell 3 failed", cell_index=3, attempts=2, cause=cause
    )
    assert exc.cell_index == 3
    assert exc.attempts == 2
    assert exc.cause is cause
    assert exc.__cause__ is cause       # `raise ... from` chaining works
    assert "cell 3 failed" in str(exc)


def test_cell_execution_error_without_cause():
    exc = errors.CellExecutionError("timed out", cell_index=0, attempts=1)
    assert exc.cause is None
    assert exc.__cause__ is None


def test_cell_execution_error_pickles_with_its_context():
    # A cancelled cell's failure crosses the service's wire as a pickle.
    exc = errors.CellExecutionError(
        "cell 2 cancelled before execution", cell_index=2, attempts=1
    )
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is errors.CellExecutionError
    assert str(copy) == str(exc)
    assert (copy.cell_index, copy.attempts, copy.cause) == (2, 1, None)

"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ChipletError` so callers can
catch everything with a single ``except`` clause while still being able to
distinguish configuration problems from runtime simulation problems.
"""

from __future__ import annotations

from functools import partial
from typing import Optional


class ChipletError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ChipletError):
    """A platform or experiment was configured inconsistently."""


class TopologyError(ChipletError):
    """A requested route or component does not exist in the platform graph."""


class SimulationError(ChipletError):
    """The discrete-event simulation reached an invalid state."""


class ConvergenceError(ChipletError):
    """An iterative solver failed to converge within its iteration budget."""


class MeasurementError(ChipletError):
    """A measurement was requested on insufficient or invalid samples."""


class FaultInjectionError(ChipletError):
    """A fault schedule is invalid or targets hardware the platform lacks."""


class ServiceError(ChipletError):
    """The simulation service refused or failed a request.

    ``code`` is the structured error code from the wire protocol (e.g.
    ``"queue-full"``, ``"bad-request"``, ``"unknown-job"``);
    ``retry_after_s`` is the server's backpressure hint for admission
    rejections — wait at least this long before resubmitting.
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "error",
        retry_after_s: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retry_after_s = retry_after_s


class ProtocolError(ServiceError):
    """A malformed frame or value crossed the service's wire protocol."""

    def __init__(self, message: str) -> None:
        super().__init__(message, code="protocol")


class CellExecutionError(ChipletError):
    """A runner cell failed after exhausting its attempts.

    Carries enough context to re-run exactly the failing cell: the cell's
    submission index, how many attempts were made, and the underlying cause
    (also chained as ``__cause__`` so tracebacks stay informative).
    """

    def __init__(
        self,
        message: str,
        *,
        cell_index: int,
        attempts: int,
        cause: Optional[BaseException] = None,
    ) -> None:
        super().__init__(message)
        self.cell_index = cell_index
        self.attempts = attempts
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause

    def __reduce__(self):
        # Pickle rebuilds an exception from ``args`` alone; the context
        # is keyword-only, so it rides in the constructor call.
        rebuild = partial(
            type(self), cell_index=self.cell_index, attempts=self.attempts,
            cause=self.cause,
        )
        return rebuild, self.args

"""Exception hierarchy for the repro compiler and runtime.

Every error raised on purpose by this package derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause.  The sub-classes mirror the compiler pipeline: parse
errors from the frontend, type errors from the checkers, schedule errors
from the middle-end, and codegen/runtime errors from the backend.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ParseError(ReproError):
    """A model source string or schedule string failed to parse.

    Carries the source location (1-based line and column) when known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col if col is not None else '?'}: {message}"
        super().__init__(message)


class TypeCheckError(ReproError):
    """A model or IL term is ill-typed (Section 3.1 type system)."""


class ScheduleError(ReproError):
    """A user-supplied MCMC schedule cannot be realised for the model.

    The paper (Section 4.2) requires the compiler to *check* that a
    requested schedule is implementable and fail otherwise; this is the
    failure.
    """


class LoweringError(ReproError):
    """An IL-to-IL lowering step encountered a term it cannot translate."""


class CodegenError(ReproError):
    """The backend could not emit code for a Low--/Blk IL term."""


class SizeInferenceError(ReproError):
    """Static size inference (Section 5.2) could not bound an allocation."""


class RuntimeFailure(ReproError):
    """A compiled sampler failed while executing (bad inputs, NaNs, ...)."""

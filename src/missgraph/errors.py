"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`MissgraphError`; each
error family carries its CLI exit code and kind name, and pipeline stages tag
exceptions with the stage name they escaped from (see :func:`stage`).
"""

from __future__ import annotations

from contextlib import contextmanager


class MissgraphError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    kind = "error"
    stage: str | None = None


class ConfigError(MissgraphError):
    """Invalid configuration: bad flag values, malformed spec files."""

    exit_code = 2
    kind = "config"


class ParseError(MissgraphError):
    """Input data could not be parsed (bad CSV shape, non-numeric cells)."""

    exit_code = 3
    kind = "parse"


class SchemaError(ParseError):
    """Header or schema-file problems (duplicate names, unknown categories)."""


class NumericError(MissgraphError):
    """A numerical precondition failed during estimation."""

    exit_code = 4
    kind = "numeric"


class ContractError(NumericError):
    """An operation was called with arguments violating its contract."""


class DegenerateColumnError(NumericError):
    """A column is constant where variation is required."""

    def __init__(self, column: str, detail: str = ""):
        self.column = column
        msg = f"column {column!r} is constant"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class UnimputableColumnError(NumericError):
    """A column has missing cells but no observed entries to draw from."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(
            f"column {column!r} has missing entries but no observed values"
        )


class ConvergenceError(MissgraphError):
    """An iterative solver exhausted its iteration budget."""

    exit_code = 5
    kind = "convergence"

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message = f"{message} (residual {residual:.3e})"
        super().__init__(message)


@contextmanager
def stage(name: str):
    """Tag any escaping package error with the pipeline stage it came from."""
    try:
        yield
    except MissgraphError as exc:
        if exc.stage is None:
            exc.stage = name
        raise

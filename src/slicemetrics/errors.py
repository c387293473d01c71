"""Exception types shared across the library."""

from __future__ import annotations


class MetricsError(Exception):
    """Base class for all user-facing errors raised by slicemetrics."""


class ParseError(MetricsError):
    """Malformed CSV input, e.g. a ragged row."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class SchemaError(MetricsError):
    """Invalid table schema, e.g. duplicate or empty column headers."""


class UnknownColumn(MetricsError):
    """A referenced column does not exist in the table."""


class BindError(MetricsError):
    """A tree that cannot be built or bound: an invalid node or entry-point argument,
    a non-metric where a metric belongs, a childless operation, a dimension used
    twice, or output columns whose names or keys clash."""


class EmptyInput(MetricsError):
    """An operation that requires rows was given an empty table."""


class TypeMismatch(MetricsError):
    """A numeric aggregate hit a text cell; values are never coerced."""


class NameArityError(MetricsError):
    """set_names received other than exactly one name: a metric has one value."""


class UnsupportedInDialect(MetricsError):
    """The metric uses a construct the target SQL dialect cannot express."""


class NestedBootstrap(MetricsError):
    """Bootstrap inside Bootstrap is not supported in SQL generation."""


class DslError(MetricsError):
    """Syntax or binding error in a DSL program, with source position."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = ""
        if expected:
            suffix = " (expected one of: " + ", ".join(expected) + ")"
        super().__init__(f"{line}:{col}: {message}{suffix}")

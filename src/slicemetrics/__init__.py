"""Composable metrics over dimensions.

Build a metric once as an expression tree, then either evaluate it on an
in-memory table (``compute_on``) or compile it to SQL (``to_sql``). Metrics
combine with ordinary arithmetic and are transformed by chainable operations
such as ``Distribution``, ``PercentChange``, and ``Bootstrap``::

    churn = (Sum("lost") / Count("lost")).set_names(["churn"])
    change = churn | PercentChange("experiment", "control")
    frame = compute_on(change, table, split_by=["region"])
    query = to_sql(change, "events", split_by=["region"])
"""

from .compute import ComputeWarning, EvalContext, compute_on
from .dsl import DslProgram, parse, print_metric, print_program
from .errors import (
    BindError,
    DslError,
    EmptyInput,
    MetricsError,
    NameArityError,
    NestedBootstrap,
    ParseError,
    SchemaError,
    TypeMismatch,
    UnknownColumn,
    UnsupportedInDialect,
)
from .frames import ResultFrame
from .metrics import (
    AbsoluteChange,
    Bootstrap,
    Composite,
    Count,
    Distribution,
    Jackknife,
    Max,
    Mean,
    Metric,
    Min,
    Operation,
    PercentChange,
    Quantile,
    ScalarLiteral,
    StdDev,
    Sum,
    Variance,
    combine,
    pipe,
)
from .sqlgen import Dialect, SqlQuery, to_sql
from .table import Cell, Table, read_csv

__all__ = [
    "AbsoluteChange", "BindError", "Bootstrap", "Cell", "Composite", "ComputeWarning",
    "Count", "Dialect", "Distribution", "DslError", "DslProgram", "EmptyInput",
    "EvalContext", "Jackknife", "Max", "Mean", "Metric", "MetricsError", "Min",
    "NameArityError", "NestedBootstrap", "Operation", "ParseError", "PercentChange",
    "Quantile", "ResultFrame", "ScalarLiteral", "SchemaError", "SqlQuery", "StdDev",
    "Sum", "Table", "TypeMismatch", "UnknownColumn", "UnsupportedInDialect", "Variance",
    "combine", "compute_on", "parse", "pipe", "print_metric", "print_program",
    "read_csv", "to_sql",
]

__version__ = "0.1.0"

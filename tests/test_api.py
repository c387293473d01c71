"""The package exports the grammar; internals stay in their submodules."""

from __future__ import annotations

import slicemetrics

PUBLIC = [
    "AbsoluteChange", "BindError", "Bootstrap", "Cell", "Composite", "ComputeWarning",
    "Count", "Dialect", "Distribution", "DslError", "DslProgram", "EmptyInput",
    "EvalContext", "Jackknife", "Max", "Mean", "Metric", "MetricsError", "Min",
    "NameArityError", "NestedBootstrap", "Operation", "ParseError", "PercentChange",
    "Quantile", "ResultFrame", "ScalarLiteral", "SchemaError", "SqlQuery", "StdDev",
    "Sum", "Table", "TypeMismatch", "UnknownColumn", "UnsupportedInDialect", "Variance",
    "combine", "compute_on", "parse", "pipe", "print_metric", "print_program",
    "read_csv", "to_sql",
]

INTERNAL = [
    "group_rows", "resample_with_replacement", "eval_composite", "resample_n_times_sql",
    "sql_aggregate", "sql_expr", "Column", "write_csv", "CsvOptions",
]


def test_all_is_the_public_list_and_resolves():
    assert slicemetrics.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(slicemetrics, name) is not None


def test_internals_are_not_package_attributes():
    for name in INTERNAL:
        assert not hasattr(slicemetrics, name), name

"""The package exports the grammar; internals stay in their submodules."""

from __future__ import annotations

import importlib

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

# The internals the README names, by the submodule that holds each.
INTERNAL = {
    "metrics": ["bind", "check_arg", "columns_read"],
    "table": ["group_rows", "draw_order", "mix", "resample_with_replacement", "read_header",
              "Column", "write_csv"],
    "compute": ["eval_leaf", "eval_composite"],
    "sqlgen": ["sql_expr", "sql_aggregate", "resample_n_times_sql"],
}


def test_all_is_the_public_list_and_resolves():
    assert slicemetrics.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(slicemetrics, name) is not None


def test_internals_are_not_package_attributes():
    for module, names in INTERNAL.items():
        for name in names:
            assert hasattr(importlib.import_module(f"slicemetrics.{module}"), name), name
            assert not hasattr(slicemetrics, name), name

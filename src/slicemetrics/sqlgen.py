"""Compile metric trees to SQL.

Simple metrics become a single aggregation query. Operations wrap their
child's query in CTEs: a distribution divides by a window sum, changes join
the child against a baseline selection, and bootstrap materializes a
resampled table (as a temp-table preamble) before aggregating per-replicate
results with STDDEV.

Two dialects are supported. ``portable`` targets engines like SQLite: real
division is forced with CASTs, row replication uses a recursive CTE, and
randomness is a deterministic arithmetic hash of (row_number, sample_idx,
seed) so generated queries are reproducible. ``googlesql`` emits BigQuery
style SQL (``SELECT * EXCEPT``, ``UNNEST(GENERATE_ARRAY(...))``, ``RAND()``)
and is not executed by the test harness.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from . import metrics as m
from .errors import NestedBootstrap, UnsupportedInDialect
from .table import Cell


class Dialect(enum.Enum):
    PORTABLE = "portable"
    GOOGLESQL = "googlesql"


@dataclass(frozen=True)
class SqlQuery:
    """One SQL statement plus any temp-table statements that must run first."""

    text: str
    key_columns: tuple[str, ...]
    value_columns: tuple[str, ...]
    dialect: Dialect
    preamble: tuple[str, ...] = ()

    def render(self) -> str:
        return ";\n".join(self.preamble + (self.text,))


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_KEYWORDS = {
    "select", "from", "where", "group", "by", "order", "join", "using", "on",
    "as", "with", "and", "or", "not", "case", "when", "then", "else", "end",
    "union", "all", "cross", "inner", "left", "right", "outer", "over",
    "partition", "create", "table", "temp", "values", "distinct", "limit",
    "having", "between", "in", "is", "null", "like", "desc", "asc",
}


def quote_ident(name: str, dialect: Dialect) -> str:
    """Quote a column name only when it needs it (keyword or odd characters)."""
    if _IDENT_RE.fullmatch(name) and name.lower() not in _KEYWORDS:
        return name
    if dialect is Dialect.GOOGLESQL:
        return "`" + name.replace("`", "\\`") + "`"
    return '"' + name.replace('"', '""') + '"'


def literal(value: Cell, dialect: Dialect) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _scalar_sql(value: float) -> str:
    text = repr(value)
    return f"({text})" if value < 0 else text


def sql_expr(metric: m.Metric, dialect: Dialect) -> list[str]:
    """SQL expressions for a leaf or composite, one per value column.

    Raises UnsupportedInDialect if an operation appears at expression
    position or the dialect lacks the aggregate.
    """
    if isinstance(metric, m.ScalarLiteral):
        return [_scalar_sql(metric.value)]
    if isinstance(metric, m._LeafAggregate):
        return [_leaf_sql(metric, dialect)]
    if isinstance(metric, m.Composite):
        left = [_wrap(e, metric.left) for e in sql_expr(metric.left, dialect)]
        right = [_wrap(e, metric.right) for e in sql_expr(metric.right, dialect)]
        if len(left) == 1 and len(right) > 1:
            left = left * len(right)
        if len(right) == 1 and len(left) > 1:
            right = right * len(left)
        return [_arith_sql(metric.op, a, b, dialect) for a, b in zip(left, right)]
    raise UnsupportedInDialect(
        f"{type(metric).__name__} cannot appear inside an arithmetic expression in SQL;"
        " operations must wrap the whole metric"
    )


def _wrap(expr: str, node: m.Metric) -> str:
    return f"({expr})" if isinstance(node, m.Composite) else expr


def _arith_sql(op: str, left: str, right: str, dialect: Dialect) -> str:
    if op == "pow":
        return f"POWER({left}, {right})"
    if op == "div":
        if dialect is Dialect.PORTABLE:
            return f"CAST({left} AS REAL) / {right}"
        return f"{left} / {right}"
    token = {"add": "+", "sub": "-", "mul": "*"}[op]
    return f"{left} {token} {right}"


def _leaf_sql(leaf: m._LeafAggregate, dialect: Dialect) -> str:
    var = quote_ident(leaf.var, dialect)
    simple = {
        "sum": "SUM", "count": "COUNT", "mean": "AVG", "min": "MIN", "max": "MAX",
        "variance": "VARIANCE", "sd": "STDDEV",
    }
    if leaf.kind in simple:
        return f"{simple[leaf.kind]}({var})"
    if leaf.kind == "quantile":
        if dialect is Dialect.PORTABLE:
            raise UnsupportedInDialect("quantile aggregates are not available in the portable dialect")
        return f"PERCENTILE_CONT({var}, {leaf.q!r})"
    raise UnsupportedInDialect(f"no SQL translation for aggregate {leaf.kind!r}")


def sql_aggregate(metric: m.Metric, data: str, dims: list[str] | tuple[str, ...], dialect: Dialect) -> str:
    """Aggregation query: SELECT dims, exprs AS names FROM data GROUP BY dims."""
    dims = tuple(dims)
    quoted = [quote_ident(d, dialect) for d in dims]
    cols = list(quoted)
    cols.extend(
        f"{expr} AS {quote_ident(name, dialect)}"
        for expr, name in zip(sql_expr(metric, dialect), metric.names())
    )
    query = f"SELECT {', '.join(cols)} FROM {data}"
    if dims:
        query += f" GROUP BY {', '.join(quoted)}"
    return query


def to_sql(
    metric: m.Metric,
    data: str,
    split_by: list[str] | tuple[str, ...] = (),
    dialect: Dialect = Dialect.PORTABLE,
) -> SqlQuery:
    """Compile a metric into one executable query over the table expression.

    The query's key columns are those of ``compute_on``: split_by followed by
    the operation-introduced dimensions, outermost first. Bootstrap adds a
    temp-table statement to the preamble; Jackknife has no SQL form.
    """
    split_by = tuple(split_by)
    key_columns = m.bind(metric, split_by)
    text, preamble = _node_to_sql(metric, data, split_by, dialect)
    return SqlQuery(
        text=text,
        key_columns=key_columns,
        value_columns=metric.names(),
        dialect=dialect,
        preamble=tuple(preamble),
    )


def _node_to_sql(metric: m.Metric, data: str, split_by: tuple[str, ...], dialect: Dialect):
    if isinstance(metric, m.Jackknife):
        raise UnsupportedInDialect("jackknife has no SQL generation; use the compute engine")
    if isinstance(metric, m.Distribution):
        return _distribution_sql(metric, data, split_by, dialect)
    if isinstance(metric, m._ChangeOperation):
        return _change_sql(metric, data, split_by, dialect)
    if isinstance(metric, m.Bootstrap):
        return _bootstrap_sql(metric, data, split_by, dialect)
    if isinstance(metric, m.Operation):
        raise UnsupportedInDialect(f"no SQL generation for {type(metric).__name__}")
    return sql_aggregate(metric, data, split_by, dialect), []


def _distribution_sql(node: m.Distribution, data, split_by, dialect):
    child_text, preamble = _node_to_sql(node.child, data, split_by + (node.over,), dialect)
    dims = split_by + node.extra_dims()
    partition = [quote_ident(d, dialect) for d in dims if d != node.over]
    over = f"PARTITION BY {', '.join(partition)}" if partition else ""
    cols = [quote_ident(d, dialect) for d in dims]
    for child_name, name in zip(node.child.names(), node.names()):
        value = quote_ident(child_name, dialect)
        if dialect is Dialect.PORTABLE:
            expr = f"CAST({value} AS REAL) / SUM({value}) OVER ({over})"
        else:
            expr = f"{value} / SUM({value}) OVER ({over})"
        cols.append(f"{expr} AS {quote_ident(name, dialect)}")
    text = f"WITH T AS ({child_text})\nSELECT {', '.join(cols)} FROM T"
    return text, preamble


def _change_sql(node: m._ChangeOperation, data, split_by, dialect):
    child_text, preamble = _node_to_sql(node.child, data, split_by + (node.condition,), dialect)
    dims = split_by + node.extra_dims()
    join_dims = [d for d in dims if d != node.condition]
    condition = quote_ident(node.condition, dialect)
    if node.baseline is None:
        where = f"{condition} IS NULL"
    else:
        where = f"{condition} = {literal(node.baseline, dialect)}"
    child_names = [quote_ident(n, dialect) for n in node.child.names()]
    if dialect is Dialect.GOOGLESQL:
        base_cols = f"* EXCEPT ({condition})"
    else:
        base_cols = ", ".join([quote_ident(d, dialect) for d in join_dims] + child_names)
    # Null-safe, and a slice without a baseline row stays (with NULL values).
    same = "IS" if dialect is Dialect.PORTABLE else "IS NOT DISTINCT FROM"
    quoted = [quote_ident(d, dialect) for d in join_dims]
    on = " AND ".join(f"T.{q} {same} Base.{q}" for q in quoted) or "TRUE"
    cols = [f"T.{quote_ident(d, dialect)}" for d in dims]
    percent = isinstance(node, m.PercentChange)
    for child_name, name in zip(child_names, node.names()):
        if percent:
            if dialect is Dialect.PORTABLE:
                expr = f"(CAST(T.{child_name} AS REAL) / Base.{child_name} - 1) * 100"
            else:
                expr = f"(T.{child_name} / Base.{child_name} - 1) * 100"
        else:
            expr = f"T.{child_name} - Base.{child_name}"
        cols.append(f"{expr} AS {quote_ident(name, dialect)}")
    text = (
        f"WITH T AS ({child_text}),\n"
        f"Base AS (SELECT {base_cols} FROM T WHERE {where})\n"
        f"SELECT {', '.join(cols)} FROM T LEFT JOIN Base ON {on}"
    )
    return text, preamble


def _bootstrap_sql(node: m.Bootstrap, data, split_by, dialect):
    child = node.child
    if any(isinstance(n, m.Bootstrap) for n in m.walk(child)):
        raise NestedBootstrap("Bootstrap cannot contain another Bootstrap in SQL generation")
    input_data, samples = resample_n_times_sql(
        data, split_by, node.n_rep, dialect, seed=node.seed
    )
    child_text, child_preamble = _node_to_sql(
        child, "Samples", split_by + ("sample_idx",), dialect
    )
    if dialect is Dialect.GOOGLESQL:
        create = f"CREATE TEMP TABLE Data AS ({input_data})"
    else:
        create = f"CREATE TEMP TABLE Data AS {input_data}"
    dims = split_by + node.extra_dims()
    quoted = [quote_ident(d, dialect) for d in dims]
    cols = list(quoted)
    cols.extend(
        f"STDDEV({quote_ident(child_name, dialect)}) AS {quote_ident(name, dialect)}"
        for child_name, name in zip(child.names(), node.names())
    )
    final = f"SELECT {', '.join(cols)} FROM SampleRes"
    if quoted:
        final += f" GROUP BY {', '.join(quoted)}"
    text = f"WITH Samples AS ({samples}),\nSampleRes AS ({child_text})\n{final}"
    return text, list(child_preamble) + [create]


def resample_n_times_sql(
    data: str,
    split_by: list[str] | tuple[str, ...],
    n_rep: int,
    dialect: Dialect,
    seed: int = 0,
) -> tuple[str, str]:
    """SQL for bootstrap resampling: (replicated input, realized samples).

    The input query replicates every row n_rep times, numbering rows and
    drawing a random row number within each (split, replicate) partition. The
    samples query self-joins the materialized Data table to pick the drawn
    rows. The portable dialect derives its randomness from (row_number,
    sample_idx, seed), so the query text alone fixes the draw.
    """
    by = [quote_ident(d, dialect) for d in split_by]
    by_prefix = (", ".join(by) + ", ") if by else ""
    partition = f"PARTITION BY {by_prefix}sample_idx"
    if dialect is Dialect.GOOGLESQL:
        input_data = (
            "SELECT\n"
            "  *,\n"
            f"  ROW_NUMBER() OVER ({partition}) AS row_number,\n"
            f"  CEILING(RAND() * COUNT(*) OVER ({partition})) AS random_row_number\n"
            f"FROM {data},\n"
            f"UNNEST(GENERATE_ARRAY(1, {n_rep})) AS sample_idx"
        )
    else:
        series = (
            "WITH RECURSIVE replicate_series(sample_idx) AS ("
            "SELECT 1 UNION ALL SELECT sample_idx + 1 FROM replicate_series"
            f" WHERE sample_idx < {n_rep}) SELECT sample_idx FROM replicate_series"
        )
        # Seeded randomness as plain arithmetic: an affine seed state followed
        # by two quadratic-then-affine mixing rounds on 30-bit state (the
        # quadratic step breaks the lattice structure a pure LCG would give,
        # and every intermediate fits in a 64-bit integer). The final value is
        # uniform on (0, 1], so CEILING lands in 1..slice_size.
        s = seed % 1073741824
        mix = "(((({x} + 4 * {x} * {x}) % 1073741824) * 1103515245 + {c}) % 1073741824)"
        input_data = (
            "SELECT\n"
            "  *,\n"
            "  CEILING((rand_v + 1) / 1073741824.0 * slice_size) AS random_row_number\n"
            "FROM (\n"
            f"  SELECT *, {mix.format(x='rand_u', c=54321)} AS rand_v\n"
            "  FROM (\n"
            f"    SELECT *, {mix.format(x='rand_t', c=12345)} AS rand_u\n"
            "    FROM (\n"
            "      SELECT\n"
            "        *,\n"
            f"        (row_number * 1103515245 + sample_idx * 12345 + {s}) % 1073741824 AS rand_t\n"
            "      FROM (\n"
            "        SELECT\n"
            "          *,\n"
            f"          ROW_NUMBER() OVER ({partition}) AS row_number,\n"
            f"          COUNT(*) OVER ({partition}) AS slice_size\n"
            f"        FROM {data}\n"
            f"        CROSS JOIN ({series})\n"
            "      )\n"
            "    )\n"
            "  )\n"
            ")"
        )
    samples = (
        "SELECT b.*\n"
        "FROM (\n"
        f"  SELECT {by_prefix}sample_idx, random_row_number AS row_number\n"
        "  FROM Data) AS a\n"
        "JOIN Data AS b\n"
        f"USING ({by_prefix}sample_idx, row_number)"
    )
    return input_data, samples

"""Compile metric trees to SQL.

Every query selects its key columns and the metric's one value column.
Simple metrics become a single aggregation query. Operations wrap their
child's query in CTEs: a distribution divides by a window sum, changes join
the child against a baseline selection, and bootstrap numbers the rows of
each slice once in a temp table (the preamble), ordered by the columns the
child reads, draws rows per replicate by joining seeded row numbers back to
it, and aggregates the finite per-replicate results with STDDEV.

Division follows IEEE, as in the compute engine: x/0 is +-inf and 0/0 is
NULL (NaN). Two dialects are supported. ``portable`` targets engines like
SQLite: division is a CASE over the denominator with a CAST to REAL, and the
replicate series is a recursive CTE. ``googlesql`` emits BigQuery style SQL
(``IEEE_DIVIDE``, ``SELECT * EXCEPT``, ``UNNEST(GENERATE_ARRAY(...))``,
``MOD``) and is not executed by the test harness. Both draw bootstrap rows
with the same integer hash of (seed, replicate, row), so the query text
alone fixes the draw. The hash is ``table.mix``, the compute engine's, so
on sqlite a replicate draws the rows ``compute_on`` draws.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from . import metrics as m
from .errors import NestedBootstrap, UnsupportedInDialect
from .table import MULTIPLIER, ROUNDS, STATES, Cell, format_cell, mix


class Dialect(enum.Enum):
    PORTABLE = "portable"
    GOOGLESQL = "googlesql"


_NULL_SAFE_EQ = {Dialect.PORTABLE: "IS", Dialect.GOOGLESQL: "IS NOT DISTINCT FROM"}


@dataclass(frozen=True)
class SqlQuery:
    """One SQL statement plus any temp-table statements that must run first."""

    text: str
    key_columns: tuple[str, ...]
    value_columns: tuple[str, ...]
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
    return format_cell(value)


def _scalar_sql(value: float) -> str:
    text = repr(value)
    return f"({text})" if value < 0 else text


def sql_expr(metric: m.Metric, dialect: Dialect) -> str:
    """The SQL expression of a leaf's or composite's one value.

    Raises UnsupportedInDialect if an operation appears at expression
    position or the dialect lacks the aggregate.
    """
    if isinstance(metric, m.ScalarLiteral):
        return _scalar_sql(metric.value)
    if isinstance(metric, m._LeafAggregate):
        return _leaf_sql(metric, dialect)
    if isinstance(metric, m.Composite):
        left = _wrap(sql_expr(metric.left, dialect), metric.left)
        right = _wrap(sql_expr(metric.right, dialect), metric.right)
        return _arith_sql(metric.op, left, right, dialect)
    raise UnsupportedInDialect(
        f"{type(metric).__name__} cannot appear inside an arithmetic expression in SQL;"
        " operations must wrap the whole metric"
    )


def _wrap(expr: str, node: m.Metric) -> str:
    return f"({expr})" if isinstance(node, m.Composite) else expr


def _name(metric: m.Metric, dialect: Dialect) -> str:
    """The quoted column name of the metric's one value."""
    return quote_ident(metric.names()[0], dialect)


# sqlite reads this literal as inf, and 0 * inf as NULL.
_INF = "9e999"


def _arith_sql(op: str, left: str, right: str, dialect: Dialect) -> str:
    if op == "pow":
        return f"POWER({left}, {right})"
    if op == "div":
        # IEEE, as in the compute engine: x/0 is +-inf and 0/0 NaN (NULL).
        if dialect is Dialect.PORTABLE:
            return (f"CASE WHEN {right} = 0 THEN {left} * {_INF}"
                    f" ELSE CAST({left} AS REAL) / {right} END")
        return f"IEEE_DIVIDE({left}, {right})"
    token = {"add": "+", "sub": "-", "mul": "*"}[op]
    return f"{left} {token} {right}"


def _leaf_sql(leaf: m._LeafAggregate, dialect: Dialect) -> str:
    var = quote_ident(leaf.var, dialect)
    simple = {
        "sum": "SUM", "count": "COUNT", "mean": "AVG", "min": "MIN", "max": "MAX",
        "variance": "VARIANCE", "sd": "STDDEV",
    }
    if leaf.tag in simple:
        return f"{simple[leaf.tag]}({var})"
    if leaf.tag == "quantile":
        if dialect is Dialect.PORTABLE:
            raise UnsupportedInDialect("quantile aggregates are not available in the portable dialect")
        return f"PERCENTILE_CONT({var}, {leaf.q!r})"
    raise UnsupportedInDialect(f"no SQL translation for aggregate {leaf.tag!r}")


def sql_aggregate(metric: m.Metric, data: str, dims: list[str] | tuple[str, ...], dialect: Dialect) -> str:
    """Aggregation query: SELECT dims, expr AS name FROM data GROUP BY dims."""
    quoted = [quote_ident(d, dialect) for d in dims]
    cols = quoted + [f"{sql_expr(metric, dialect)} AS {_name(metric, dialect)}"]
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
    the operation-introduced dimensions, outermost first. It selects them
    first and ends with ``ORDER BY`` over their positions, so its rows come in
    ``compute_on``'s order. Bootstrap adds a
    temp-table statement to the preamble; Jackknife has no SQL form. A table
    named like a CTE that encloses its reads (``T``, or ``Base`` under a
    change, in any case) raises ``UnsupportedInDialect``.
    """
    split_by = tuple(split_by)
    key_columns = m.bind(metric, split_by)
    text, preamble = _node_to_sql(metric, data, split_by, dialect)
    if key_columns:  # by position: under a change, a bare key name is ambiguous
        text += " ORDER BY " + ", ".join(str(i + 1) for i in range(len(key_columns)))
    return SqlQuery(
        text=text,
        key_columns=key_columns,
        value_columns=metric.names(),
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


def _check_source(data: str, *ctes: str):
    """Raise if a CTE named in ``ctes`` would shadow the source table ``data``."""
    if data.strip('"`').lower() in (cte.lower() for cte in ctes):
        raise UnsupportedInDialect(
            f"the table name {data!r} is a CTE of the generated SQL; rename the table"
        )


def _distribution_sql(node: m.Distribution, data, split_by, dialect):
    _check_source(data, "T")
    child_text, preamble = _node_to_sql(node.child, data, split_by + (node.over,), dialect)
    dims = split_by + node.extra_dims()
    partition = [quote_ident(d, dialect) for d in dims if d != node.over]
    over = f"PARTITION BY {', '.join(partition)}" if partition else ""
    value = _name(node.child, dialect)
    share = _arith_sql("div", value, f"SUM({value}) OVER ({over})", dialect)
    cols = [quote_ident(d, dialect) for d in dims] + [f"{share} AS {_name(node, dialect)}"]
    text = f"WITH T AS ({child_text})\nSELECT {', '.join(cols)} FROM T"
    return text, preamble


def _change_sql(node: m._ChangeOperation, data, split_by, dialect):
    _check_source(data, "T", "Base")
    child_text, preamble = _node_to_sql(node.child, data, split_by + (node.condition,), dialect)
    dims = split_by + node.extra_dims()
    join_dims = [d for d in dims if d != node.condition]
    condition = quote_ident(node.condition, dialect)
    if node.baseline is None:
        is_baseline = "IS NULL"
    else:
        is_baseline = f"= {literal(node.baseline, dialect)}"
    value = _name(node.child, dialect)
    quoted = [quote_ident(d, dialect) for d in join_dims]
    if dialect is Dialect.GOOGLESQL:
        base_cols = f"* EXCEPT ({condition})"
    else:
        base_cols = ", ".join(quoted + [value])
    # Null-safe, and a slice without a baseline row stays (with NULL values).
    same = _NULL_SAFE_EQ[dialect]
    on = " AND ".join(f"T.{q} {same} Base.{q}" for q in quoted) or "TRUE"
    if isinstance(node, m.PercentChange):
        change = f"({_arith_sql('div', f'T.{value}', f'Base.{value}', dialect)} - 1) * 100"
    else:
        change = f"T.{value} - Base.{value}"
    # Baseline rows are 0, as in the compute engine, even where their value is not finite.
    change = f"CASE WHEN T.{condition} {is_baseline} THEN 0.0 ELSE {change} END"
    cols = [f"T.{quote_ident(d, dialect)}" for d in dims] + [f"{change} AS {_name(node, dialect)}"]
    text = (
        f"WITH T AS ({child_text}),\n"
        f"Base AS (SELECT {base_cols} FROM T WHERE {condition} {is_baseline})\n"
        f"SELECT {', '.join(cols)} FROM T LEFT JOIN Base ON {on}"
    )
    return text, preamble


def _bootstrap_sql(node: m.Bootstrap, data, split_by, dialect):
    child = node.child
    if any(isinstance(n, m.Bootstrap) for n in m.walk(child)):
        raise NestedBootstrap("Bootstrap cannot contain another Bootstrap in SQL generation")
    columns = node.draw_columns(split_by)
    _check_bootstrap_names(child, split_by, columns)
    input_data, samples = resample_n_times_sql(
        data, split_by, node.n_rep, dialect, seed=node.seed, columns=columns
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
    # Only finite replicate values count, as in the compute engine.
    value = _name(child, dialect)
    if dialect is Dialect.GOOGLESQL:
        finite = f"NOT IS_INF({value}) AND NOT IS_NAN({value})"
    else:
        finite = f"ABS({value}) < {_INF}"
    cols = quoted + [f"STDDEV(CASE WHEN {finite} THEN {value} END) AS {_name(node, dialect)}"]
    final = f"SELECT {', '.join(cols)} FROM SampleRes"
    if quoted:
        final += f" GROUP BY {', '.join(quoted)}"
    text = f"WITH Samples AS ({samples}),\nSampleRes AS ({child_text})\n{final}"
    return text, list(child_preamble) + [create]


def _check_bootstrap_names(child: m.Metric, split_by, columns):
    """Raise if an input or value column takes a name the bootstrap SQL adds.

    Split columns ride unqualified through every level of the draw, so they
    may take none of its names. The draw reads the rest by table: read columns
    meet only Data's and Samples' own columns, and the child's value names
    only the replicate index, a key of every frame under the bootstrap.
    """
    frames = [child] + [n.child for n in m.walk(child) if isinstance(n, m.Operation)]
    clashes = [c for c in split_by if c in _BOOTSTRAP_COLUMNS]
    clashes += [c for c in columns if c in _SAMPLE_COLUMNS]
    clashes += [f.names()[0] for f in frames if f.names()[0] == "sample_idx"]
    if clashes:
        raise UnsupportedInDialect(
            f"bootstrap SQL uses the column name {clashes[0]!r} itself; rename that column"
        )


def _mod(a: str, dialect: Dialect) -> str:
    """a modulo 2**30 (GoogleSQL has no % operator)."""
    if dialect is Dialect.GOOGLESQL:
        return f"MOD({a}, {STATES})"
    return f"(({a}) % {STATES})"


def _mix_names(name: str) -> tuple[str, ...]:
    """The columns ``_mix_sql`` makes: one per round's input, then ``name``."""
    return tuple(f"{name}_{i}" for i in range(len(ROUNDS))) + (name,)


# The columns the bootstrap SQL adds beside the input's: Data numbers each
# slice's rows, Samples adds the replicate index, and the draw hash names
# each level of the replicate's and the row's state.
_SAMPLE_COLUMNS = ("row_number", "slice_size", "sample_idx")
_BOOTSTRAP_COLUMNS = frozenset(
    _SAMPLE_COLUMNS + _mix_names("replicate_state") + _mix_names("rand")
)


def _mix_sql(source: str, keep: str, x: str, name: str, dialect: Dialect) -> str:
    """SELECT keep, mix(x) AS name FROM source, with ``table.mix``'s rounds.

    Each round reads its input twice, so every round is its own subquery
    and the text stays linear in the number of rounds.
    """
    names = _mix_names(name)
    query = f"SELECT {keep}, {_mod(x, dialect)} AS {names[0]} FROM {source}"
    for c, arg, out in zip(ROUNDS, names, names[1:]):
        quadratic = _mod(f"{arg} * (1 + 4 * {arg})", dialect)
        mixed = _mod(f"{quadratic} * {MULTIPLIER} + {c}", dialect)
        query = f"SELECT {keep}, {mixed} AS {out}\n  FROM ({query})"
    return query


def resample_n_times_sql(
    data: str,
    split_by: list[str] | tuple[str, ...],
    n_rep: int,
    dialect: Dialect,
    seed: int = 0,
    *,
    columns: list[str] | tuple[str, ...],
) -> tuple[str, str]:
    """SQL for bootstrap resampling: (numbered input, realized samples).

    The input query keeps ``split_by`` plus ``columns`` and numbers the rows
    of each split_by slice once, ordered by ``columns`` (nulls first), next
    to the slice's size; it is materialized as the temp table Data. Rows
    that tie are equal in every kept column, so the numbering fixes the draw
    up to interchangeable rows; ``table.draw_order`` numbers them the same.
    The samples query crosses Data with the replicate series in a Draws
    subquery that keeps only the slice keys, ``sample_idx`` and a drawn row
    number, then joins the draws back to Data on the keys (null-safe) and the
    row number. So replicate i of a slice holds slice_size rows drawn with
    replacement from that slice.

    The draw is an integer hash, so the query text alone fixes it: the seed
    is mixed first, each replicate adds its index and mixes again, and each
    row adds its number and mixes again. Distinct seeds thus give unrelated
    replicate streams rather than shifted copies of one stream. It is
    ``table.mix``, so the compute engine's ``resample_with_replacement``
    draws the same rows.
    """
    by = [quote_ident(d, dialect) for d in split_by]
    by_prefix = (", ".join(by) + ", ") if by else ""
    partition = f"PARTITION BY {', '.join(by)}" if by else ""
    read = [quote_ident(c, dialect) for c in columns]
    numbering = partition + (f" ORDER BY {', '.join(read)}" if read else "")
    kept = by + read + [
        f"ROW_NUMBER() OVER ({numbering.strip()}) AS row_number",
        f"COUNT(*) OVER ({partition}) AS slice_size",
    ]
    input_data = f"SELECT {', '.join(kept)} FROM {data}"
    google = dialect is Dialect.GOOGLESQL
    replicates = _mix_sql(
        f"UNNEST(GENERATE_ARRAY(1, {n_rep})) AS sample_idx" if google else "replicate_series",
        "sample_idx", f"{mix(seed % STATES)} + sample_idx", "replicate_state", dialect,
    )
    if google:
        series = f"({replicates}) AS Replicates"
    else:
        # The LIMIT changes no row: it keeps sqlite from inlining the
        # per-replicate hash into the per-row one, which would recompute it
        # for every row.
        series = (
            "(WITH RECURSIVE replicate_series(sample_idx) AS ("
            "SELECT 1 UNION ALL SELECT sample_idx + 1 FROM replicate_series"
            f" WHERE sample_idx < {n_rep})\n  {replicates} LIMIT {n_rep}) AS Replicates"
        )
    # The row's hash is uniform on 0..2**30 - 1, so CEILING lands in 1..slice_size.
    rand = _mix_sql(
        f"Data CROSS JOIN {series}",
        f"{by_prefix}sample_idx, slice_size",
        "Replicates.replicate_state + Data.row_number", "rand", dialect,
    )
    draws = (
        f"  SELECT {by_prefix}sample_idx,"
        f" CEILING((rand + 1) / {STATES}.0 * slice_size) AS row_number\n"
        f"  FROM ({rand})"
    )
    same = _NULL_SAFE_EQ[dialect]
    on = [f"Draws.{q} {same} Data.{q}" for q in by] + ["Draws.row_number = Data.row_number"]
    samples = (
        "SELECT Data.*, Draws.sample_idx\n"
        f"FROM (\n{draws}) AS Draws\n"
        f"JOIN Data ON {' AND '.join(on)}"
    )
    return input_data, samples

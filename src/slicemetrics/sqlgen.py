"""Compile metric trees to SQL.

Every query selects its key columns and the metric's one value column.
Simple metrics become a single aggregation query. An operation makes its
child's query a CTE of the statement's one ``WITH`` list: a distribution
divides by a window sum, changes join the child against a baseline
selection, and bootstrap numbers the rows of each slice once in a temp
table (the preamble), ordered by the columns the child reads, draws rows
per replicate by joining seeded row numbers back to it, and aggregates the
finite per-replicate results with STDDEV. CTE names never equal the source
table's, so any source name compiles.

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
import functools
import math
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
    if _is_plain(name):
        return name
    if dialect is Dialect.GOOGLESQL:
        return "`" + name.replace("`", "\\`") + "`"
    return '"' + name.replace('"', '""') + '"'


@functools.lru_cache(maxsize=4096)
def _is_plain(name: str) -> bool:
    """Whether ``name`` reads as itself unquoted: an identifier and no keyword."""
    return _IDENT_RE.fullmatch(name) is not None and name.lower() not in _KEYWORDS


# sqlite reads this literal as inf, and 0 * inf as NULL.
_INF = "9e999"


def literal(value: Cell, dialect: Dialect) -> str:
    if value is None or value != value:  # NaN is NULL: it equals no cell
        return "NULL"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float) and math.isinf(value):
        inf = _INF if dialect is Dialect.PORTABLE else "CAST('inf' AS FLOAT64)"
        return inf if value > 0 else f"-{inf}"
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


_AGGREGATES = {
    "sum": "SUM", "count": "COUNT", "mean": "AVG", "min": "MIN", "max": "MAX",
    "variance": "VARIANCE", "sd": "STDDEV",
}


def _leaf_sql(leaf: m._LeafAggregate, dialect: Dialect) -> str:
    var = quote_ident(leaf.var, dialect)
    if leaf.tag in _AGGREGATES:
        return f"{_AGGREGATES[leaf.tag]}({var})"
    if leaf.tag == "quantile":
        if dialect is Dialect.PORTABLE:
            raise UnsupportedInDialect("quantile aggregates are not available in the portable dialect")
        return f"PERCENTILE_CONT({var}, {leaf.q!r})"
    raise UnsupportedInDialect(f"no SQL translation for aggregate {leaf.tag!r}")


def sql_aggregate(metric: m.Metric, data: str, dims: list[str] | tuple[str, ...], dialect: Dialect) -> str:
    """Aggregation query: SELECT dims, expr AS name FROM data GROUP BY dims.

    A constant without dims reads no table: one row, as compute_on gives.
    """
    quoted = [quote_ident(d, dialect) for d in dims]
    cols = quoted + [f"{sql_expr(metric, dialect)} AS {_name(metric, dialect)}"]
    query = f"SELECT {', '.join(cols)}"
    if dims:
        query += f" FROM {data} GROUP BY {', '.join(quoted)}"
    elif any(isinstance(node, m._LeafAggregate) for node in m.walk(metric)):
        query += f" FROM {data}"
    return query


class _Statement:
    """One statement's CTEs, each after those it reads, and its preamble.

    A CTE, and the bootstrap's temp table, takes its role's name, or the
    first free ``role2``, ``role3``, ... where an earlier name or the source
    table (quotes stripped) has that name in any case.
    """

    def __init__(self, source: str):
        self.ctes: list[str] = []
        self.preamble: list[str] = []
        self.recursive = False
        self._taken = {source.strip('"`').lower()}

    def name(self, role: str) -> str:
        name, i = role, 1
        while name.lower() in self._taken:
            i += 1
            name = f"{role}{i}"
        self._taken.add(name.lower())
        return name

    def add(self, role: str, query: str) -> str:
        """Append ``query`` as a CTE for ``role``; return the name it got."""
        name = self.name(role)
        self.ctes.append(f"{name} AS ({query})")
        return name

    def text(self, query: str) -> str:
        """``query`` under one WITH list of every CTE."""
        ctes = ",\n".join(self.ctes)
        return f"WITH {'RECURSIVE ' * self.recursive}{ctes}\n{query}" if ctes else query


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
    ``compute_on``'s order. Its text is at most one ``WITH`` list, whose CTE
    names are unique and differ from ``data``, followed by the final SELECT.
    Bootstrap adds the statements that fill the temp table ``Data`` to the
    preamble (``Data2`` where ``data`` is the name data, in any case);
    Jackknife has no SQL form.
    """
    split_by = tuple(split_by)
    key_columns = m.bind(metric, split_by)
    stmt = _Statement(data)
    text = stmt.text(_node_to_sql(metric, data, split_by, dialect, stmt))
    if key_columns:  # by position: under a change, a bare key name is ambiguous
        text += " ORDER BY " + ", ".join(map(str, range(1, len(key_columns) + 1)))
    return SqlQuery(text, key_columns, metric.names(), tuple(stmt.preamble))


def _node_to_sql(metric: m.Metric, data: str, split_by: tuple[str, ...], dialect: Dialect,
                 stmt: _Statement) -> str:
    """The SELECT of ``metric`` over ``data``; its CTEs go to ``stmt``."""
    if isinstance(metric, m.Jackknife):
        raise UnsupportedInDialect("jackknife has no SQL generation; use the compute engine")
    if isinstance(metric, m.Distribution):
        return _distribution_sql(metric, data, split_by, dialect, stmt)
    if isinstance(metric, m._ChangeOperation):
        return _change_sql(metric, data, split_by, dialect, stmt)
    if isinstance(metric, m.Bootstrap):
        return _bootstrap_sql(metric, data, split_by, dialect, stmt)
    if isinstance(metric, m.Operation):
        raise UnsupportedInDialect(f"no SQL generation for {type(metric).__name__}")
    return sql_aggregate(metric, data, split_by, dialect)


def _distribution_sql(node: m.Distribution, data, split_by, dialect, stmt):
    t = stmt.add("T", _node_to_sql(node.child, data, split_by + (node.over,), dialect, stmt))
    dims = split_by + node.extra_dims()
    partition = [quote_ident(d, dialect) for d in dims if d != node.over]
    over = f"PARTITION BY {', '.join(partition)}" if partition else ""
    value = _name(node.child, dialect)
    share = _arith_sql("div", value, f"SUM({value}) OVER ({over})", dialect)
    cols = [quote_ident(d, dialect) for d in dims] + [f"{share} AS {_name(node, dialect)}"]
    return f"SELECT {', '.join(cols)} FROM {t}"


def _change_sql(node: m._ChangeOperation, data, split_by, dialect, stmt):
    child = _node_to_sql(node.child, data, split_by + (node.condition,), dialect, stmt)
    t = stmt.add("T", child)
    dims = split_by + node.extra_dims()
    join_dims = [d for d in dims if d != node.condition]
    condition = quote_ident(node.condition, dialect)
    is_baseline = "IS NULL" if node.baseline is None else f"= {literal(node.baseline, dialect)}"
    value = _name(node.child, dialect)
    quoted = [quote_ident(d, dialect) for d in join_dims]
    google = dialect is Dialect.GOOGLESQL
    base_cols = f"* EXCEPT ({condition})" if google else ", ".join(quoted + [value])
    base = stmt.add("Base", f"SELECT {base_cols} FROM {t} WHERE {condition} {is_baseline}")
    # Null-safe, and a slice without a baseline row stays (with NULL values).
    same = _NULL_SAFE_EQ[dialect]
    on = " AND ".join(f"{t}.{q} {same} {base}.{q}" for q in quoted) or "TRUE"
    if isinstance(node, m.PercentChange):
        change = f"({_arith_sql('div', f'{t}.{value}', f'{base}.{value}', dialect)} - 1) * 100"
    else:
        change = f"{t}.{value} - {base}.{value}"
    # Baseline rows are 0, as in the compute engine, even where their value is not finite.
    change = f"CASE WHEN {t}.{condition} {is_baseline} THEN 0.0 ELSE {change} END"
    cols = [f"{t}.{quote_ident(d, dialect)}" for d in dims]
    cols.append(f"{change} AS {_name(node, dialect)}")
    return f"SELECT {', '.join(cols)} FROM {t} LEFT JOIN {base} ON {on}"


def _bootstrap_sql(node: m.Bootstrap, data, split_by, dialect, stmt):
    child = node.child
    if any(isinstance(n, m.Bootstrap) for n in m.walk(child)):
        raise NestedBootstrap("Bootstrap cannot contain another Bootstrap in SQL generation")
    columns = node.draw_columns(split_by)
    _check_bootstrap_names(child, split_by, columns)
    temp, numbered, samples = _resample_sql(stmt, data, split_by, node.n_rep, dialect,
                                            node.seed, columns)
    # Both replace an earlier statement's table; ``temp.`` spares a main table of its name.
    if dialect is Dialect.GOOGLESQL:
        stmt.preamble.append(f"CREATE OR REPLACE TEMP TABLE {temp} AS ({numbered})")
    else:
        stmt.preamble += [f"DROP TABLE IF EXISTS temp.{temp}",
                          f"CREATE TEMP TABLE {temp} AS {numbered}"]
    samples = stmt.add("Samples", samples)
    child_text = _node_to_sql(child, samples, split_by + ("sample_idx",), dialect, stmt)
    sample_res = stmt.add("SampleRes", child_text)
    dims = split_by + node.extra_dims()
    quoted = [quote_ident(d, dialect) for d in dims]
    # Only finite replicate values count, as in the compute engine.
    value = _name(child, dialect)
    google = dialect is Dialect.GOOGLESQL
    finite = f"NOT IS_INF({value}) AND NOT IS_NAN({value})" if google else f"ABS({value}) < {_INF}"
    cols = quoted + [f"STDDEV(CASE WHEN {finite} THEN {value} END) AS {_name(node, dialect)}"]
    final = f"SELECT {', '.join(cols)} FROM {sample_res}"
    if quoted:
        final += f" GROUP BY {', '.join(quoted)}"
    return final


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


# The columns the bootstrap SQL adds beside the input's: Data numbers each
# slice's rows, Samples adds the replicate index, and the replicate series
# carries each replicate's draw state.
_SAMPLE_COLUMNS = ("row_number", "slice_size", "sample_idx")
_BOOTSTRAP_COLUMNS = frozenset(_SAMPLE_COLUMNS + ("replicate_state",))


def _mod(a: str, dialect: Dialect) -> str:
    """a modulo 2**30 (GoogleSQL has no % operator)."""
    if dialect is Dialect.GOOGLESQL:
        return f"MOD({a}, {STATES})"
    return f"(({a}) % {STATES})"


def _mix_sql(x: str, dialect: Dialect) -> str:
    """``table.mix`` of x modulo 2**30 as one expression; x appears 2**len(ROUNDS) times."""
    for c in ROUNDS:
        x = _mod(x, dialect)
        x = f"{_mod(f'{x} * (1 + 4 * {x})', dialect)} * {MULTIPLIER} + {c}"
    return _mod(x, dialect)


def resample_n_times_sql(data: str, split_by: list[str] | tuple[str, ...], n_rep: int,
                         dialect: Dialect, seed: int = 0, *,
                         columns: list[str] | tuple[str, ...]) -> tuple[str, str]:
    """SQL for bootstrap resampling: (numbered input, realized samples).

    The input query keeps ``split_by`` plus ``columns`` and numbers the rows
    of each split_by slice once, ordered by ``columns`` (nulls first), next
    to the slice's size; it is materialized as the temp table Data (Data2
    where ``data`` is the name data, in any case), which the samples query
    reads. Rows
    that tie are equal in every kept column, so the numbering fixes the draw
    up to interchangeable rows; ``table.draw_order`` numbers them the same.
    The samples query crosses Data with the CTE ``Replicates(sample_idx,
    replicate_state)`` in a Draws subquery that keeps only the slice keys,
    ``sample_idx`` and a drawn row number, then joins the draws back to Data
    on the keys (null-safe) and the row number. So replicate i of a slice
    holds slice_size rows drawn with replacement from that slice.

    The draw is an integer hash, so the query text alone fixes it: the seed
    is mixed first, each replicate adds its index and mixes again, and each
    row adds its number and mixes again. Distinct seeds thus give unrelated
    replicate streams rather than shifted copies of one stream. It is
    ``table.mix``, so the compute engine's ``resample_with_replacement``
    draws the same rows.
    """
    stmt = _Statement(data)
    _, input_data, samples = _resample_sql(stmt, data, split_by, n_rep, dialect, seed, columns)
    return input_data, stmt.text(samples)


def _resample_sql(stmt: _Statement, data, split_by, n_rep, dialect, seed, columns):
    """The temp table's name and ``resample_n_times_sql``'s pair, its CTE added to ``stmt``."""
    temp = stmt.name("Data")
    by = [quote_ident(d, dialect) for d in split_by]
    by_prefix = (", ".join(by) + ", ") if by else ""
    partition = f"PARTITION BY {', '.join(by)}" if by else ""
    read = [quote_ident(c, dialect) for c in columns]
    numbering = partition + (f" ORDER BY {', '.join(read)}" if read else "")
    # slice_size first: then sqlite sorts the rows once for both windows.
    kept = by + read + [
        f"COUNT(*) OVER ({partition}) AS slice_size",
        f"ROW_NUMBER() OVER ({numbering.strip()}) AS row_number",
    ]
    input_data = f"SELECT {', '.join(kept)} FROM {data}"
    mixed_seed = mix(seed % STATES)
    if dialect is Dialect.GOOGLESQL:
        replicates = stmt.add("Replicates", (
            f"SELECT sample_idx, {_mix_sql(f'{mixed_seed} + sample_idx', dialect)}"
            f" AS replicate_state FROM UNNEST(GENERATE_ARRAY(1, {n_rep})) AS sample_idx"
        ))
    else:
        # A recursive CTE is computed once, not again for every row that reads it.
        replicates = stmt.name("Replicates")
        stmt.recursive = True
        stmt.ctes.append(
            f"{replicates}(sample_idx, replicate_state) AS ("
            f"SELECT 1, {mix((mixed_seed + 1) % STATES)}\n  UNION ALL SELECT sample_idx + 1,"
            f" {_mix_sql(f'{mixed_seed + 1} + sample_idx', dialect)}"
            f" FROM {replicates} WHERE sample_idx < {n_rep})"
        )
    # The row's hash is uniform on 0..2**30 - 1, so CEILING lands in 1..slice_size.
    rand = _mix_sql(f"{replicates}.replicate_state + {temp}.row_number", dialect)
    same = _NULL_SAFE_EQ[dialect]
    on = [f"Draws.{q} {same} {temp}.{q}" for q in by] + [f"Draws.row_number = {temp}.row_number"]
    return temp, input_data, (
        f"SELECT {temp}.*, Draws.sample_idx\nFROM (\n"
        f"  SELECT {by_prefix}sample_idx,"
        f" CEILING(({rand} + 1) / {STATES}.0 * slice_size) AS row_number\n"
        f"  FROM {temp} CROSS JOIN {replicates}) AS Draws\n"
        f"JOIN {temp} ON {' AND '.join(on)}"
    )

"""Test support: a sqlite executor for portable SQL and data generators.

The library only emits SQL; executing it is the harness's job. SQLite lacks
STDDEV/VARIANCE, so the harness registers equivalent aggregate functions
before running generated queries.
"""

from __future__ import annotations

import math
import random
import sqlite3

from slicemetrics import SqlQuery, Table
from slicemetrics.table import FLOAT, INT, TEXT


class VarianceAgg:
    """The n - 1 sample variance of the non-null values, NULL below two."""

    def __init__(self):
        self.values = []

    def step(self, value):
        if value is not None:
            self.values.append(float(value))

    def finalize(self):
        n = len(self.values)
        if n < 2:
            return None
        mean = math.fsum(self.values) / n
        return math.fsum((v - mean) ** 2 for v in self.values) / (n - 1)


class StdDevAgg(VarianceAgg):
    def finalize(self):
        variance = super().finalize()
        return None if variance is None else math.sqrt(variance)


def connect() -> sqlite3.Connection:
    con = sqlite3.connect(":memory:")
    con.create_aggregate("STDDEV", 1, StdDevAgg)
    con.create_aggregate("VARIANCE", 1, VarianceAgg)
    for fn, impl in (("CEILING", math.ceil), ("POWER", math.pow)):
        try:
            con.execute(f"SELECT {fn}(1.0, 1.0)" if fn == "POWER" else f"SELECT {fn}(1.0)")
        except sqlite3.OperationalError:
            con.create_function(fn, 2 if fn == "POWER" else 1, impl)
    return con


_AFFINITY = {INT: "INTEGER", FLOAT: "REAL", TEXT: "TEXT"}


def load_table(con: sqlite3.Connection, name: str, table: Table):
    decls = ", ".join(f'"{col.name}" {_AFFINITY[col.kind]}' for col in table.columns)
    con.execute(f'CREATE TABLE "{name}" ({decls})')
    marks = ",".join("?" * len(table.columns))
    con.executemany(f'INSERT INTO "{name}" VALUES ({marks})', list(table.rows()))


def execute_query(query: SqlQuery, tables: dict[str, Table]) -> dict[tuple, tuple]:
    """Run a generated query on sqlite; returns {key values: value floats}."""
    con = connect()
    for name, table in tables.items():
        load_table(con, name, table)
    for statement in query.preamble:
        con.execute(statement)
    cursor = con.execute(query.text)
    names = [d[0] for d in cursor.description]
    key_idx = [names.index(k) for k in query.key_columns]
    val_idx = [names.index(v) for v in query.value_columns]
    out = {}
    for row in cursor.fetchall():
        key = tuple(row[i] for i in key_idx)
        values = tuple(float("nan") if row[i] is None else float(row[i]) for i in val_idx)
        assert key not in out, f"duplicate key from SQL: {key}"
        out[key] = values
    con.close()
    return out


def values_close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol


def assert_backend_equal(metric, table: Table, split_by=(), tol=1e-9, source="d"):
    """compute_on and executed portable SQL must agree key for key, in one row order.

    The SQL reads ``table`` under the name ``source`` (which may be quoted).
    """
    from slicemetrics import Dialect, compute_on, to_sql

    frame = compute_on(metric, table, split_by)
    query = to_sql(metric, source, split_by, Dialect.PORTABLE)
    assert query.key_columns == frame.key_columns
    got = execute_query(query, {source.strip('"'): table})
    want = dict(frame.rows)
    assert set(got) == set(want), (
        f"key sets differ:\n sql={sorted(got)}\n compute={sorted(want)}"
    )
    assert list(got) == [key for key, _ in frame.rows], (
        f"row orders differ:\n sql={list(got)}\n compute={list(want)}"
    )
    for key, vals in want.items():
        for a, b in zip(got[key], vals):
            assert values_close(a, b, tol), f"{key}: sql={got[key]} compute={vals}"


# -- data generators -----------------------------------------------------------

_DIM_VALUES = {
    "g1": ["north", "south", "east"],
    "g2": ["red", "blue"],
    "arm": ["control", "t1", "t2"],
}


def random_table(rng: random.Random, n_rows: int | None = None, null_rate: float = 0.0) -> Table:
    """Small random table with dims g1/g2/arm and numeric x/y."""
    n = n_rows if n_rows is not None else rng.randint(4, 24)
    def cell(maker):
        return None if rng.random() < null_rate else maker()
    return Table.from_dict({
        "g1": [rng.choice(_DIM_VALUES["g1"]) for _ in range(n)],
        "g2": [rng.choice(_DIM_VALUES["g2"]) for _ in range(n)],
        "arm": [
            "control" if i < 2 else rng.choice(_DIM_VALUES["arm"]) for i in range(n)
        ],
        "x": [cell(lambda: round(rng.uniform(-5, 5), 3)) for _ in range(n)],
        "y": [cell(lambda: rng.randint(0, 9)) for _ in range(n)],
    })


def grid_table(rng: random.Random, extra_rows: int = 12) -> Table:
    """Random table covering every g1 x g2 x arm combination at least once."""
    rows = [
        (g1, g2, arm)
        for g1 in _DIM_VALUES["g1"]
        for g2 in _DIM_VALUES["g2"]
        for arm in _DIM_VALUES["arm"]
    ]
    rows += [
        (rng.choice(_DIM_VALUES["g1"]), rng.choice(_DIM_VALUES["g2"]),
         rng.choice(_DIM_VALUES["arm"]))
        for _ in range(extra_rows)
    ]
    return Table.from_dict({
        "g1": [r[0] for r in rows],
        "g2": [r[1] for r in rows],
        "arm": [r[2] for r in rows],
        "x": [round(rng.uniform(-5, 5), 3) for _ in rows],
        "y": [rng.randint(1, 9) for _ in rows],
    })


FIG2_CSV = b"""region,experiment,lost
US,control,1
EU,control,0
US,treatment1,0
EU,treatment3,1
US,control,1
US,treatment2,0
"""


# -- random DSL pipelines for round-trip tests ---------------------------------

from slicemetrics import (
    AbsoluteChange, Bootstrap, Count, Distribution, Jackknife, Mean,
    PercentChange, ScalarLiteral, StdDev, Sum, Variance, combine,
)


_COLUMNS = ["alpha", "beta", "gamma"]


def _random_leaf(rng: random.Random):
    kind = rng.choice([Sum, Count, Mean, Variance, StdDev])
    return kind(rng.choice(_COLUMNS))


def _random_expr(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.15:
            return ScalarLiteral(float(rng.choice([1.0, 2.0, 0.5, 3.25])))
        return _random_leaf(rng)
    op = rng.choice(["add", "sub", "mul", "div"])
    left = _random_expr(rng, depth - 1)
    right = _random_expr(rng, depth - 1)
    if rng.random() < 0.2:
        return combine("pow", _random_leaf(rng), ScalarLiteral(2.0))
    return combine(op, left, right)


def random_pipeline(rng: random.Random):
    metric = _random_expr(rng, 2)
    if rng.random() < 0.4:
        metric = metric.set_names([rng.choice(["m", "rate", "the metric"])])
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3:
            metric = metric | Distribution(rng.choice(_COLUMNS))
        elif roll < 0.6:
            baseline = rng.choice(["base", 0, 2.5])
            metric = metric | PercentChange(rng.choice(_COLUMNS), baseline)
        elif roll < 0.8:
            metric = metric | AbsoluteChange(rng.choice(_COLUMNS), "zero")
        elif roll < 0.9:
            metric = metric | Bootstrap(rng.randint(1, 500), seed=0)
        else:
            metric = metric | Jackknife(rng.choice(_COLUMNS))
        if rng.random() < 0.2:
            metric = metric.set_names(["stage"])
    return metric

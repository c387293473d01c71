from __future__ import annotations

import math
import random

import pytest

from slicemetrics import (
    AbsoluteChange,
    BindError,
    Bootstrap,
    Count,
    Dialect,
    Distribution,
    Jackknife,
    Mean,
    MetricsError,
    NestedBootstrap,
    PercentChange,
    Quantile,
    StdDev,
    Sum,
    Table,
    UnsupportedInDialect,
    Variance,
    compute_on,
    to_sql,
)
from slicemetrics.metrics import bind
from slicemetrics.sqlgen import resample_n_times_sql, sql_aggregate, sql_expr

from helpers import (
    assert_backend_equal, connect, execute_query, grid_table, load_table, random_pipeline,
)

GOOGLE = Dialect.GOOGLESQL
PORTABLE = Dialect.PORTABLE


def churn_metric():
    return (Sum("lost") / Count("lost")).set_names(["churn"])


class TestSqlExpr:
    def test_ratio(self):
        assert sql_expr(Sum("lost") / Count("lost"), GOOGLE) == ["SUM(lost) / COUNT(lost)"]

    def test_simple_sum(self):
        assert sql_expr(Sum("x"), GOOGLE) == ["SUM(x)"]

    def test_scalar_splice(self):
        assert sql_expr(Sum("x") + 2.0, GOOGLE) == ["SUM(x) + 2.0"]

    def test_nested_composite_parenthesized(self):
        expr = sql_expr((Sum("a") + Count("b")) * 3.0, GOOGLE)[0]
        assert expr == "(SUM(a) + COUNT(b)) * 3.0"

    def test_portable_division_casts(self):
        assert sql_expr(Sum("x") / Count("x"), PORTABLE) == [
            "CAST(SUM(x) AS REAL) / COUNT(x)"
        ]

    def test_power_is_a_function_call(self):
        assert sql_expr(Count("x") ** 0.5, GOOGLE) == ["POWER(COUNT(x), 0.5)"]

    def test_variance_and_sd_names(self):
        assert sql_expr(Variance("x"), PORTABLE) == ["VARIANCE(x)"]
        assert sql_expr(StdDev("x"), PORTABLE) == ["STDDEV(x)"]

    def test_quantile_googlesql_only(self):
        assert sql_expr(Quantile("x", 0.9), GOOGLE) == ["PERCENTILE_CONT(x, 0.9)"]
        with pytest.raises(UnsupportedInDialect):
            sql_expr(Quantile("x", 0.9), PORTABLE)

    def test_operation_inside_expression_rejected(self):
        bad = (Sum("x") | Distribution("g")) + Count("x")
        with pytest.raises(UnsupportedInDialect):
            sql_expr(bad, GOOGLE)


class TestSqlAggregate:
    def test_no_dims(self):
        got = sql_aggregate(churn_metric(), "t", [], GOOGLE)
        assert got == "SELECT SUM(lost) / COUNT(lost) AS churn FROM t"

    def test_dims_add_group_by(self):
        got = sql_aggregate(Sum("x"), "tbl", ["g"], GOOGLE)
        assert got == "SELECT g, SUM(x) AS sum_x FROM tbl GROUP BY g"

    def test_two_value_columns_in_declared_order(self):
        joint = sql_aggregate(Sum("x"), "t", ["g"], GOOGLE)
        assert joint.index("g,") < joint.index("SUM(x)")

    def test_keyword_column_is_quoted(self):
        got = sql_aggregate(Sum("order"), "t", ["select"], PORTABLE)
        assert '"select"' in got and 'SUM("order")' in got


def _top_level_select_clause(text: str) -> str:
    depth = 0
    for i in range(len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith("SELECT", i):
            rest = text[i:]
            out, depth2 = [], 0
            for j, c in enumerate(rest):
                if c == "(":
                    depth2 += 1
                elif c == ")":
                    depth2 -= 1
                elif depth2 == 0 and rest.startswith(" FROM ", j):
                    return rest[:j]
            return rest
    raise AssertionError(f"no top-level SELECT in:\n{text}")


class TestToSql:
    def test_leaf_query_executes_and_matches(self, mixed):
        assert_backend_equal(Sum("v"), mixed, ("g",))

    def test_percent_change_without_dims_joins_on_true(self, fig2):
        q = to_sql(churn_metric() | PercentChange("experiment", "control"), "d", (), GOOGLE)
        assert "T LEFT JOIN Base ON TRUE" in q.text
        assert "(T.churn / Base.churn - 1) * 100" in q.text

    def test_percent_change_with_dims_joins_null_safe(self, mixed):
        q = to_sql(Sum("v") | PercentChange("h", "x"), "d", ("g",), GOOGLE)
        assert "T LEFT JOIN Base ON T.g IS NOT DISTINCT FROM Base.g" in q.text

    def test_chained_changes_thread_extra_dims(self):
        metric = Mean("v") | AbsoluteChange("g", "a") | PercentChange("h", "x")
        q = to_sql(metric, "d", ("r",), GOOGLE)
        assert q.key_columns == ("r", "h", "g")

    def test_key_columns_in_outer_select(self, mixed):
        cases = [
            (Sum("v"), ("g",)),
            (Count("v") | Distribution("h"), ("g",)),
            (Sum("v") | PercentChange("h", "x"), ("g",)),
            (Mean("v") | AbsoluteChange("g", "a") | AbsoluteChange("h", "x"), ()),
            (Mean("v") | Bootstrap(3, seed=1), ("g",)),
        ]
        for metric, split in cases:
            q = to_sql(metric, "d", split, PORTABLE)
            clause = _top_level_select_clause(q.text)
            for key in q.key_columns:
                assert key in clause, f"{key} missing from outer SELECT: {clause}"

    def test_value_columns_match_names(self, mixed):
        metric = (Sum("v") / Count("v")).set_names(["ratio"])
        q = to_sql(metric | PercentChange("h", "x"), "d", ("g",), PORTABLE)
        assert q.value_columns == ("pct_change_of_ratio",)

    def test_generated_text_is_deterministic(self):
        metric = Mean("v") | PercentChange("h", "x") | Bootstrap(20, seed=3)
        a = to_sql(metric, "d", ("g",), PORTABLE)
        b = to_sql(metric, "d", ("g",), PORTABLE)
        assert a.render() == b.render()

    def test_text_baseline_is_escaped(self):
        t = Table.from_dict({"who": ["O'Brien", "O'Brien", "other"], "x": [1, 2, 4]})
        metric = Sum("x") | AbsoluteChange("who", "O'Brien")
        assert_backend_equal(metric, t, ())

    def test_numeric_baseline_unquoted(self):
        q = to_sql(Sum("x") | AbsoluteChange("year", 2020), "d", (), GOOGLE)
        assert "WHERE year = 2020" in q.text
        t = Table.from_dict({"year": [2020, 2021, 2021], "x": [1, 2, 4]})
        assert_backend_equal(Sum("x") | AbsoluteChange("year", 2020), t, ())

    def test_jackknife_has_no_sql(self):
        with pytest.raises(UnsupportedInDialect):
            to_sql(Mean("x") | Jackknife("u"), "d", (), PORTABLE)

    def test_operation_over_a_split_dimension_rejected(self):
        with pytest.raises(BindError):
            to_sql(Sum("x") | Distribution("g"), "d", ["g"])

    def test_nested_bootstrap_rejected(self):
        inner = Mean("x") | Bootstrap(5)
        with pytest.raises(NestedBootstrap):
            to_sql(inner | Bootstrap(5), "d", (), PORTABLE)


class TestGoldenSnapshots:
    def test_percent_change_fragments(self):
        text = to_sql(churn_metric() | PercentChange("experiment", "control"),
                      "events", (), GOOGLE).render()
        assert "T LEFT JOIN Base ON TRUE" in text
        assert "SELECT * EXCEPT (experiment)" in text
        assert "(T.churn / Base.churn - 1) * 100" in text

    def test_bootstrap_fragments(self):
        metric = churn_metric() | PercentChange("experiment", "control") | Bootstrap(100, seed=0)
        text = to_sql(metric, "events", (), GOOGLE).render()
        assert "STDDEV(" in text
        assert "UNNEST(GENERATE_ARRAY(1, 100))" in text
        assert "CREATE TEMP TABLE Data" in text
        assert "CEILING(RAND() * COUNT(*)" in text

    def test_portable_never_uses_googlesql_constructs(self):
        metric = churn_metric() | PercentChange("experiment", "control") | Bootstrap(10, seed=0)
        text = to_sql(metric, "events", (), PORTABLE).render()
        assert "UNNEST" not in text
        assert "GENERATE_ARRAY" not in text
        assert "EXCEPT" not in text
        assert "RAND()" not in text


class TestResampleSql:
    def test_googlesql_text_fragment(self):
        input_data, _ = resample_n_times_sql("d", (), 17, GOOGLE)
        assert "UNNEST(GENERATE_ARRAY(1, 17))" in input_data

    def test_portable_data_has_n_rep_times_rows(self, mixed):
        q = to_sql(Mean("v") | Bootstrap(7, seed=2), "d", (), PORTABLE)
        con = connect()
        load_table(con, "d", mixed)
        for statement in q.preamble:
            con.execute(statement)
        count = con.execute("SELECT COUNT(*) FROM Data").fetchone()[0]
        assert count == 7 * mixed.row_count
        idx = con.execute(
            "SELECT MIN(sample_idx), MAX(sample_idx) FROM Data"
        ).fetchone()
        assert idx == (1, 7)
        draws = con.execute(
            "SELECT MIN(random_row_number), MAX(random_row_number) FROM Data"
        ).fetchone()
        assert draws[0] >= 1 and draws[1] <= mixed.row_count

    def test_single_row_single_rep_draws_that_row(self):
        t = Table.from_dict({"x": [41.5]})
        q = to_sql(Sum("x") | Bootstrap(1, seed=0), "d", (), PORTABLE)
        con = connect()
        load_table(con, "d", t)
        for statement in q.preamble:
            con.execute(statement)
        rows = con.execute("SELECT x FROM Data").fetchall()
        assert rows == [(41.5,)]

    def test_resampled_rows_come_from_source(self, mixed):
        input_data, samples = resample_n_times_sql("d", (), 5, PORTABLE, seed=3)
        con = connect()
        load_table(con, "d", mixed)
        con.execute(f"CREATE TEMP TABLE Data AS {input_data}")
        rows = con.execute(f"SELECT v, w FROM ({samples})").fetchall()
        assert len(rows) == 5 * mixed.row_count
        source = set(zip(mixed.column("v").values, mixed.column("w").values))
        assert set(rows) <= source


class TestBootstrapEquivalence:
    def test_sql_se_tracks_compute_se(self):
        rng = random.Random(4)
        values = [rng.gauss(0, 1) for _ in range(80)]
        t = Table.from_dict({"x": values})
        compute_se = compute_on(Mean("x") | Bootstrap(400, seed=11), t).single_value()
        q = to_sql(Mean("x") | Bootstrap(400, seed=11), "d", (), PORTABLE)
        sql_rows = execute_query(q, {"d": t})
        sql_se = sql_rows[()][0]
        assert abs(sql_se - compute_se) / compute_se <= 0.2

    def test_grouped_bootstrap_executes(self, mixed):
        q = to_sql(Mean("v") | Bootstrap(60, seed=5), "d", ("g",), PORTABLE)
        rows = execute_query(q, {"d": mixed})
        assert set(rows) == {("a",), ("b",)}
        assert all(v[0] >= 0 or math.isnan(v[0]) for v in rows.values())


class TestBackendEquivalenceSpot:
    def test_null_dimension_and_missing_baseline(self):
        # The null region is a slice like any other; region "w" has no
        # baseline row, so its change is NaN in both backends.
        t = Table.from_dict({
            "region": ["e", "e", None, None, "w", "w"],
            "arm": ["c", "t", "c", "t", "t", "t"],
            "x": [1, 2, 3, 5, 4, 6],
        })
        for change in (PercentChange("arm", "c"), AbsoluteChange("arm", "c")):
            assert_backend_equal(Sum("x") | change, t, ("region",))

    def test_change_without_any_baseline_keeps_its_rows(self):
        t = Table.from_dict({"arm": ["t", "t"], "x": [1, 2]})
        assert_backend_equal(Sum("x") | PercentChange("arm", "c"), t, ())

    def test_random_tables_random_metrics(self):
        rng = random.Random(51)
        metrics = [
            Sum("x"),
            Mean("x") / Count("y"),
            Count("y") | Distribution("g2"),
            Sum("y") | PercentChange("arm", "control"),
            Mean("x") | AbsoluteChange("g2", "red"),
        ]
        for _ in range(8):
            t = grid_table(rng)
            metric = rng.choice(metrics)
            split = rng.choice([(), ("g1",)])
            assert_backend_equal(metric, t, split)

    def test_key_columns_agree_on_random_trees(self):
        rng = random.Random(61)
        t = Table.from_dict({
            "alpha": [1, 2, 2, 1, 3], "beta": [0, 1, 0, 1, 1],
            "gamma": [2.5, 1.0, 2.5, 0.5, 1.0], "delta": ["p", "q", "p", "q", "p"],
        })
        checked = 0
        for _ in range(100):
            metric = random_pipeline(rng)
            for split in ((), ("delta",)):
                try:
                    query = to_sql(metric, "d", split, PORTABLE)
                    frame = compute_on(metric, t, split)
                except MetricsError:
                    continue
                assert frame.key_columns == bind(metric, split) == query.key_columns, metric
                checked += 1
        assert checked > 50

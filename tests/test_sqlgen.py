from __future__ import annotations

import math
import random
import re

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
from slicemetrics.metrics import ScalarLiteral, bind, walk
from slicemetrics.sqlgen import (
    _BOOTSTRAP_COLUMNS, resample_n_times_sql, sql_aggregate, sql_expr,
)

from helpers import (
    assert_backend_equal, connect, execute_query, grid_table, load_table, random_pipeline,
)

GOOGLE = Dialect.GOOGLESQL
PORTABLE = Dialect.PORTABLE


def churn_metric():
    return (Sum("lost") / Count("lost")).set_names(["churn"])


class TestSqlExpr:
    def test_ratio(self):
        expr = sql_expr(Sum("lost") / Count("lost"), GOOGLE)
        assert expr == "IEEE_DIVIDE(SUM(lost), COUNT(lost))"

    def test_simple_sum(self):
        assert sql_expr(Sum("x"), GOOGLE) == "SUM(x)"

    def test_scalar_splice(self):
        assert sql_expr(Sum("x") + 2.0, GOOGLE) == "SUM(x) + 2.0"

    def test_nested_composite_parenthesized(self):
        expr = sql_expr((Sum("a") + Count("b")) * 3.0, GOOGLE)
        assert expr == "(SUM(a) + COUNT(b)) * 3.0"

    def test_portable_division_casts(self):
        assert sql_expr(Sum("x") / Count("x"), PORTABLE) == (
            "CASE WHEN COUNT(x) = 0 THEN SUM(x) * 9e999 ELSE CAST(SUM(x) AS REAL) / COUNT(x) END"
        )

    def test_power_is_a_function_call(self):
        assert sql_expr(Count("x") ** 0.5, GOOGLE) == "POWER(COUNT(x), 0.5)"

    def test_variance_and_sd_names(self):
        assert sql_expr(Variance("x"), PORTABLE) == "VARIANCE(x)"
        assert sql_expr(StdDev("x"), PORTABLE) == "STDDEV(x)"

    def test_quantile_googlesql_only(self):
        assert sql_expr(Quantile("x", 0.9), GOOGLE) == "PERCENTILE_CONT(x, 0.9)"
        with pytest.raises(UnsupportedInDialect):
            sql_expr(Quantile("x", 0.9), PORTABLE)

    def test_operation_inside_expression_rejected(self):
        bad = (Sum("x") | Distribution("g")) + Count("x")
        with pytest.raises(UnsupportedInDialect):
            sql_expr(bad, GOOGLE)


class TestSqlAggregate:
    def test_no_dims(self):
        got = sql_aggregate(churn_metric(), "t", [], GOOGLE)
        assert got == "SELECT IEEE_DIVIDE(SUM(lost), COUNT(lost)) AS churn FROM t"

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
        assert "(IEEE_DIVIDE(T.churn, Base.churn) - 1) * 100" in q.text

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
        assert "(IEEE_DIVIDE(T.churn, Base.churn) - 1) * 100" in text

    def test_bootstrap_fragments(self):
        metric = churn_metric() | PercentChange("experiment", "control") | Bootstrap(100, seed=0)
        text = to_sql(metric, "events", (), GOOGLE).render()
        assert "STDDEV(" in text
        assert "UNNEST(GENERATE_ARRAY(1, 100))" in text
        assert "CREATE TEMP TABLE Data" in text
        assert "MOD(" in text and "RAND()" not in text

    def test_googlesql_bootstrap_text_is_fixed_by_the_seed(self):
        def text(seed):
            return to_sql(Mean("x") | Bootstrap(10, seed=seed), "d", ("g",), GOOGLE).render()

        assert text(1) == text(1)
        assert text(1) != text(2)

    def test_portable_never_uses_googlesql_constructs(self):
        metric = churn_metric() | PercentChange("experiment", "control") | Bootstrap(10, seed=0)
        text = to_sql(metric, "events", (), PORTABLE).render()
        assert "UNNEST" not in text
        assert "GENERATE_ARRAY" not in text
        assert "EXCEPT" not in text
        assert "RAND()" not in text


class TestResampleSql:
    def test_googlesql_text_fragment(self):
        _, samples = resample_n_times_sql("d", (), 17, GOOGLE, columns=())
        assert "UNNEST(GENERATE_ARRAY(1, 17))" in samples

    def test_portable_data_numbers_each_row_once_with_the_read_columns(self, mixed):
        q = to_sql(Mean("v") | Bootstrap(7, seed=2), "d", ("g",), PORTABLE)
        con = connect()
        load_table(con, "d", mixed)
        for statement in q.preamble:
            con.execute(statement)
        cursor = con.execute("SELECT * FROM Data")
        assert [d[0] for d in cursor.description] == ["g", "v", "row_number", "slice_size"]
        rows = cursor.fetchall()
        assert len(rows) == mixed.row_count
        by_slice: dict = {}
        for g, _, row_number, slice_size in rows:
            by_slice.setdefault(g, []).append((row_number, slice_size))
        for numbered in by_slice.values():
            n = len(numbered)
            assert sorted(numbered) == [(i, n) for i in range(1, n + 1)]

    def test_seeds_draw_different_replicate_sets(self):
        con = connect()
        load_table(con, "d", Table.from_dict({"x": list(range(100))}))
        input_data, _ = resample_n_times_sql("d", (), 20, PORTABLE, columns=("x",))
        con.execute(f"CREATE TEMP TABLE Data AS {input_data}")  # the same for every seed

        def replicates(seed):
            _, samples = resample_n_times_sql("d", (), 20, PORTABLE, seed=seed, columns=("x",))
            drawn: dict = {}
            for sample_idx, x in con.execute(f"SELECT sample_idx, x FROM ({samples})"):
                drawn.setdefault(sample_idx, []).append(x)
            assert len(drawn) == 20
            return frozenset(tuple(sorted(xs)) for xs in drawn.values())

        sets = [replicates(seed) for seed in range(256)]
        assert len(set(sets)) == 256
        # Seeds 12345 apart once shared all but one replicate.
        for seed in range(256):
            assert not sets[seed] & replicates(seed + 12345)

    def test_each_replicate_draws_slice_size_rows_from_its_slice(self):
        rng = random.Random(22)
        for _ in range(25):
            n = rng.randint(1, 60)
            t = Table.from_dict({
                "id": list(range(n)),
                "g": [rng.choice(["a", "b", None]) for _ in range(n)],
                "h": [rng.choice([1, 2]) for _ in range(n)],
            })
            split = tuple(rng.sample(["g", "h"], rng.randint(0, 2)))
            n_rep = rng.randint(1, 8)
            input_data, samples = resample_n_times_sql(
                "d", split, n_rep, PORTABLE, seed=rng.randint(0, 999), columns=("id",)
            )
            con = connect()
            load_table(con, "d", t)
            con.execute(f"CREATE TEMP TABLE Data AS {input_data}")
            key_of = {i: tuple(t.column(c).values[i] for c in split) for i in range(n)}
            sizes: dict = {}
            for key in key_of.values():
                sizes[key] = sizes.get(key, 0) + 1
            cols = ", ".join(split + ("sample_idx", "id"))
            drawn: dict = {}
            for *key, sample_idx, row_id in con.execute(f"SELECT {cols} FROM ({samples})"):
                assert key_of[row_id] == tuple(key)
                drawn.setdefault((tuple(key), sample_idx), []).append(row_id)
            assert set(drawn) == {(k, i) for k in sizes for i in range(1, n_rep + 1)}
            for (key, _), ids in drawn.items():
                assert len(ids) == sizes[key]

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
        input_data, samples = resample_n_times_sql(
            "d", (), 5, PORTABLE, seed=3, columns=("v", "w")
        )
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

    def test_null_dimension_keeps_its_slice(self):
        t = Table.from_dict({
            "region": ["e", "e", "w", None, "w", None, "e", None],
            "x": [1.0, 2.0, 4.0, 3.0, 5.0, 8.0, 0.5, 2.5],
        })
        metric = Mean("x") | Bootstrap(30, seed=3)
        rows = execute_query(to_sql(metric, "d", ("region",), PORTABLE), {"d": t})
        frame = compute_on(metric, t, ("region",))
        assert set(rows) == {key for key, _ in frame.rows} == {("e",), ("w",), (None,)}

    def test_child_reading_no_column(self, mixed):
        metric = ScalarLiteral(2.0) | Bootstrap(5, seed=1)
        for split, kept in (((), "ROW_NUMBER() OVER ()"), (("g",), "g, ROW_NUMBER()")):
            q = to_sql(metric, "d", split, PORTABLE)
            assert q.preamble[0].startswith(f"CREATE TEMP TABLE Data AS SELECT {kept}")
            assert_backend_equal(metric, mixed, split)

    def test_read_column_named_like_the_draw_state(self):
        # The draw hash reads the replicate series' state and Data's row
        # number by table, so a read column of the same name is just data.
        t = Table.from_dict({"g": ["a", "a", "b"], "replicate_state": [1.0, 2.0, 4.0]})
        metric = Mean("replicate_state") | Bootstrap(5, seed=1)
        rows = execute_query(to_sql(metric, "d", ("g",), PORTABLE), {"d": t})
        assert set(rows) == {key for key, _ in compute_on(metric, t, ("g",)).rows}
        assert rows[("b",)] == (0.0,)

    @pytest.mark.parametrize("metric, columns, split", [
        (Mean("x") | Bootstrap(5, seed=1), {"rand": ["a", "a", "b"]}, ("rand",)),
        (Mean("row_number") | Bootstrap(5), {"g": ["a", "a", "b"]}, ("g",)),
        (Mean("sample_idx") | Bootstrap(5), {"g": ["a", "a", "b"]}, ("g",)),
        (Mean("x") | Bootstrap(5), {"replicate_state": ["a", "a", "b"]}, ("replicate_state",)),
        (Mean("slice_size") | Bootstrap(5), {}, ()),
        (Mean("x").set_names(["sample_idx"]) | Bootstrap(5), {"g": ["a", "a", "b"]}, ("g",)),
    ], ids=["split_rand", "read_row_number", "read_sample_idx", "split_replicate_state",
            "read_slice_size", "value_sample_idx"])
    def test_input_columns_named_like_its_own_are_rejected(self, metric, columns, split):
        # Each ran at the parent: the first two gave wrong SEs (0.0, or no
        # rows at all), the third an ambiguous column in sqlite.
        values = [1.0, 2.0, 4.0]
        t = Table.from_dict({"x": values, "row_number": values, "sample_idx": values,
                             "slice_size": values, **columns})
        assert compute_on(metric, t, split).rows
        for dialect in Dialect:
            with pytest.raises(UnsupportedInDialect, match="rename"):
                to_sql(metric, "d", split, dialect)

    def test_reserved_names_are_the_bootstrap_sql_columns(self):
        # The column aliases of the bootstrap SQL, other than the metric's
        # values, are the set the input is checked against.
        metric = Mean("x") | Distribution("h") | PercentChange("arm", "c") | Bootstrap(3)
        values = {node.names()[0] for node in walk(metric)}
        for dialect in Dialect:
            text = to_sql(metric, "d", ("g",), dialect).render()
            found = re.findall(r" AS ([a-z_0-9]+)\b|RECURSIVE \w+\((\w+)\)", text)
            assert {a or b for a, b in found} - values == _BOOTSTRAP_COLUMNS

    def test_grouped_bootstrap_executes(self, mixed):
        q = to_sql(Mean("v") | Bootstrap(60, seed=5), "d", ("g",), PORTABLE)
        rows = execute_query(q, {"d": mixed})
        assert set(rows) == {("a",), ("b",)}
        assert all(v[0] >= 0 or math.isnan(v[0]) for v in rows.values())


class TestZeroDenominators:
    # Division follows IEEE in both backends: x/0 is +-inf and 0/0 is NaN
    # (NULL in SQL), and a change's baseline rows are 0 whatever their value.

    def test_percent_change_against_a_zero_baseline(self):
        t = Table.from_dict({"arm": ["c", "c", "t", "u"], "x": [0, 0, 3, 0]})
        metric = Sum("x") | PercentChange("arm", "c")
        frame = dict(compute_on(metric, t).rows)
        assert frame[("c",)] == (0.0,) and frame[("t",)] == (math.inf,)
        assert math.isnan(frame[("u",)][0])
        assert_backend_equal(metric, t, ())
        assert "IEEE_DIVIDE(T.sum_x, Base.sum_x)" in to_sql(metric, "d", (), GOOGLE).text

    def test_ratio_over_a_zero_sum(self):
        t = Table.from_dict({"g": ["a", "b", "c"], "x": [0, 0, 0], "y": [2, -3, 0]})
        metric = Sum("y") / Sum("x")
        frame = dict(compute_on(metric, t, ("g",)).rows)
        assert frame[("a",)] == (math.inf,) and frame[("b",)] == (-math.inf,)
        assert math.isnan(frame[("c",)][0])
        assert_backend_equal(metric, t, ("g",))
        assert sql_expr(metric, GOOGLE) == "IEEE_DIVIDE(SUM(y), SUM(x))"

    def test_distribution_over_a_zero_total(self):
        t = Table.from_dict({"g": ["a", "a", "b", "b"], "h": [1, 2, 1, 2], "x": [1, -1, 0, 0]})
        assert_backend_equal(Sum("x") | Distribution("h"), t, ("g",))

    def test_baseline_row_is_zero_when_its_value_is_not_finite(self):
        t = Table.from_dict({"arm": ["c", "t"], "x": [0, 1], "y": [1, 1]})
        for change in (PercentChange("arm", "c"), AbsoluteChange("arm", "c")):
            metric = Sum("y") / Sum("x") | change
            assert dict(compute_on(metric, t).rows)[("c",)] == (0.0,)
            assert_backend_equal(metric, t, ())

    def test_bootstrap_se_reads_only_finite_replicates(self):
        t = Table.from_dict({"x": [0, 0, 0, 1, 2], "y": [1, 1, 1, 1, 1]})
        metric = Sum("y") / Sum("x") | Bootstrap(40, seed=1)
        assert math.isfinite(compute_on(metric, t).single_value())
        (sql_se,) = execute_query(to_sql(metric, "d"), {"d": t})[()]
        assert math.isfinite(sql_se)
        assert "IS_INF(" in to_sql(metric, "d", (), GOOGLE).text


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

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter

import numpy as np
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
    TypeMismatch,
    UnsupportedInDialect,
    Variance,
    compute_on,
    parse,
    read_csv,
    to_sql,
)
from slicemetrics.metrics import ScalarLiteral, bind, walk
from slicemetrics.sqlgen import resample_n_times_sql, sql_aggregate, sql_expr
from slicemetrics.table import Column, resample_with_replacement

from helpers import (
    assert_backend_equal, connect, execute_query, grid_table, load_table, random_pipeline,
)
from test_acceptance import GOLDEN_TREES

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


_CTE_METRICS = [
    Sum("x") | Distribution("h"),
    Sum("x") | PercentChange("g", "a"),
    Sum("x") | Distribution("h") | AbsoluteChange("g", "a"),
    Sum("x") | PercentChange("g", "a") | Bootstrap(4, seed=2),
]
_CTE_SOURCES = ["t", "T", '"t"', "base", "BASE", "Samples", "SampleRes", "Replicates", "Draws"]
# Every metric against every source, these pairs first.
_CTE_LEAD = [(0, "t"), (0, "T"), (0, '"t"'), (1, "t"), (1, "base"), (2, "BASE")]


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

    def test_a_dialect_may_be_named_by_its_value(self):
        metric = Mean("x") | Bootstrap(3)
        for dialect in Dialect:
            assert to_sql(metric, "d", (), dialect.value) == to_sql(metric, "d", (), dialect)

    def test_portable_by_name_has_no_quantile(self):
        with pytest.raises(UnsupportedInDialect, match="portable"):
            to_sql(Quantile("x", 0.5), "d", (), "portable")

    @pytest.mark.parametrize("dialect", ["oracle", "PORTABLE", None, 1])
    def test_an_unknown_dialect_is_rejected(self, dialect):
        for metric in (Quantile("x", 0.5), Mean("x") | Bootstrap(3), Sum("x")):
            with pytest.raises(UnsupportedInDialect, match="unknown dialect"):
                to_sql(metric, "d", (), dialect)

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

    @pytest.mark.parametrize("metric, source", [
        (_CTE_METRICS[i], source) for i, source in _CTE_LEAD + [
            (i, source) for source in _CTE_SOURCES for i in range(len(_CTE_METRICS))
            if (i, source) not in _CTE_LEAD
        ]
    ])
    def test_source_named_like_a_cte_compiles_and_agrees(self, metric, source):
        # The CTEs take other names, so every read of the source is the table's.
        t = Table.from_dict({"g": ["a", "a", "b", "b", "a"], "h": [1, 2, 1, 2, 2],
                             "x": [1, 2, 4, 8, 16]})
        to_sql(metric, source, (), GOOGLE)
        assert_backend_equal(metric, t, (), source=source)

    @pytest.mark.parametrize("metric, source", [
        (Sum("x"), "t"),
        (Sum("x") | Distribution("g"), "base"),
        (Mean("x") | Bootstrap(3), "samples"),
        (Sum("x") | PercentChange("g", "a") | Bootstrap(3), "t"),
    ])
    def test_source_named_like_a_cte_it_is_not_read_in_runs(self, metric, source):
        t = Table.from_dict({"g": ["a", "a", "b"], "h": [1, 2, 1], "x": [1, 2, 4]})
        assert execute_query(to_sql(metric, source), {source: t})


class TestOneWithList:
    # A statement's CTEs sit in one WITH list at its start, each under a name
    # that no other CTE, the source table or the temp table Data takes.

    _SOURCES = ["d", "t", "T", '"t"', "base", "Samples", "SampleRes", "Replicates", "data"]

    @staticmethod
    def _cte_names(text: str) -> list[str]:
        """The names the WITH list defines: the statement at parenthesis depth 0."""
        top, depth = [], 0
        for ch in text:  # no baseline or name in these trees holds a parenthesis
            depth -= ch == ")"
            if depth == 0:
                top.append(ch)
            depth += ch == "("
        return re.findall(r"(?:^WITH (?:RECURSIVE )?|,\n)(\w+)(?:\(\))? AS \(\)", "".join(top))

    def test_each_statement_has_one_with_list_at_its_start(self):
        rng = random.Random(2929)
        cases = [(metric, split) for _, metric, split in GOLDEN_TREES]
        cases += [(random_pipeline(rng), rng.choice([(), ("delta",)])) for _ in range(300)]
        checked = 0
        for i, (metric, split) in enumerate(cases):
            source = self._SOURCES[i % len(self._SOURCES)]
            for dialect in Dialect:
                try:
                    text = to_sql(metric, source, split, dialect).text
                except MetricsError:
                    continue
                assert len(re.findall(r"\bWITH\b", text)) <= 1, text
                assert "WITH" not in text or text.startswith("WITH "), text
                names = [n.lower() for n in self._cte_names(text)]
                # T per distribution; T and Base per change; Replicates,
                # Samples and SampleRes per bootstrap.
                per_node = {Distribution: 1, PercentChange: 2, AbsoluteChange: 2, Bootstrap: 3}
                assert len(names) == sum(per_node.get(type(n), 0) for n in walk(metric)), text
                assert len(set(names)) == len(names), text
                assert not {source.strip('"').lower(), "data"} & set(names), text
                checked += len(names) > 2
        assert checked > 100


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
        assert "CREATE OR REPLACE TEMP TABLE Data" in text
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
        assert [d[0] for d in cursor.description] == ["g", "v", "slice_size", "row_number"]
        rows = cursor.fetchall()
        assert len(rows) == mixed.row_count
        by_slice: dict = {}
        for g, _, slice_size, row_number in rows:
            by_slice.setdefault(g, []).append((row_number, slice_size))
        for numbered in by_slice.values():
            n = len(numbered)
            assert sorted(numbered) == [(i, n) for i in range(1, n + 1)]

    def test_portable_data_sorts_its_input_once(self, mixed):
        # slice_size's window comes first, so row_number's sort serves both.
        q = to_sql(Mean("v") | Bootstrap(7, seed=2), "d", ("g",), PORTABLE)
        con = connect()
        load_table(con, "d", mixed)
        (create,) = [s for s in q.preamble if s.startswith("CREATE")]
        plan = [row[-1] for row in con.execute(f"EXPLAIN QUERY PLAN {create}")]
        assert sum("TEMP B-TREE" in step for step in plan) == 1, plan

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
        for split, kept in (((), "COUNT(*) OVER () AS slice_size, ROW_NUMBER() OVER ()"),
                            (("g",), "g, COUNT(*)")):
            q = to_sql(metric, "d", split, PORTABLE)
            assert q.preamble[1].startswith(f"CREATE TEMP TABLE Data AS SELECT {kept}")
            assert_backend_equal(metric, mixed, split)

    def test_read_column_named_like_the_draw_state(self):
        # The draw hash reads the replicate series' state and Data's row
        # number by table, so a read column of the same name is just data.
        t = Table.from_dict({"g": ["a", "a", "b"], "replicate_state": [1.0, 2.0, 4.0]})
        metric = Mean("replicate_state") | Bootstrap(5, seed=1)
        rows = execute_query(to_sql(metric, "d", ("g",), PORTABLE), {"d": t})
        assert set(rows) == {key for key, _ in compute_on(metric, t, ("g",)).rows}
        assert rows[("b",)] == (0.0,)

    def test_split_column_named_like_a_draw_hash_level_runs(self):
        # The draw hash is one expression: it names no column of its own.
        t = Table.from_dict({"rand": ["a", "a", "b", "b"], "x": [1.0, 2.0, 4.0, 8.0]})
        assert_backend_equal(Mean("x") | Bootstrap(5, seed=1), t, ("rand",))

    @pytest.mark.parametrize("metric, columns, split", [
        (Mean("row_number") | Bootstrap(5), {"g": ["a", "a", "b"]}, ("g",)),
        (Mean("sample_idx") | Bootstrap(5), {"g": ["a", "a", "b"]}, ("g",)),
        (Mean("x") | Bootstrap(5), {"replicate_state": ["a", "a", "b"]}, ("replicate_state",)),
        (Mean("slice_size") | Bootstrap(5), {}, ()),
        (Mean("x").set_names(["sample_idx"]) | Bootstrap(5), {"g": ["a", "a", "b"]}, ("g",)),
    ], ids=["read_row_number", "read_sample_idx", "split_replicate_state",
            "read_slice_size", "value_sample_idx"])
    def test_named_like_its_own_agrees(self, metric, columns, split):
        # Named as the input's, the first gave no rows at all and the second
        # an ambiguous column in sqlite; each of its own takes a free name.
        values = [1.0, 2.0, 4.0]
        t = Table.from_dict({"x": values, "row_number": values, "sample_idx": values,
                             "slice_size": values, **columns})
        for dialect in Dialect:
            to_sql(metric, "d", split, dialect)
        assert_backend_equal(metric, t, split)

    def test_its_own_columns_take_the_first_free_name(self):
        # The column aliases of the bootstrap SQL and the replicate series'
        # column list, other than the metric's values, are its four roles'
        # names, each moved to the first free suffix by a split or read
        # column of its name in any case.
        def added(metric, split, dialect):
            values = {node.names()[0] for node in walk(metric)}
            text = to_sql(metric, "d", split, dialect).render()
            found = re.findall(r" AS ([a-z_0-9]+)\b|Replicates\((\w+), (\w+)\) AS", text)
            return {name for names in found for name in names if name} - values

        roles = {"row_number", "slice_size", "sample_idx", "replicate_state"}
        metric = Mean("x") | Distribution("h") | PercentChange("arm", "c") | Bootstrap(3)
        clashing = (Mean("ROW_NUMBER") + Mean("Row_Number2")) | Bootstrap(3)
        for dialect in Dialect:
            assert added(metric, ("g",), dialect) == roles
            assert added(clashing, ("Sample_Idx",), dialect) == {
                "row_number3", "slice_size", "sample_idx2", "replicate_state"}

    def test_grouped_bootstrap_executes(self, mixed):
        q = to_sql(Mean("v") | Bootstrap(60, seed=5), "d", ("g",), PORTABLE)
        rows = execute_query(q, {"d": mixed})
        assert set(rows) == {("a",), ("b",)}
        assert all(v[0] >= 0 or math.isnan(v[0]) for v in rows.values())


class TestColumnNames:
    # A value column inside a CTE takes its metric's name, or the first free
    # name2, name3, ... where a key column of the CTE has it in any case, as
    # the bootstrap's own columns do against the split and read columns.
    # sqlite reads names without case, so each tree below gave a wrong answer
    # or an error before.
    ROWS = {"g": ["a", "b", "a", "b"], "arm": ["c", "t", "t", "c"], "x": [1, 2, 3, 5]}

    @pytest.mark.parametrize("metric, split, renamed", [
        (Sum("x").set_names(["G"]) | PercentChange("arm", "c"), ("g",), {}),
        (Sum("x").set_names(["Arm"]) | Distribution("arm"), (), {}),
        (Sum("x").set_names(["G"]) | Bootstrap(4), ("g",), {}),
        (Sum("Row_Number") | Bootstrap(5), ("g",), {"x": "Row_Number"}),
        (Sum("x") | Bootstrap(5), ("SAMPLE_IDX",), {"g": "SAMPLE_IDX"}),
        (Sum("x").set_names(["Sample_Idx"]) | Bootstrap(5), ("g",), {}),
    ], ids=["change_value_G", "distribution_value_Arm", "bootstrap_value_G",
            "read_Row_Number", "split_SAMPLE_IDX", "bootstrap_value_Sample_Idx"])
    def test_taken_in_any_case_agrees(self, metric, split, renamed):
        t = Table.from_dict({renamed.get(k, k): v for k, v in self.ROWS.items()})
        for dialect in Dialect:
            to_sql(metric, "d", split, dialect)
        assert_backend_equal(metric, t, split)

    def test_only_a_taken_name_moves(self):
        # The final SELECT names the value as written; T's G would be T's g.
        metric = Sum("x").set_names(["G"]) | PercentChange("arm", "c")
        text = to_sql(metric, "d", ("g",)).text
        assert text.startswith("WITH T AS (SELECT g, arm, SUM(x) AS G2 FROM d GROUP BY g, arm),\n"
                               "Base AS (SELECT g, G2 FROM T WHERE arm = 'c')\n")
        assert text.endswith(" END AS pct_change_of_G FROM T LEFT JOIN Base ON T.g IS Base.g"
                             " ORDER BY 1, 2")
        assert "SUM(x) AS G FROM d" in to_sql(metric, "d", ("h",)).text


class TestZeroDenominators:
    # x/0 is x * inf in both backends, as the portable CASE gives, whatever
    # the zero's sign: +-inf, and NaN (NULL in SQL) for 0/0. A change's
    # baseline rows are 0 whatever their value.

    def test_a_negative_zero_divisor_is_a_zero(self):
        t = Table.from_dict({"x": [0], "y": [1]})
        metric = Sum("y") / (Sum("x") * -1.0)
        assert compute_on(metric, t).single_value() == math.inf
        assert_backend_equal(metric, t, ())

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


class TestNonFiniteValues:
    # A sum whose partials are not finite follows IEEE, as SQL's SUM does
    # (inf + -inf is NaN, an overflow inf), and a non-finite constant is the
    # dialect's literal for it.

    @pytest.mark.parametrize("csv, want", [
        (b"g,x\na,1e999\na,-1e999\nb,2\n", {("a",): math.nan, ("b",): 2.0}),
        (b"g,x\na,1e308\na,1e308\n", {("a",): math.inf}),
    ], ids=["inf_minus_inf", "overflow"])
    def test_non_finite_sums_match_sqlite(self, csv, want):
        t = read_csv(csv)
        for metric in (Sum("x"), Mean("x")):
            got = {key: v for key, (v,) in compute_on(metric, t, ("g",)).rows}
            assert got.keys() == want.keys()
            assert all(got[k] == want[k] or math.isnan(got[k]) and math.isnan(want[k])
                       for k in want)
            assert_backend_equal(metric, t, ("g",))
            assert_backend_equal(metric, t)

    @pytest.mark.parametrize("constant, text", [
        (math.inf, "9e999"), (-math.inf, "(-9e999)"), (math.nan, "NULL"),
    ], ids=["inf", "neg_inf", "nan"])
    def test_non_finite_constants_are_literals(self, constant, text):
        t = Table.from_dict({"g": ["a", "a", "b", "c"], "x": [1.0, 2.0, -1.0, 0.0]})
        for metric in (Sum("x") * constant, Sum("x") + constant, ScalarLiteral(constant)):
            assert text in sql_expr(metric, PORTABLE)
            for split in ((), ("g",)):
                assert_backend_equal(metric, t, split)
        google = sql_expr(Sum("x") * constant, GOOGLE)
        assert google == "SUM(x) * " + text.replace("9e999", "CAST('inf' AS FLOAT64)")

    def test_non_finite_dsl_constants_run_on_sqlite(self):
        t = Table.from_dict({"g": ["a", "b"], "x": [1.0, -2.0]})
        for src in ("sum(x) * 1e999", "sum(x) - 1e999", "1e999 / sum(x)"):
            assert_backend_equal(parse(src).metrics[0], t, ("g",))


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

    def test_distribution_leaves_nan_rows_out_of_the_total(self):
        # 0/0 is NaN (NULL in SQL); like SQL's window SUM, the total skips it.
        t = Table.from_dict({"r": ["e", "e", "e", "w"], "g": ["a", "b", "c", "a"],
                             "x": [0, 1, 3, 0]})
        metric = (Sum("x") / Sum("x")) | Distribution("g")
        frame = dict(compute_on(metric, t, ("r",)).rows)
        assert frame[("e", "b")] == (0.5,) and math.isnan(frame[("e", "a")][0])
        assert math.isnan(frame[("w", "a")][0])
        assert_backend_equal(metric, t, ("r",))

    def test_a_constant_without_a_split_is_one_row(self):
        t = Table.from_dict({"g": ["a", "b", "a"], "x": [1, 2, 3]})
        empty = Table.from_dict({"g": [], "x": []})
        for metric in (ScalarLiteral(0.5), ScalarLiteral(2.0) - ScalarLiteral(0.5)):
            for table in (t, empty):
                assert_backend_equal(metric, table, ())
            assert_backend_equal(metric, t, ("g",))
        assert to_sql(ScalarLiteral(0.5), "d").text == 'SELECT 0.5 AS "0_5"'

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


class TestHarnessAggregates:
    # tests/helpers registers VARIANCE and STDDEV on sqlite; they must be the
    # aggregates themselves, or the harness makes divergences of its own.

    def test_variance_is_exact(self):
        con = connect()
        select = "SELECT {}(x) FROM (SELECT 0.0 AS x UNION ALL SELECT 2.0 UNION ALL SELECT NULL)"
        assert con.execute(select.format("VARIANCE")).fetchone() == (2.0,)
        assert con.execute(select.format("STDDEV")).fetchone() == (math.sqrt(2.0),)
        assert con.execute("SELECT VARIANCE(1.0), STDDEV(1.0)").fetchone() == (None, None)
        con.close()


class TestNanIsNull:
    # A NaN input cell is a null cell in both backends, as sqlite stores NaN as NULL.

    @pytest.mark.parametrize("metric", [Sum("x"), Mean("x"), Count("x")],
                             ids=["sum", "mean", "count"])
    def test_a_leaf_skips_a_nan_cell(self, metric):
        t = Table.from_dict({"g": ["a", "a", "b"], "x": [1.0, math.nan, 2.0]})
        assert compute_on(metric, t, ("g",)).rows[0] == (("a",), (1.0,))
        assert_backend_equal(metric, t, ("g",))

    def test_a_distribution_total_skips_a_nan_cell(self):
        t = Table.from_dict({"g": ["a", "a", "b"], "x": [1.0, math.nan, 2.0]})
        metric = Sum("x") | Distribution("g")
        frame = compute_on(metric, t)
        assert frame.rows == ((("a",), (1 / 3,)), (("b",), (2 / 3,)))
        assert_backend_equal(metric, t)

    def test_none_and_nan_dimension_cells_are_one_null_slice(self):
        t = Table.from_dict({"g": [None, math.nan, 1.0], "x": [1, 2, 4]})
        frame = compute_on(Sum("x"), t, ("g",))
        assert frame.rows == (((None,), (3.0,)), ((1.0,), (4.0,)))
        assert_backend_equal(Sum("x"), t, ("g",))

    def test_a_nan_in_a_numpy_float_column(self):
        t = Table.from_dict({"g": ["a", "a", "b", "b"], "x": np.array([1.0, np.nan, 2.0, 4.0])})
        for metric in (Sum("x"), Mean("x"), Count("x")):
            assert_backend_equal(metric, t, ("g",))
        assert_backend_equal(Sum("x") | Distribution("g"), t)

    def test_a_nan_cell_in_a_text_column_is_null(self):
        t = Table.from_dict({"g": ["a", math.nan, "b", "a"], "x": [1, 2, 4, 8]})
        frame = compute_on(Sum("x"), t, ("g",))
        assert frame.rows == (((None,), (2.0,)), (("a",), (9.0,)), (("b",), (4.0,)))
        assert_backend_equal(Sum("x"), t, ("g",))
        assert_backend_equal(Count("g"), t)


class TestOneTypePerColumn:
    # "t" makes arm a text column, so its "1" cells are strings in both backends.
    ARMS = b"arm,x\n1,10\nt,15\n1,20\nt,30\n"

    @pytest.mark.parametrize("baseline", ["1", 1], ids=["text", "number"])
    def test_numeric_baseline_meets_a_text_column_as_text(self, baseline):
        t = read_csv(self.ARMS)
        metric = Sum("x") | PercentChange("arm", baseline)
        assert dict(compute_on(metric, t).rows) == {("1",): (0.0,), ("t",): (50.0,)}
        assert_backend_equal(metric, t)

    @pytest.mark.parametrize("baseline", ["1", "1.0", 1])
    def test_numeric_text_baseline_meets_a_numeric_column_as_a_number(self, baseline):
        t = read_csv(b"arm,x\n1,10\n2,15\n1,20\n2,30\n")
        metric = Sum("x") | PercentChange("arm", baseline)
        assert dict(compute_on(metric, t).rows) == {(1,): (0.0,), (2,): (50.0,)}
        assert_backend_equal(metric, t)

    def test_other_text_baseline_meets_no_number(self):
        t = read_csv(b"arm,x\n1,10\n2,15\n")
        for baseline in ("one", ""):
            assert_backend_equal(Sum("x") | PercentChange("arm", baseline), t)

    def test_float_baseline_meets_a_text_column_as_sqlite_renders_it(self):
        # sqlite renders the REAL 1e20 as "1.0e+20", not as Python's "1e+20".
        t = Table.from_dict({"arm": ["1e+20", "t", "1.0e+20"], "x": [1, 2, 4]})
        metric = Sum("x") | PercentChange("arm", 1e20)
        assert dict(compute_on(metric, t).rows) == {
            ("1.0e+20",): (0.0,), ("1e+20",): (-75.0,), ("t",): (-50.0,)}
        assert_backend_equal(metric, t)

    @pytest.mark.parametrize("baseline", [math.inf, -math.inf, math.nan],
                             ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("arm", [[1, 2, 1, 3], ["Inf", "-Inf", "nan.0", "t"]],
                             ids=["int", "text"])
    def test_infinite_and_nan_baselines(self, arm, baseline):
        # inf meets text as sqlite renders it ("Inf"); NaN, like NULL, equals no cell.
        t = Table.from_dict({"arm": arm, "x": [1, 2, 4, 8]})
        metric = Sum("x") | PercentChange("arm", baseline)
        assert_backend_equal(metric, t)
        text = to_sql(metric, "d", (), GOOGLE).text
        want = {math.inf: "= CAST('inf' AS FLOAT64)", -math.inf: "= -CAST('inf' AS FLOAT64)"}
        assert want.get(baseline, "= NULL") in text

    def test_text_in_a_value_column(self):
        t = read_csv(b"g,x\na,1\nb,oops\n")
        assert_backend_equal(Count("x"), t, ("g",))
        with pytest.raises(TypeMismatch):
            bind(Sum("x"), ("g",), t.schema)
        with pytest.raises(TypeMismatch):
            compute_on(Sum("x"), t, ("g",))


class TestRowOrder:
    # compute_on sorts its rows by key and the SQL ends with ORDER BY over the
    # key positions; sqlite's ascending order (NULL, then numbers, then text
    # by code point) is the frame's, so the two row orders are one.

    _TEXT = {
        "g1": ["north", "South", "ēast", "Öst", "north east", ""],
        "g2": ["red", "blue", "Blue"],
        "arm": ["control", "t1", "t2"],
        "period": ["before", "after"],
    }
    _TREES = [
        Sum("x"),
        Count("y"),
        (Mean("x") / Sum("y") + 1.0).set_names(["ratio"]),
        Count("x") | Distribution("arm"),
        Sum("y") | PercentChange("arm", "control"),
        Mean("x") | AbsoluteChange("arm", "control") | AbsoluteChange("period", "before"),
        Mean("x") | Bootstrap(20, seed=5),
        Sum("y") | AbsoluteChange("arm", "control") | Bootstrap(20, seed=5),
    ]

    def _table(self, rng: random.Random) -> Table:
        """Nulls in every column, every other one a NaN cell; one g1 slice may have no x."""
        n = rng.randint(0, 30)
        null = itertools.cycle([None, float("nan")]).__next__  # rng draws as without NaN

        def cells(values, rate):
            return [null() if rng.random() < rate else rng.choice(values) for _ in range(n)]

        data = {name: cells(values, 0.15) for name, values in self._TEXT.items()}
        if rng.random() < 0.3:
            data["g2"] = cells([1, -2, 30, 2.5], 0.15)
        data["x"] = cells([-1.5, 0.0, 2.25, 4.0], 0.2)
        data["y"] = cells([0, 1, 7], 0.2)
        emptied = rng.choice(self._TEXT["g1"])
        if rng.random() < 0.5:
            data["x"] = [null() if g == emptied else v for g, v in zip(data["g1"], data["x"])]
        return Table.from_dict(data)

    def test_compute_rows_come_in_the_sql_cursor_order(self):
        rng = random.Random(2727)
        checked = 0
        for _ in range(40):
            t = self._table(rng)
            for metric in self._TREES:
                if t.row_count == 0 and isinstance(metric, Bootstrap):
                    continue
                for split in [(), ("g1",), ("g1", "g2")]:
                    frame = compute_on(metric, t, split)
                    got = execute_query(to_sql(metric, "d", split, PORTABLE), {"d": t})
                    assert list(got) == [key for key, _ in frame.rows], (metric, split)
                    checked += len(frame.rows) > 1
        assert checked > 500

    def test_statements_end_with_order_by_the_key_positions(self):
        metric = Mean("v") | AbsoluteChange("h", "x") | Bootstrap(3)
        for dialect in Dialect:
            assert to_sql(metric, "d", ("g",), dialect).text.endswith(" ORDER BY 1, 2")
            assert to_sql(Sum("v"), "d", (), dialect).text == "SELECT SUM(v) AS sum_v FROM d"


class TestBootstrapDraws:
    # compute_on resamples within each split_by slice, with the SQL's hash and
    # in the order its ROW_NUMBER() numbers the rows, so both backends draw the
    # same rows.

    _SPLITS = [(), ("g1",), ("g1", "g2")]
    _TREES = [
        Mean("x") | Bootstrap(20, seed=5),
        Variance("x") | Bootstrap(12, seed=-8),
        Count("x") | Distribution("arm") | Bootstrap(12, seed=3),
        # Sum reads only w, which has no nulls: over a replicate slice whose
        # cells are all null, compute's Sum is 0 and SQL's SUM is NULL.
        Sum("w") | AbsoluteChange("arm", "control") | Bootstrap(15, seed=5),
        (Mean("x") / Sum("w")) | PercentChange("period", "before") | Bootstrap(10, seed=77),
        (Mean("x") | AbsoluteChange("arm", "control") | AbsoluteChange("period", "before")
         | Bootstrap(8, seed=2)),
        Count("g2") / Count("y") | Bootstrap(10, seed=12345),
    ]

    def _table(self, rng: random.Random) -> Table:
        """TestRowOrder's table, with nulls in every column, plus w without any."""
        t = TestRowOrder()._table(rng)
        w = Column.from_cells("w", [rng.choice([-2, 0, 3, 11]) for _ in range(t.row_count)])
        return Table([*t.columns, w])

    @staticmethod
    def _sql_samples(t: Table, split, boot: Bootstrap) -> dict[int, Counter]:
        """The SQL's drawn rows of each replicate, over split plus read columns."""
        columns = boot.draw_columns(split)
        input_data, samples = resample_n_times_sql(
            "d", split, boot.n_rep, PORTABLE, seed=boot.seed, columns=columns)
        con = connect()
        load_table(con, "d", t)
        con.execute(f"CREATE TEMP TABLE Data AS {input_data}")
        drawn: dict[int, Counter] = {}
        kept = ", ".join([*split, *columns, "sample_idx"])
        for *row, sample_idx in con.execute(f"SELECT {kept} FROM ({samples})"):
            drawn.setdefault(sample_idx, Counter())[tuple(row)] += 1
        con.close()
        return drawn

    @staticmethod
    def _record(monkeypatch) -> list[Table]:
        drawn: list[Table] = []

        def recording(table, order, seed, i):
            replicate = resample_with_replacement(table, order, seed, i)
            drawn.append(replicate)
            return replicate

        monkeypatch.setattr("slicemetrics.compute.resample_with_replacement", recording)
        return drawn

    def test_se_values_agree_on_random_tables(self):
        rng = random.Random(2828)
        checked = 0
        for _ in range(16):
            t = self._table(rng)
            if t.row_count == 0:
                continue
            for metric in self._TREES:
                for split in self._SPLITS:
                    assert_backend_equal(metric, t, split, tol=1e-9)
                    frame = compute_on(metric, t, split)
                    checked += sum(v > 0 for _, (v,) in frame.rows)
        assert checked > 500

    def test_each_replicate_draws_the_rows_of_its_sql_sample(self, monkeypatch):
        drawn = self._record(monkeypatch)
        rng = random.Random(2929)
        for _ in range(40):
            t = self._table(rng)
            if t.row_count == 0:
                continue
            boot = rng.choice(self._TREES)
            split = rng.choice(self._SPLITS)
            drawn.clear()
            compute_on(boot, t, split)
            kept = [*split, *boot.draw_columns(split)]
            want = {i: Counter(zip(*(r.column(c).values for c in kept)))
                    for i, r in enumerate(drawn, start=1)}
            assert self._sql_samples(t, split, boot) == want, (boot, split)

    def test_replicates_are_a_prefix_of_a_longer_run(self, monkeypatch):
        drawn = self._record(monkeypatch)
        t = self._table(random.Random(37))
        assert t.row_count > 20
        runs = []
        for n_rep in (5, 9):
            boot = Mean("x") | AbsoluteChange("arm", "control") | Bootstrap(n_rep, seed=-4)
            drawn.clear()
            compute_on(boot, t, ("g1",))
            sql = self._sql_samples(t, ("g1",), boot)
            runs.append(([list(r.rows()) for r in drawn], [sql[i] for i in sorted(sql)]))
        (compute_5, sql_5), (compute_9, sql_9) = runs
        assert len(compute_9) == len(sql_9) == 9
        assert compute_5 == compute_9[:5] and sql_5 == sql_9[:5]
        assert len({repr(rows) for rows in compute_9}) == 9

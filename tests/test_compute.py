from __future__ import annotations

import math
import random

import pytest

from slicemetrics import (
    AbsoluteChange,
    BindError,
    Bootstrap,
    Count,
    Distribution,
    EmptyInput,
    EvalContext,
    Jackknife,
    Max,
    Mean,
    MetricsError,
    Min,
    PercentChange,
    Quantile,
    ResultFrame,
    StdDev,
    Sum,
    Table,
    TypeMismatch,
    UnknownColumn,
    Variance,
    combine,
    compute_on,
)
from slicemetrics.compute import eval_composite, eval_leaf
from slicemetrics.dsl import set_n_rep
from slicemetrics.metrics import walk
from slicemetrics.table import group_rows, resample_with_replacement

from helpers import random_pipeline, random_table


def one_column(values) -> Table:
    return Table.from_dict({"x": list(values)})


def brute_quantile(values, q):
    s = sorted(values)
    h = q * (len(s) - 1)
    lo = math.floor(h)
    if lo + 1 >= len(s):
        return float(s[-1])
    return s[lo] + (h - lo) * (s[lo + 1] - s[lo])


class TestEvalLeaf:
    def test_sum_of_figure_column(self, fig2):
        assert compute_on(Sum("lost"), fig2).single_value() == 3.0

    def test_churn_is_half(self, fig2):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        frame = compute_on(churn, fig2)
        assert frame.value_columns == ("churn",)
        assert frame.single_value() == 0.5

    def test_empty_table_conventions(self):
        empty = one_column([])
        assert compute_on(Count("x"), empty).single_value() == 0.0
        assert math.isnan(compute_on(Mean("x"), empty).single_value())
        assert compute_on(Sum("x"), empty).single_value() == 0.0
        assert math.isnan(compute_on(Min("x"), empty).single_value())

    def test_variance_single_value_is_nan(self):
        assert math.isnan(compute_on(Variance("x"), one_column([4.0])).single_value())

    def test_variance_matches_brute_force(self):
        rng = random.Random(3)
        values = [rng.uniform(-2, 2) for _ in range(10)]
        mean = sum(values) / len(values)
        expected = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        got = compute_on(Variance("x"), one_column(values)).single_value()
        assert got == pytest.approx(expected, abs=1e-12)
        sd = compute_on(StdDev("x"), one_column(values)).single_value()
        assert sd == pytest.approx(math.sqrt(expected), abs=1e-12)

    def test_median_interpolates(self):
        got = compute_on(Quantile("x", 0.5), one_column([1, 2, 3, 4])).single_value()
        assert got == brute_quantile([1, 2, 3, 4], 0.5) == 2.5

    @pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.66, 0.9, 1.0])
    def test_quantile_matches_brute_force(self, q):
        rng = random.Random(int(q * 100))
        values = [rng.uniform(0, 10) for _ in range(13)]
        got = compute_on(Quantile("x", q), one_column(values)).single_value()
        assert got == pytest.approx(brute_quantile(values, q), abs=1e-12)

    def test_nulls_are_skipped(self):
        t = one_column([1, None, 2, None])
        assert compute_on(Sum("x"), t).single_value() == 3.0
        assert compute_on(Mean("x"), t).single_value() == 1.5
        assert compute_on(Count("x"), t).single_value() == 2.0

    def test_count_allows_text(self, fig2):
        assert compute_on(Count("region"), fig2).single_value() == 6.0

    def test_numeric_aggregate_over_text_is_error(self, fig2):
        with pytest.raises(TypeMismatch):
            compute_on(Sum("region"), fig2)

    def test_unknown_leaf_column(self, fig2):
        with pytest.raises(UnknownColumn):
            compute_on(Sum("nope"), fig2)

    def test_min_max(self, mixed):
        assert compute_on(Min("w"), mixed).single_value() == 0.5
        assert compute_on(Max("w"), mixed).single_value() == 6.0

    def test_eval_leaf_direct(self, fig2):
        assert eval_leaf(Sum("lost"), list(fig2.column("lost").values)) == 3.0


class TestComposite:
    def test_mean_equals_sum_over_count(self, mixed):
        a = compute_on(Mean("v"), mixed, ("g",))
        b = compute_on(Sum("v") / Count("v"), mixed, ("g",))
        assert list(dict(a.rows).values()) == list(dict(b.rows).values())

    def test_self_difference_is_zero(self, mixed):
        m = Mean("v")
        frame = compute_on(m - m, mixed, ("g", "h"))
        assert all(v == (0.0,) for v in dict(frame.rows).values())

    def test_self_division_is_one(self, mixed):
        frame = compute_on(Sum("v") / Sum("v"), mixed, ("g",))
        assert all(v == (1.0,) for v in dict(frame.rows).values())

    def test_composite_of_two_scalars_is_one_value_per_slice(self, mixed):
        frame = compute_on(combine("add", 2.0, 0.5), mixed, ("g",))
        assert frame.value_columns == ("2_add_0_5",)
        assert dict(frame.rows) == {("a",): (2.5,), ("b",): (2.5,)}

    def test_ci_upper_bound(self):
        rng = random.Random(8)
        values = [rng.gauss(0, 1) for _ in range(40)]
        t = one_column(values)
        ci = Mean("x") + 1.96 / Count("x") ** 0.5 * StdDev("x")
        n = len(values)
        mean = sum(values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        assert compute_on(ci, t).single_value() == pytest.approx(
            mean + 1.96 / math.sqrt(n) * sd, abs=1e-12
        )

    def test_division_by_zero_is_ieee(self):
        t = Table.from_dict({"x": [0, 0], "y": [1, 3]})
        assert math.isinf(compute_on(Sum("y") / Sum("x"), t).single_value())
        assert math.isnan(compute_on(Sum("x") / Sum("x"), t).single_value())
        assert compute_on(Sum("y") / Sum("x"), t).single_value() > 0

    def test_pointwise_rule_matches_eval_composite(self):
        rng = random.Random(17)
        for _ in range(30):
            t = random_table(rng, null_rate=0.1)
            op = rng.choice(["add", "sub", "mul", "div"])
            a, b = Mean("x"), Sum("y")
            combined = compute_on(combine(op, a, b), t, ("g1",))
            separate = eval_composite(
                op, compute_on(a, t, ("g1",)), compute_on(b, t, ("g1",))
            )
            assert dict(combined.rows) == dict(separate.rows)

    def test_scalar_broadcast_matches_eval_composite(self, mixed):
        combined = compute_on(Sum("v") * 2.0, mixed, ("h",))
        separate = eval_composite("mul", compute_on(Sum("v"), mixed, ("h",)), 2.0)
        assert dict(combined.rows) == dict(separate.rows)


def make_frame(keys, rows, value_columns):
    return ResultFrame(
        tuple(keys),
        tuple(value_columns),
        tuple((tuple(key_vals), tuple(values)) for key_vals, values in rows),
    )


class TestEvalCompositeFrames:
    def test_frame_over_itself(self):
        frame = make_frame(["g"], [(("a",), (2.0,)), (("b",), (4.0,))], ["m"])
        out = eval_composite("div", frame, frame)
        assert all(v == (1.0,) for v in dict(out.rows).values())

    def test_one_sided_keys_yield_nan(self):
        left = make_frame(["g"], [(("a",), (1.0,)), (("b",), (2.0,))], ["m"])
        right = make_frame(["g"], [(("a",), (10.0,))], ["m"])
        out = dict(eval_composite("add", left, right).rows)
        assert out[("a",)] == (11.0,)
        assert math.isnan(out[("b",)][0])

    def test_coarser_side_broadcasts(self):
        fine = make_frame(["g", "h"], [(("a", "x"), (1.0,)), (("a", "y"), (2.0,))], ["m"])
        coarse = make_frame(["g"], [(("a",), (10.0,))], ["m"])
        out = dict(eval_composite("mul", fine, coarse).rows)
        assert out == {("a", "x"): (10.0,), ("a", "y"): (20.0,)}

    def test_coarser_left_broadcasts_and_one_sided_rows_fill_none(self):
        coarse = make_frame(["g"], [(("a",), (10.0,)), (("c",), (3.0,))], ["m"])
        fine = make_frame(["g", "h"], [(("a", "x"), (1.0,)), (("b", "x"), (2.0,)),
                                       (("a", "y"), (4.0,))], ["m"])
        out = eval_composite("mul", coarse, fine)
        assert out.key_columns == ("g", "h")
        rows = out.rows
        assert [key for key, _ in rows] == [("a", "x"), ("a", "y"), ("c", None), ("b", "x")]
        assert rows[0][1] == (10.0,) and rows[1][1] == (40.0,)
        assert all(math.isnan(values[0]) for _, values in rows[2:])


class TestDistribution:
    def test_symmetric_counts(self):
        t = Table.from_dict({"pitch": ["FB", "CB", "FB", "CB"]})
        frame = compute_on(Count("pitch") | Distribution("pitch"), t)
        assert dict(frame.rows) == {("FB",): (0.5,), ("CB",): (0.5,)}

    def test_rows_sum_to_one_within_slices(self):
        rng = random.Random(23)
        for _ in range(40):
            t = random_table(rng)
            frame = compute_on(Count("y") | Distribution("g2"), t, ("g1",))
            sums: dict = {}
            g1 = frame.key_columns.index("g1")
            for key, values in frame.rows:
                sums[key[g1]] = sums.get(key[g1], 0.0) + values[0]
            assert all(abs(s - 1.0) <= 1e-12 for s in sums.values())

    def test_key_columns_order(self, mixed):
        frame = compute_on(Count("v") | Distribution("h"), mixed, ("g",))
        assert frame.key_columns == ("g", "h")

    def test_share_does_not_depend_on_row_order(self):
        # A slice's total is the exact sum of its values (2**-55 here), which
        # a running float sum rounds differently in each row order.
        rows = [("a", 0.1), ("b", 0.2), ("c", -0.3)]
        frames = [compute_on(Sum("x") | Distribution("g"),
                             Table.from_dict({"g": [g for g, _ in order],
                                              "x": [x for _, x in order]}))
                  for order in (rows, rows[::-1])]
        assert frames[0] == frames[1]
        assert dict(frames[0].rows)[("a",)] == (0.1 / 2**-55,)


class TestChanges:
    def test_percent_change_of_figure_churn(self, fig2):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        frame = compute_on(churn | PercentChange("experiment", "control"), fig2)
        values = dict(frame.rows)
        assert values[("control",)] == (0.0,)
        # churn: control=2/3, treatment1=0, treatment2=0, treatment3=1
        assert values[("treatment1",)][0] == pytest.approx((0.0 / (2 / 3) - 1) * 100)
        assert values[("treatment3",)][0] == pytest.approx((1.0 / (2 / 3) - 1) * 100)

    def test_baseline_rows_exactly_zero(self):
        rng = random.Random(29)
        for _ in range(30):
            t = random_table(rng)
            for op in (PercentChange("arm", "control"), AbsoluteChange("arm", "control")):
                frame = compute_on(Sum("y") | op, t, ("g2",))
                arm = frame.key_columns.index("arm")
                for key, values in frame.rows:
                    if key[arm] == "control":
                        assert values == (0.0,)

    def test_did_four_cell_oracle(self, employment):
        did = (
            Mean("EMP")
            | AbsoluteChange("STATE_NAME", "PA")
            | AbsoluteChange("PERIOD", "Before")
        )
        frame = compute_on(did, employment)
        values = dict(frame.rows)
        assert frame.key_columns == ("PERIOD", "STATE_NAME")
        assert values[("After", "NJ")] == ((18.0 - 19.0) - (17.0 - 20.0),)
        assert values[("After", "NJ")] == (2.0,)
        assert values[("Before", "NJ")] == (0.0,)
        assert values[("After", "PA")] == (0.0,)

    def test_did_percent_variant_changes_first_stage_only(self, employment):
        swapped = (
            Mean("EMP")
            | PercentChange("STATE_NAME", "PA")
            | AbsoluteChange("PERIOD", "Before")
        )
        frame = compute_on(swapped, employment)
        after_nj = dict(frame.rows)[("After", "NJ")][0]
        expected = (18.0 / 19.0 - 1) * 100 - (17.0 / 20.0 - 1) * 100
        assert after_nj == expected

    def test_missing_baseline_is_nan_plus_warning(self):
        t = Table.from_dict({
            "g": ["a", "a", "b"],
            "arm": ["control", "t1", "t1"],
            "x": [1, 2, 3],
        })
        ctx = EvalContext()
        frame = compute_on(Sum("x") | PercentChange("arm", "control"), t, ("g",), ctx)
        values = dict(frame.rows)
        assert math.isnan(values[("b", "t1")][0])
        assert values[("a", "t1")][0] == pytest.approx(100.0)
        assert any(w.kind == "missing_baseline" for w in ctx.warnings)

    def test_typed_baseline_cells(self):
        t = Table.from_dict({"year": [2020, 2021, 2021], "x": [1, 2, 4]})
        frame = compute_on(Sum("x") | AbsoluteChange("year", 2020), t)
        assert dict(frame.rows) == {(2020,): (0.0,), (2021,): (5.0,)}


class TestBootstrap:
    def test_se_of_mean_close_to_formula(self):
        rng = random.Random(42)
        values = [rng.gauss(0, 1) for _ in range(200)]
        t = one_column(values)
        se = compute_on(Mean("x") | Bootstrap(2000, seed=7), t).single_value()
        mean = sum(values) / len(values)
        s = math.sqrt(sum((v - mean) ** 2 for v in values) / 199)
        assert abs(se - s / math.sqrt(200)) / (s / math.sqrt(200)) <= 0.15

    def test_deterministic_given_seed(self, mixed):
        a = compute_on(Mean("v") | Bootstrap(50, seed=9), mixed, ("g",))
        b = compute_on(Mean("v") | Bootstrap(50, seed=9), mixed, ("g",))
        assert dict(a.rows) == dict(b.rows)
        c = compute_on(Mean("v") | Bootstrap(50, seed=10), mixed, ("g",))
        assert dict(a.rows) != dict(c.rows)

    def test_seeds_draw_different_replicate_sets(self, monkeypatch):
        draws: list[tuple] = []

        def recording(table, order, seed, i):
            replicate = resample_with_replacement(table, order, seed, i)
            draws.append(replicate.column("x").values)
            return replicate

        monkeypatch.setattr("slicemetrics.compute.resample_with_replacement", recording)
        t = one_column(range(100))
        sets = set()
        for seed in range(256):
            draws.clear()
            compute_on(Mean("x") | Bootstrap(20, seed=seed), t)
            assert len(draws) == 20
            sets.add(frozenset(draws))
        assert len(sets) == 256

    def test_empty_table_raises(self):
        with pytest.raises(EmptyInput):
            compute_on(Mean("x") | Bootstrap(5), one_column([]))

    def test_resamples_within_each_split_slice(self):
        # Each replicate slice keeps its size, so its count never varies.
        t = Table.from_dict({"g": ["a", "b", "b", "b"], "x": [7.0, 1.0, 2.0, 9.0]})
        counts = compute_on(Count("x") | Bootstrap(30, seed=4), t, ("g",))
        assert dict(counts.rows) == {("a",): (0.0,), ("b",): (0.0,)}
        means = dict(compute_on(Mean("x") | Bootstrap(30, seed=4), t, ("g",)).rows)
        assert means[("a",)] == (0.0,) and means[("b",)][0] > 0

    def test_baseline_rows_have_zero_se(self, fig2):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        frame = compute_on(
            churn | PercentChange("experiment", "control") | Bootstrap(100, seed=1), fig2
        )
        assert dict(frame.rows)[("control",)] == (0.0,)

    def test_nonfinite_replicates_are_dropped_with_a_warning(self):
        # A replicate without the one nonzero control row has a control sum
        # of 0, so its change is inf; the SE uses the other replicates.
        t = Table.from_dict({
            "arm": ["c"] * 10 + ["t"] * 10,
            "x": [0] * 9 + [1] + [1] * 10,
            "unit": list(range(20)),
        })
        ctx = EvalContext()
        change = Sum("x") | PercentChange("arm", "c")
        for op in (Bootstrap(50, seed=3), Jackknife("unit")):
            frame = compute_on(change | op, t, (), ctx)
            se = dict(frame.rows)[("t",)][0]
            assert math.isfinite(se) and se > 0
        dropped = [w for w in ctx.warnings if w.kind == "nonfinite_replicate"]
        assert len(dropped) == 2 and all("('t',)" in w.message for w in dropped)


class TestJackknife:
    def test_mean_jackknife_equals_formula_exactly(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 10) for _ in range(30)]
        t = Table.from_dict({"unit": list(range(30)), "x": values})
        se = compute_on(Mean("x") | Jackknife("unit"), t).single_value()
        mean = sum(values) / len(values)
        s = math.sqrt(sum((v - mean) ** 2 for v in values) / 29)
        assert se == pytest.approx(s / math.sqrt(30), abs=1e-12)

    def test_grouped_units(self):
        t = Table.from_dict({
            "unit": ["u1", "u1", "u2", "u2", "u3", "u3"],
            "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        })
        estimates = []
        for unit in ("u1", "u2", "u3"):
            rest = [v for u, v in zip(t.column("unit").values, t.column("x").values)
                    if u != unit]
            estimates.append(sum(rest) / len(rest))
        mean = sum(estimates) / 3
        expected = math.sqrt(2 / 3 * sum((e - mean) ** 2 for e in estimates))
        got = compute_on(Mean("x") | Jackknife("unit"), t).single_value()
        assert got == pytest.approx(expected, abs=1e-12)

    def test_nan_unit_leaves_out_its_rows(self):
        # A NaN unit is the null unit, a unit like any other: its replicate drops its row.
        for first in (float("nan"), None):
            t = Table.from_dict({"u": [first, 1, 2], "x": [10, 1, 2]})
            se = compute_on(Mean("x") | Jackknife("u"), t).single_value()
            assert se == pytest.approx(2.848, abs=5e-4)

    def test_single_unit_is_nan(self):
        t = Table.from_dict({"unit": ["a", "a"], "x": [1, 2]})
        assert math.isnan(compute_on(Mean("x") | Jackknife("unit"), t).single_value())


class TestCache:
    def test_shared_subtree_hits(self, mixed):
        ctx = EvalContext()
        compute_on([Sum("v") / Count("v"), Sum("v")], mixed, ("g",), ctx)
        assert ctx.cache_hits >= 1

    def test_cold_cache_has_no_hits(self, mixed):
        ctx = EvalContext()
        compute_on(Sum("v"), mixed, ("g",), ctx)
        assert ctx.cache_hits == 0

    def test_second_call_is_full_tree_hit(self, mixed):
        ctx = EvalContext()
        metric = Mean("v") | PercentChange("h", "x")
        first = compute_on(metric, mixed, ("g",), ctx)
        hits_before = ctx.cache_hits
        second = compute_on(metric, mixed, ("g",), ctx)
        assert ctx.cache_hits > hits_before
        assert dict(first.rows) == dict(second.rows)

    def test_cache_equals_no_cache(self):
        rng = random.Random(37)
        for _ in range(10):
            t = random_table(rng, null_rate=0.1)
            metric = (Sum("x") / Count("x")) | PercentChange("arm", "control")
            with_cache = compute_on(metric, t, ("g1",), EvalContext())
            without = compute_on(metric, t, ("g1",), EvalContext(cache_enabled=False))
            a, b = dict(with_cache.rows), dict(without.rows)
            assert set(a) == set(b)
            for key in a:
                for x, y in zip(a[key], b[key]):
                    assert (math.isnan(x) and math.isnan(y)) or x == y

    def test_bootstrap_seeds_do_not_share_cache(self, mixed):
        ctx = EvalContext()
        a = compute_on(Mean("v") | Bootstrap(20, seed=1), mixed, (), ctx).single_value()
        b = compute_on(Mean("v") | Bootstrap(20, seed=2), mixed, (), ctx).single_value()
        assert abs(a - b) / max(abs(a), abs(b)) > 1e-6


class TestColumnCaches:
    TREES = [
        Mean("x") | Bootstrap(5, seed=3),
        (Sum("x") / Count("y")) | PercentChange("arm", "control") | Bootstrap(4, seed=1),
        Mean("y") | Jackknife("g2"),
        (Sum("y") | Distribution("arm")) | Jackknife("g1"),
        Max("x") - Min("y"),
        Count("g1") + Quantile("x", 0.5),
    ]

    def test_replicates_match_fresh_tables(self):
        # take gathers each column's arrays and keeps its levels; a table built
        # from the same cells types and numbers them afresh. Both must compute
        # the same frames.
        rng = random.Random(71)
        for _ in range(30):
            t = random_table(rng, null_rate=0.15)
            split = rng.choice([(), ("g1",), ("g1", "g2")])
            for metric in self.TREES:
                _outcome(metric, t, split)
            rows = [rng.randrange(t.row_count) for _ in range(t.row_count)]
            replicate = t.take(rows)
            for part in (replicate, replicate.take(rows[::-1])):
                fresh = Table.from_dict({col.name: col.values for col in part.columns})
                for metric in self.TREES:
                    assert _outcome(metric, part, split) == _outcome(metric, fresh, split)


class TestRowPermutation:
    # A table's rows are a multiset: permuting them changes no frame, no
    # warning and no warning's place. Variance and StdDev sum in row order
    # (np.var), so the trees hold neither; a key cell is its slice's first
    # row, so the tables hold no -0.0. Text columns mix strings and numbers.
    NUMBERS = [None, -1, 0, 1, 2, 2.5]
    CELLS = NUMBERS + ["base", "zero", "a"]

    def test_permuting_rows_changes_no_frame_and_no_warning(self):
        rng = random.Random(97)
        frames = 0
        for _ in range(200):
            n = rng.randint(0, 12)
            data = {name: [rng.choice(self.CELLS if rng.random() < 0.3 else self.NUMBERS)
                           for _ in range(n)] for name in ("alpha", "beta", "gamma")}
            rows = list(range(n))
            rng.shuffle(rows)
            permuted = {name: [cells[i] for i in rows] for name, cells in data.items()}
            for _ in range(3):
                metric = random_pipeline(rng)
                while any(isinstance(node, (Variance, StdDev)) for node in walk(metric)):
                    metric = random_pipeline(rng)
                metric = set_n_rep(metric, 5)
                split = rng.choice([(), ("alpha",), ("beta", "gamma")])
                want = _outcome(metric, Table.from_dict(data), split)
                assert _outcome(metric, Table.from_dict(permuted), split) == want, metric
                frames += isinstance(want, tuple)
        assert frames >= 200


def _outcome(metric, table, split):
    ctx = EvalContext()
    try:
        frame = compute_on(metric, table, split, ctx)
    except MetricsError as err:
        return f"{type(err).__name__}: {err}"
    return repr(frame), [(w.kind, w.message) for w in ctx.warnings]


class TestSplitting:
    def test_splitting_invariance(self):
        rng = random.Random(43)
        for _ in range(10):
            t = random_table(rng, null_rate=0.1)
            whole = compute_on(Mean("x") / Count("y"), t, ("g1", "g2"))
            by_key = dict(whole.rows)
            for key, indices in group_rows(t, ("g1", "g2")).items():
                alone = compute_on(Mean("x") / Count("y"), t.take(indices)).single_value()
                expected = by_key[key][0]
                assert (math.isnan(alone) and math.isnan(expected)) or alone == expected

    def test_unknown_split_column(self, fig2):
        with pytest.raises(UnknownColumn):
            compute_on(Sum("lost"), fig2, ("nope",))

    def test_joint_metrics_must_share_key_columns(self, fig2):
        joint = [Sum("lost"), Sum("lost") | PercentChange("experiment", "control")]
        with pytest.raises(BindError):
            compute_on(joint, fig2, ("region",))
        with pytest.raises(BindError):
            compute_on([], fig2)
        with pytest.raises(BindError):
            compute_on([Sum("lost"), Sum("lost")], fig2)

    def test_joint_compute_merges_columns(self, fig2):
        frame = compute_on([Sum("lost"), Count("lost")], fig2, ("region",))
        assert frame.value_columns == ("sum_lost", "count_lost")
        assert dict(frame.rows) == {("US",): (2.0, 4.0), ("EU",): (1.0, 2.0)}

    def test_rows_are_sorted_by_key_in_any_input_order(self):
        # Nulls, then numbers; a NaN cell is a null, so its rows join the null key.
        nan = math.nan
        g = [1.0, nan, None, 0.5, 2.0, nan, 0.5]
        results = []
        for order in (g, g[::-1], g[3:] + g[:3]):
            t = Table.from_dict({"g": order, "x": [7 if v is None or v != v else v
                                                   for v in order]})
            results.append(repr(compute_on(Count("x"), t, ("g",)).rows))
        assert results[0] == results[1] == results[2]
        assert results[0] == repr((
            ((None,), (3.0,)), ((0.5,), (2.0,)), ((1.0,), (1.0,)), ((2.0,), (1.0,)),
        ))

    def test_joint_rows_are_sorted_by_key(self):
        t = Table.from_dict({"g": ["b", None, "B", "a"], "x": [1, 2, 3, 4]})
        frame = compute_on([Sum("x"), Sum("x") * 2.0], t, ("g",))
        assert [key for key, _ in frame.rows] == [(None,), ("B",), ("a",), ("b",)]

    def test_nan_and_none_dimension_cells_are_one_key_across_frames(self):
        t = Table.from_dict({"g": [1.0, math.nan, None], "x": [4, 2, 3]})
        joint = compute_on([Sum("x"), Count("x")], t, ("g",))
        assert joint.rows == (((None,), (5.0, 2.0)), ((1.0,), (4.0, 1.0)))
        ratio = compute_on(Sum("x") / Count("x"), t, ("g",))
        assert ratio.rows == (((None,), (2.5,)), ((1.0,), (4.0,)))

from __future__ import annotations

import random

import pytest

from slicemetrics import (
    AbsoluteChange,
    BindError,
    Bootstrap,
    Count,
    Distribution,
    Jackknife,
    Max,
    Mean,
    MetricsError,
    Min,
    NameArityError,
    PercentChange,
    Quantile,
    ScalarLiteral,
    StdDev,
    Sum,
    Table,
    UnknownColumn,
    Variance,
    combine,
    compute_on,
    pipe,
)
from slicemetrics.dsl import set_n_rep
from slicemetrics.metrics import bind, columns_read, walk

from helpers import random_pipeline, random_table


class TestDefaultNames:
    @pytest.mark.parametrize(
        "metric,expected",
        [
            (Sum("x"), "sum_x"),
            (Count("x"), "count_x"),
            (Mean("x"), "mean_x"),
            (Min("x"), "min_x"),
            (Max("x"), "max_x"),
            (Variance("x"), "variance_x"),
            (StdDev("x"), "sd_x"),
            (Quantile("x", 0.5), "quantile_x_0_5"),
            (Mean("EMP"), "mean_emp"),
        ],
    )
    def test_leaves(self, metric, expected):
        assert metric.names() == (expected,)

    def test_ratio_joins_with_div(self):
        assert (Sum("lost") / Count("lost")).names() == ("sum_lost_div_count_lost",)

    @pytest.mark.parametrize(
        "op,token", [("add", "_add_"), ("sub", "_sub_"), ("mul", "_mul_"), ("pow", "_pow_")]
    )
    def test_other_operators(self, op, token):
        right = ScalarLiteral(2.0) if op == "pow" else Count("y")
        name = combine(op, Sum("x"), right).names()[0]
        assert token in name

    def test_operation_prefixes(self):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        pct = churn | PercentChange("experiment", "control")
        assert pct.names() == ("pct_change_of_churn",)
        assert (pct | Bootstrap(10)).names() == ("se_pct_change_of_churn",)
        assert (churn | AbsoluteChange("experiment", "control")).names() == (
            "abs_change_of_churn",
        )
        assert (Count("p") | Distribution("p")).names() == ("distribution_of_count_p",)
        assert (churn | Jackknife("region")).names() == ("se_churn",)


class TestSetNames:
    def test_rename_ratio(self):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        assert churn.names() == ("churn",)

    def test_rename_to_own_names_is_identity(self, fig2):
        churn = Sum("lost") / Count("lost")
        renamed = churn.set_names(churn.names())
        assert renamed.names() == churn.names()
        assert dict(compute_on(renamed, fig2).rows) == dict(compute_on(churn, fig2).rows)

    def test_arity_mismatch(self):
        with pytest.raises(NameArityError):
            Sum("x").set_names(["a", "b"])

    def test_original_unchanged(self):
        original = Sum("x")
        original.set_names(["other"])
        assert original.names() == ("sum_x",)

    def test_rename_changes_columns_not_numbers(self, fig2):
        rng = random.Random(21)
        for _ in range(10):
            t = random_table(rng)
            metric = Mean("x") / Count("y")
            renamed = metric.set_names(["ratio"])
            a = compute_on(metric, t, ("g1",))
            b = compute_on(renamed, t, ("g1",))
            assert b.value_columns == ("ratio",)
            assert dict(a.rows) == dict(b.rows)


class TestPipe:
    def test_pipe_builds_depth_two_tree(self):
        tree = Count("pitchtype") | Distribution("pitchtype")
        assert isinstance(tree, Distribution)
        assert tree.child == Count("pitchtype")

    def test_chained_changes_collect_conditions(self):
        did = (
            Mean("EMP")
            | AbsoluteChange("STATE_NAME", "PA")
            | AbsoluteChange("PERIOD", "Before")
        )
        assert did.extra_dims() == ("PERIOD", "STATE_NAME")

    def test_piping_onto_bootstrap_result_is_legal(self):
        inner = Mean("x") | Bootstrap(5)
        outer = inner | AbsoluteChange("g", "a")
        assert outer.extra_dims() == ("g",)
        assert outer.names() == ("abs_change_of_se_mean_x",)

    def test_operation_requires_child(self):
        with pytest.raises(BindError):
            PercentChange("experiment", "control").names()

    def test_template_cannot_be_piped_twice(self):
        full = Sum("x") | Distribution("g")
        with pytest.raises(BindError):
            Sum("y") | full


class TestExtraDims:
    def test_distribution_adds_over(self):
        assert (Count("p") | Distribution("p")).extra_dims() == ("p",)

    def test_changes_prepend_condition(self):
        m = Sum("x") | PercentChange("arm", "control")
        assert m.extra_dims() == ("arm",)

    def test_resampling_ops_pass_child_dims_through(self):
        m = Sum("x") | PercentChange("arm", "control") | Bootstrap(3)
        assert m.extra_dims() == ("arm",)
        j = Sum("x") | PercentChange("arm", "control") | Jackknife("g1")
        assert j.extra_dims() == ("arm",)

    def test_distribution_over_change_keeps_both(self):
        m = Sum("x") | PercentChange("arm", "control") | Distribution("g2")
        assert m.extra_dims() == ("g2", "arm")

    def test_structural_rule_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(50):
            metric, expected = _random_op_chain(rng)
            assert metric.extra_dims() == tuple(expected)


def _random_op_chain(rng: random.Random):
    metric = rng.choice([Sum("x"), Mean("x") / Count("y"), Count("y")])
    expected: list[str] = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.3:
            dim = rng.choice(["d1", "d2", "d3"])
            metric = metric | Distribution(dim)
            expected = [dim] + expected
        elif roll < 0.6:
            dim = rng.choice(["c1", "c2", "c3"])
            metric = metric | PercentChange(dim, "base")
            expected = [dim] + expected
        elif roll < 0.8:
            dim = rng.choice(["c1", "c2"])
            metric = metric | AbsoluteChange(dim, 0)
            expected = [dim] + expected
        elif roll < 0.9:
            metric = metric | Bootstrap(2)
        else:
            metric = metric | Jackknife("u")
    return metric, expected


class TestStructure:
    def test_quantile_range_validation(self):
        with pytest.raises(BindError):
            Quantile("x", 1.5)

    def test_pow_requires_scalar_exponent(self):
        with pytest.raises(BindError):
            combine("pow", Sum("x"), Count("x"))

    def test_invalid_node_arguments(self):
        with pytest.raises(BindError):
            combine("mod", Sum("x"), Count("x"))
        with pytest.raises(BindError):
            Bootstrap(0)

    def test_scalar_broadcast_builds(self):
        ci = Mean("x") + 1.96 / Count("x") ** 0.5 * StdDev("x")
        assert ci.names() == ("mean_x_add_1_96_div_count_x_pow_0_5_mul_sd_x",)
        assert len(list(walk(ci))) == 9

    def test_construction_touches_no_data(self):
        # No table anywhere in sight; every node kind builds fine.
        tree = (
            (Sum("a") / Count("b") + 2.5)
            | PercentChange("cond", None)
        ) | Bootstrap(7, seed=3)
        assert tree.names()

    def test_serialization_is_deterministic_and_distinct(self):
        a = (Sum("lost") / Count("lost")).set_names(["churn"])
        b = (Sum("lost") / Count("lost")).set_names(["churn"])
        assert a.serialize() == b.serialize()
        assert a.serialize() != (Sum("lost") / Count("lost")).serialize()
        assert Sum("x").serialize() != Count("x").serialize()
        assert (
            Bootstrap(5, seed=1, child=Sum("x")).serialize()
            != Bootstrap(5, seed=2, child=Sum("x")).serialize()
        )

    def test_serialization_golden_strings(self):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        assert churn.serialize() == (
            "named(names=['churn'], child=div(left=sum(var=lost), right=count(var=lost)))"
        )
        tree = churn | PercentChange("experiment", "control")
        assert tree.serialize() == (
            "percent_change(condition=experiment, baseline=text:'control', "
            "child=named(names=['churn'], child=div(left=sum(var=lost), "
            "right=count(var=lost))))"
        )
        assert Quantile("x", 0.5).serialize() == "quantile(var=x, q=0.5)"
        assert (Sum("x") + 2).serialize() == "add(left=sum(var=x), right=const(value=2.0))"

    def test_names_arity_matches_evaluated_frame_width(self, fig2):
        churn = (Sum("lost") / Count("lost")).set_names(["churn"])
        chains = [
            Sum("lost"),
            churn,
            churn | PercentChange("experiment", "control"),
            churn | PercentChange("experiment", "control") | Bootstrap(5, seed=0),
            Count("lost") | Distribution("region"),
        ]
        for metric in chains:
            frame = compute_on(metric, fig2, ())
            assert frame.value_columns == metric.names()
            assert len(metric.names()) == 1

    def test_names_arity_matches_frame_width(self):
        table = Table.from_dict({
            "alpha": [1, 2, 2, None, 0], "beta": [0, 1, None, 1, 0],
            "gamma": [2.5, 0.0, 1.0, 2.5, None],
        })
        rng = random.Random(41)
        evaluated = 0
        for _ in range(200):
            metric = random_pipeline(rng)
            assert len(metric.names()) == 1, metric
            try:
                frame = compute_on(set_n_rep(metric, 3), table)
            except MetricsError:
                continue
            assert frame.value_columns == metric.names(), metric
            evaluated += 1
        assert evaluated > 100

    def test_pipe_function_matches_operator(self):
        assert pipe(Sum("x"), Distribution("g")) == (Sum("x") | Distribution("g"))


class TestBind:
    COLUMNS = ("g", "h", "arm", "unit", "x")

    def test_returns_compute_key_columns(self):
        metric = Sum("x") | Distribution("h") | PercentChange("arm", "c") | Jackknife("unit")
        assert bind(metric, ["g"], self.COLUMNS) == ("g", "arm", "h")
        assert bind(Sum("x") / Count("x"), ()) == ()
        # Composite operands are not frames of their own, so only the output's
        # and each operation child's names must differ from the keys.
        operand = Sum("x").set_names(["g"]) * 2
        assert bind(operand | PercentChange("arm", "c"), ["2", "g"]) == ("2", "g", "arm")

    @pytest.mark.parametrize("metric, split", [
        (Sum("nope"), ()),
        (Sum("x"), ("nope",)),
        (Sum("x") | Distribution("nope"), ()),
        (Sum("x") | PercentChange("nope", "c"), ()),
        (Mean("x") | Jackknife("nope"), ()),
        (Sum("x") + (Count("nope") | Bootstrap(3)), ()),
    ])
    def test_unknown_column_only_against_columns(self, metric, split):
        with pytest.raises(UnknownColumn, match="nope"):
            bind(metric, split, self.COLUMNS)
        bind(metric, split)

    @pytest.mark.parametrize("metric, split", [
        (Sum("x"), ("g", "g")),
        (Sum("x") | Distribution("g"), ("g",)),
        (Sum("x") | PercentChange("arm", "c") | AbsoluteChange("arm", "c"), ()),
        ((Sum("x") | Distribution("arm")) / Count("x") | PercentChange("arm", "c"), ()),
        (Sum("x") | PercentChange("g", "c") | Bootstrap(3), ("g",)),
        (PercentChange("arm", "c"), ()),
        (Sum("x") + Bootstrap(3), ()),
        (Sum("x").set_names(["g"]), ("g",)),
        ((Sum("x") | Distribution("h")).set_names(["h"]), ()),
        (Sum("x").set_names(["g"]) | Distribution("g"), ()),
        (Sum("x").set_names(["arm"]) | PercentChange("arm", "c") | Bootstrap(3), ("g",)),
    ])
    def test_bind_errors(self, metric, split):
        with pytest.raises(BindError):
            bind(metric, split, self.COLUMNS)
        with pytest.raises(BindError):
            bind(metric, split)

    def test_columns_read_is_every_name_bind_checks(self):
        metric = (Quantile("x", 0.9) + 1) | Distribution("h") | PercentChange("arm", "c")
        assert columns_read(metric | Jackknife("unit")) == {"x", "h", "arm", "unit"}
        rng = random.Random(43)
        for _ in range(200):
            metric = random_pipeline(rng)
            needed = columns_read(metric)
            try:
                bind(metric, (), needed)
            except BindError:
                continue
            for name in needed:
                with pytest.raises(UnknownColumn):
                    bind(metric, (), needed - {name})

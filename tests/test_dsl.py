from __future__ import annotations

import dataclasses
import math
import random
import re
from pathlib import Path

import pytest

from slicemetrics import (
    AbsoluteChange,
    Bootstrap,
    Composite,
    Count,
    Distribution,
    DslError,
    Jackknife,
    Mean,
    PercentChange,
    Quantile,
    ScalarLiteral,
    Sum,
    parse,
    print_metric,
    print_program,
)
from slicemetrics.dsl import _BUILDERS, set_n_rep

from helpers import random_pipeline as _random_pipeline


class TestParse:
    def test_churn_pipeline_matches_tree(self):
        src = 'sum(lost) / count(lost) as "churn" | percent_change(experiment, "control")'
        metric = parse(src).metrics[0]
        expected = (Sum("lost") / Count("lost")).set_names(["churn"]) | PercentChange(
            "experiment", "control"
        )
        assert metric == expected

    def test_did_chain_depth(self):
        src = 'mean(EMP) | absolute_change(STATE_NAME, "PA") | absolute_change(PERIOD, "Before")'
        metric = parse(src).metrics[0]
        assert isinstance(metric, AbsoluteChange)
        assert isinstance(metric.child, AbsoluteChange)
        assert metric.child.child == Mean("EMP")

    def test_pipe_binds_loosest(self):
        metric = parse('sum(a) / count(a) | distribution(g)').metrics[0]
        assert isinstance(metric, Distribution)
        assert isinstance(metric.child, Composite)

    def test_arithmetic_precedence(self):
        metric = parse("sum(a) + count(b) * 2").metrics[0]
        assert metric.op == "add"
        assert metric.right.op == "mul"

    def test_power_binds_tightest(self):
        metric = parse("1.96 / count(x) ** 0.5").metrics[0]
        assert metric.op == "div"
        assert metric.right.op == "pow"

    def test_parenthesized_pipeline_as_atom(self):
        metric = parse('(sum(x) | distribution(g)) + 1').metrics[0]
        assert metric.op == "add"
        assert isinstance(metric.left, Distribution)

    def test_bootstrap_seed_comes_from_context(self):
        metric = parse("mean(x) | bootstrap(250)", seed=17).metrics[0]
        assert metric == Bootstrap(250, seed=17, child=Mean("x"))

    def test_bootstrap_default_n_rep(self):
        metric = parse("mean(x) | bootstrap()").metrics[0]
        assert metric.n_rep == 100

    def test_quantile_and_jackknife(self):
        program = parse("quantile(x, 0.25); mean(x) | jackknife(cookie)")
        assert program.metrics[0] == Quantile("x", 0.25)
        assert program.metrics[1] == Jackknife("cookie", child=Mean("x"))

    def test_numeric_baseline_becomes_int_cell(self):
        metric = parse('sum(x) | absolute_change(year, 2020)').metrics[0]
        assert metric.baseline == 2020 and isinstance(metric.baseline, int)

    def test_printed_negative_scalar_parses(self):
        metric = Sum("x") * -1.0
        text = print_metric(metric)
        assert text == "sum(x) * -1.0"
        assert parse(text).metrics[0] == metric

    def test_negative_baseline_argument(self):
        metric = parse("sum(x) | percent_change(a, -3)").metrics[0]
        assert metric == PercentChange("a", -3, child=Sum("x"))
        assert isinstance(metric.baseline, int)

    @pytest.mark.parametrize("src, want", [
        ("sum(x) - -2.5", Sum("x") - -2.5),
        ("mean(x) ** -0.5", Mean("x") ** -0.5),
        ("-1.0 ** 2", ScalarLiteral(-1.0) ** 2.0),
        ("sum(x) | absolute_change(a, -2.5)", AbsoluteChange("a", -2.5, child=Sum("x"))),
    ], ids=["subtract_negative", "negative_exponent", "negative_base", "float_baseline"])
    def test_leading_minus_belongs_to_the_number(self, src, want):
        assert parse(src).metrics[0] == want

    def test_minus_before_a_call_is_not_a_number(self):
        with pytest.raises(DslError) as err:
            parse("sum(x) * -count(y)")
        assert (err.value.line, err.value.col) == (1, 10)

    def test_spans_cover_each_metric(self):
        src = "sum(a); count(b)"
        program = parse(src)
        lo, hi = program.spans[0]
        assert src[lo:hi].strip() == "sum(a)"
        lo, hi = program.spans[1]
        assert src[lo:hi].strip() == "count(b)"


class TestParseErrors:
    def test_unterminated_call_position(self):
        with pytest.raises(DslError) as err:
            parse("sum(")
        assert err.value.line == 1 and err.value.col == 5

    def test_unknown_function_suggests(self):
        with pytest.raises(DslError, match="did you mean 'percent_change'"):
            parse('sum(x) | persent_change(a, "b")')

    def test_expected_token_set_reported(self):
        with pytest.raises(DslError) as err:
            parse("sum(lost) +")
        assert err.value.expected

    def test_operation_atom_rejected(self):
        with pytest.raises(DslError, match="must modify another metric"):
            parse('percent_change(a, "b")')

    def test_piping_non_operation_rejected(self):
        with pytest.raises(DslError, match="not an operation"):
            parse("sum(x) | count(y)")

    def test_bare_identifier_baseline_rejected(self):
        with pytest.raises(DslError, match="quoted string or a number"):
            parse("sum(x) | percent_change(arm, control)")

    def test_baseline_beyond_int_conversion_rejected(self):
        with pytest.raises(DslError, match="baseline is too large"):
            parse(f"sum(x) | percent_change(arm, {'9' * 5000})")

    def test_error_carries_line_number(self):
        with pytest.raises(DslError) as err:
            parse("sum(a) +\nmax(")
        assert err.value.line == 2

    def test_exponent_must_be_number(self):
        with pytest.raises(DslError, match="exponent"):
            parse("sum(x) ** count(y)")

    @pytest.mark.parametrize("src, fragment, position", [
        ("sum(x) | jackknife(2)", "jackknife needs a column name at argument 1", (1, 10)),
        ("count(p) | distribution(3)", "distribution needs a column name at argument 1",
         (1, 12)),
        ("sum(x) | percent_change(arm, control)",
         "baseline must be a quoted string or a number", (1, 30)),
        ('quantile(x, "half")', "quantile q must be a number in [0, 1], got 'half'",
         (1, 13)),
        ("sum(x);\nquantile(x, 1.5)", "quantile q must be a number in [0, 1], got 1.5",
         (2, 13)),
        ("mean(x) | bootstrap(0)", "bootstrap n_rep must be a positive integer, got 0",
         (1, 21)),
        ("mean(x) | bootstrap(-3)", "bootstrap n_rep must be a positive integer, got -3",
         (1, 21)),
        ("quantile(x, -0.5)", "quantile q must be a number in [0, 1], got -0.5", (1, 13)),
        ("sum(x, y)", "sum takes 1 argument(s), got 2", (1, 1)),
        ("mean(x) | bootstrap(10, 2)", "bootstrap takes 0 to 1 argument(s), got 2", (1, 11)),
        ("sum(x) | absolute_change(arm)", "absolute_change takes 2 argument(s), got 1",
         (1, 10)),
        ("quantile(x)", "quantile takes 2 argument(s), got 1", (1, 1)),
    ], ids=["number_as_column", "number_as_dim", "bare_name_baseline", "text_q",
            "q_out_of_range", "zero_replicates", "negative_replicates", "negative_q",
            "too_many", "too_many_optional",
            "too_few", "too_few_leaf"])
    def test_argument_role_errors(self, src, fragment, position):
        with pytest.raises(DslError, match=re.escape(fragment)) as err:
            parse(src)
        assert (err.value.line, err.value.col) == position
        assert str(err.value).startswith(f"{position[0]}:{position[1]}: ")

    @pytest.mark.parametrize("count, message", [
        ("2.7", "bootstrap n_rep must be a positive integer, got 2.7"),
        ("1e2", "bootstrap n_rep must be a positive integer, got 100.0"),
        ("1e999403", "bootstrap n_rep must be a positive integer, got inf"),
        ("9" * 5000, "bootstrap n_rep is too large"),
    ], ids=["fraction", "exponent", "overflow", "5000_digits"])
    def test_replicate_count_is_an_integer_literal(self, count, message):
        with pytest.raises(DslError, match=re.escape(message)):
            parse(f"mean(x) | bootstrap({count})")


class TestPrint:
    @pytest.mark.parametrize(
        "src",
        [
            "sum(lost)",
            "sum(lost) / count(lost)",
            'sum(lost) / count(lost) as "churn"',
            "mean(x) + 1.96 / count(x) ** 0.5 * sd(x)",
            "count(pitchtype) | distribution(pitchtype)",
            'sum(lost) / count(lost) as "churn" | percent_change(experiment, "control")',
            'mean(EMP) | absolute_change(STATE_NAME, "PA") | absolute_change(PERIOD, "Before")',
            "mean(x) | bootstrap(100)",
            "(sum(a) + count(b)) * 2.0",
            "sum(a); count(b) | jackknife(u)",
            '(sum(x) as "inner") + 1.0',
            'sum(x) | absolute_change(year, 2020)',
            "sum(x) * -1.0 + -2.0",
            "mean(x) ** -0.5",
            'sum(x) | percent_change(arm, -3) | absolute_change(year, -2.5)',
            "sum(x) * 1e999",
            "sum(x) * -1e999",
            "sum(x) | percent_change(g, 1e999)",
        ],
    )
    def test_round_trip_fixpoint(self, src):
        first = parse(src)
        text = print_program(first)
        second = parse(text)
        assert second.metrics == first.metrics
        assert print_program(second) == text

    # One example per DSL call, with the serialization it had before the
    # node kinds were declared by their argument roles.
    NODE_EXAMPLES = {
        "sum": ("sum(x)", "sum(var=x)"),
        "count": ("count(x)", "count(var=x)"),
        "mean": ("mean(x)", "mean(var=x)"),
        "min": ("min(x)", "min(var=x)"),
        "max": ("max(x)", "max(var=x)"),
        "variance": ("variance(x)", "variance(var=x)"),
        "sd": ("sd(x)", "sd(var=x)"),
        "quantile": ('quantile(x, 0.9) as "p90"',
                     "named(names=['p90'], child=quantile(var=x, q=0.9))"),
        "distribution": ("count(p) | distribution(p)",
                         "distribution(over=p, child=count(var=p))"),
        "percent_change": ('sum(x) | percent_change(arm, "control")',
                           "percent_change(condition=arm, baseline=text:'control',"
                           " child=sum(var=x))"),
        "absolute_change": ("mean(x) | absolute_change(year, 2020)",
                            "absolute_change(condition=year, baseline=int:2020,"
                            " child=mean(var=x))"),
        "bootstrap": ("mean(x) | bootstrap(25)",
                      "bootstrap(n_rep=25, seed=7, child=mean(var=x))"),
        "jackknife": ("mean(x) | jackknife(u)", "jackknife(unit=u, child=mean(var=x))"),
    }

    @pytest.mark.parametrize("tag", sorted(_BUILDERS))
    def test_every_node_kind_round_trips(self, tag):
        src, serial = self.NODE_EXAMPLES[tag]
        metric = parse(src, seed=7).metrics[0]
        assert type(metric) is _BUILDERS[tag]
        assert metric.serialize() == serial
        text = print_metric(metric)
        assert text == src
        assert parse(text, seed=7).metrics[0] == metric

    def test_infinities_print_as_overflowing_literals(self):
        assert print_metric(Sum("x") * math.inf) == "sum(x) * 1e999"
        assert print_metric(Sum("x") | PercentChange("g", -math.inf)) == (
            "sum(x) | percent_change(g, -1e999)")
        # An int beyond float64 is no infinity: it prints as itself.
        assert print_metric(Sum("x") | PercentChange("g", 10**400)) == (
            f"sum(x) | percent_change(g, {10**400})")

    @pytest.mark.parametrize("metric", [
        Sum("x") * math.nan, Sum("x") ** math.nan, Sum("x") | AbsoluteChange("g", math.nan),
    ], ids=["constant", "exponent", "baseline"])
    def test_nan_has_no_spelling(self, metric):
        with pytest.raises(ValueError, match="a NaN has no DSL spelling"):
            print_metric(metric)

    def test_subtraction_keeps_grouping(self):
        metric = parse("sum(a) - (count(b) - count(c))").metrics[0]
        text = print_metric(metric)
        assert parse(text).metrics[0] == metric

    def test_generated_programs_round_trip(self):
        rng = random.Random(61)
        for _ in range(60):
            metric = _random_pipeline(rng)
            text = print_metric(metric)
            reparsed = parse(text).metrics[0]
            assert reparsed == metric, text
            assert print_metric(reparsed) == text

    def test_generated_programs_with_negative_literals_round_trip(self):
        rng = random.Random(62)
        for _ in range(60):
            metric = _random_pipeline(rng).map(_negated)
            text = print_metric(metric)
            reparsed = parse(text).metrics[0]
            assert reparsed == metric, text
            assert print_metric(reparsed) == text


def _negated(node):
    """The node with its number literal or numeric baseline negated."""
    if isinstance(node, ScalarLiteral):
        return dataclasses.replace(node, value=-node.value)
    if isinstance(getattr(node, "baseline", None), (int, float)):
        return dataclasses.replace(node, baseline=-node.baseline)
    return node


class TestNRepOverride:
    def test_override_rewrites_every_bootstrap(self):
        metric = parse("mean(x) | bootstrap(5) | absolute_change(g, \"a\")").metrics[0]
        replaced = set_n_rep(metric, 99)
        assert isinstance(replaced.child, Bootstrap)
        assert replaced.child.n_rep == 99
        assert replaced.condition == "g"


DSL_SQL_FIXTURES = [
    ("sum(lost)", ()),
    ("count(lost) | distribution(region)", ()),
    ('sum(lost) / count(lost) as "churn" | percent_change(experiment, "control")', ()),
    ('sum(lost) / count(lost) as "churn" | percent_change(experiment, "control")'
     " | bootstrap(25)", ()),
    ('mean(lost) | absolute_change(experiment, "control")', ("region",)),
    ("sum(lost); count(lost)", ("region",)),
]


class TestDslFixturesExecuteAsPortableSql:
    @pytest.mark.parametrize("src,split", DSL_SQL_FIXTURES, ids=[f[0][:40] for f in DSL_SQL_FIXTURES])
    def test_portable_sql_runs_on_harness_engine(self, src, split, fig2):
        from slicemetrics import Dialect, to_sql
        from helpers import execute_query

        for metric in parse(src, seed=3).metrics:
            query = to_sql(metric, "fig2", split, Dialect.PORTABLE)
            rows = execute_query(query, {"fig2": fig2})
            assert rows, query.render()


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_dsl_programs_parse():
    """Every DSL program the README shows parses: ```dsl blocks and --metric '...' flags."""
    text = README.read_text(encoding="utf-8")
    programs = re.findall(r"^```dsl\n(.*?)^```", text, flags=re.S | re.M)
    programs += re.findall(r"--metric '([^']*)'", text)
    assert len(programs) >= 2
    for src in programs:
        program = parse(src)
        assert parse(print_program(program)).metrics == program.metrics, src

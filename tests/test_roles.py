"""Each argument role checks its own values, wherever a node is built.

A bad value raises one ``BindError`` with one text from the constructor and
from ``dataclasses.replace``; the DSL raises a ``DslError`` with the same
text at the argument's position, and the CLI exits 1. The entry points
(``compute_on``, ``to_sql``, ``combine``, ``pipe``, ``set_names``) refuse a
non-metric the same way.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import replace

import pytest

from slicemetrics import (
    AbsoluteChange, BindError, Bootstrap, Composite, Distribution, DslError, Jackknife,
    PercentChange, Quantile, ScalarLiteral, Sum, Table, compute_on, parse, pipe, to_sql,
)
from slicemetrics.cli import main
from slicemetrics.dsl import set_n_rep
from slicemetrics.metrics import bind

from helpers import random_pipeline

# id: (constructor, the same value through replace, (DSL program, the bad
# argument's text) or None, message)
BAD_ARGUMENTS = {
    "column_number": (lambda: Sum(3), lambda: replace(Sum("x"), var=3), None,
                      "sum var must be a column name, got 3"),
    "unit_number": (lambda: Jackknife(3), lambda: replace(Jackknife("u"), unit=3), None,
                    "jackknife unit must be a column name, got 3"),
    "dim_none": (lambda: Distribution(None), lambda: replace(Distribution("g"), over=None),
                 None, "distribution over must be a column name, got None"),
    "cell_list": (lambda: PercentChange("g", [1]),
                  lambda: replace(PercentChange("g", 1), baseline=[1]), None,
                  "percent_change baseline must be a str, a number or None, got [1]"),
    "cell_bool": (lambda: AbsoluteChange("g", True),
                  lambda: replace(AbsoluteChange("g", 1), baseline=True), None,
                  "absolute_change baseline must be a str, a number or None, got True"),
    "number_text": (lambda: ScalarLiteral("1"), lambda: replace(ScalarLiteral(1.0), value="1"),
                    None, "const value must be a real number, got '1'"),
    "prob_bool": (lambda: Quantile("x", True), lambda: replace(Quantile("x", 0.5), q=True),
                  None, "quantile q must be a number in [0, 1], got True"),
    "prob_nan": (lambda: Quantile("x", math.nan),
                 lambda: replace(Quantile("x", 0.5), q=math.nan), None,
                 "quantile q must be a number in [0, 1], got nan"),
    "prob_above_one": (lambda: Quantile("x", 1.5), lambda: replace(Quantile("x", 0.5), q=1.5),
                       ("quantile(x, 1.5)", "1.5"),
                       "quantile q must be a number in [0, 1], got 1.5"),
    "prob_text": (lambda: Quantile("x", "half"),
                  lambda: replace(Quantile("x", 0.5), q="half"),
                  ('quantile(x, "half")', '"half"'),
                  "quantile q must be a number in [0, 1], got 'half'"),
    "count_text": (lambda: Bootstrap("3"), lambda: replace(Bootstrap(3), n_rep="3"),
                   ('mean(x) | bootstrap("3")', '"3"'),
                   "bootstrap n_rep must be a positive integer, got '3'"),
    "count_fraction": (lambda: Bootstrap(2.5), lambda: replace(Bootstrap(3), n_rep=2.5),
                       ("mean(x) | bootstrap(2.5)", "2.5"),
                       "bootstrap n_rep must be a positive integer, got 2.5"),
    "count_bool": (lambda: Bootstrap(True), lambda: replace(Bootstrap(3), n_rep=True), None,
                   "bootstrap n_rep must be a positive integer, got True"),
    "count_zero": (lambda: Bootstrap(0), lambda: replace(Bootstrap(3), n_rep=0),
                   ("mean(x) | bootstrap(0)", "0"),
                   "bootstrap n_rep must be a positive integer, got 0"),
    "seed_text": (lambda: Bootstrap(seed="s"), lambda: replace(Bootstrap(3), seed="s"), None,
                  "bootstrap seed must be an integer, got 's'"),
    "seed_float": (lambda: Bootstrap(seed=1.0), lambda: replace(Bootstrap(3), seed=1.0), None,
                   "bootstrap seed must be an integer, got 1.0"),
    "child_number": (lambda: Bootstrap(3, child=3), lambda: replace(Bootstrap(3), child=3),
                     None, "bootstrap child must be a metric, got 3"),
    "side_text": (lambda: Composite(op="mul", left=Sum("x"), right="a"),
                  lambda: replace(Sum("x") * 2, right="a"), None,
                  "mul right must be a metric, got 'a'"),
}
DSL_CASES = {k: v for k, v in BAD_ARGUMENTS.items() if v[2] is not None}


def _raises_exactly(error, call) -> str:
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    return str(err.value)


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_raises_one_message_from_constructor_and_replace(case):
    build, rebuild, _, message = BAD_ARGUMENTS[case]
    assert _raises_exactly(BindError, build) == message
    assert _raises_exactly(BindError, rebuild) == message


@pytest.mark.parametrize("case", DSL_CASES)
def test_dsl_raises_the_same_message_at_the_argument(case, capsys):
    _, _, (src, argument), message = DSL_CASES[case]
    with pytest.raises(DslError) as err:
        parse(src)
    assert (err.value.line, err.value.col) == (1, src.index(argument) + 1)
    position = f"1:{err.value.col}: "
    assert str(err.value) == position + message
    assert main(["--metric", src, "--mode", "sql"]) == 1
    assert capsys.readouterr().err == f"error: {position}{message}\n"


@pytest.mark.parametrize("src, message", [
    ("sum(3)", "1:1: sum needs a column name at argument 1"),
    ("sum(x) | jackknife(3)", "1:10: jackknife needs a column name at argument 1"),
    ('count(p) | distribution("p")', "1:12: distribution needs a column name at argument 1"),
    ("sum(x) | percent_change(arm, control)",
     "1:30: baseline must be a quoted string or a number"),
    ("mean(x) | bootstrap(true)",
     "1:21: bootstrap n_rep must be a positive integer, got 'true'"),
    ("quantile(x, q)", "1:13: quantile q must be a number in [0, 1], got 'q'"),
    ("sum(x) as 3", "1:11: rename needs a quoted name (expected one of: string)"),
    ('sum(x) * "a"', """1:10: found '"a"' (expected one of: number, function call, '(')"""),
])
def test_other_dsl_spellings_are_dsl_errors(src, message, capsys):
    assert _raises_exactly(DslError, lambda: parse(src)) == message
    assert main(["--metric", src, "--mode", "sql"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


TABLE = Table.from_dict({"g": ["a", "b"], "x": [1.0, 2.0]})


@pytest.mark.parametrize("call, message", [
    (lambda: compute_on(3, TABLE), "expected a metric, got 3"),
    (lambda: compute_on([Sum("x"), "x"], TABLE, ("g",)), "expected a metric, got 'x'"),
    (lambda: to_sql(3, "d"), "expected a metric, got 3"),
    (lambda: bind(None, ()), "expected a metric, got None"),
    (lambda: to_sql(Sum(3), "d"), "sum var must be a column name, got 3"),
    (lambda: Sum("x") * "a", "cannot use 'a' as a metric"),
    (lambda: "a" - Sum("x"), "cannot use 'a' as a metric"),
    (lambda: Sum("x") + True, "cannot use True as a metric"),
    (lambda: Sum("x") | 3, "can only pipe into an operation, not int"),
    (lambda: 3 | Sum("x"), "can only pipe into an operation, not Sum"),
    (lambda: 3 | Bootstrap(2), "bootstrap child must be a metric, got 3"),
    (lambda: -Sum("x"), "a metric has no unary minus; write -1 * metric"),
    (lambda: pipe(3, Bootstrap(2)), "bootstrap child must be a metric, got 3"),
    (lambda: Sum("x").set_names([3]), "a metric's name must be a str, got 3"),
    (lambda: set_n_rep(Sum("x") | Bootstrap(5), 0),
     "bootstrap n_rep must be a positive integer, got 0"),
], ids=["compute_on_number", "compute_on_list_item", "to_sql_number", "bind_none",
        "to_sql_bad_leaf", "mul_text", "rsub_text", "add_bool", "pipe_into_number",
        "ror_number", "ror_into_template", "negate",
        "pipe_number", "set_names_number", "set_n_rep_zero"])
def test_entry_points_refuse_a_non_metric(call, message):
    assert _raises_exactly(BindError, call) == message


@pytest.mark.parametrize("build", [
    lambda: Quantile("x", 0), lambda: Quantile("x", 1), lambda: Bootstrap(1, seed=-7),
    lambda: PercentChange("g", None), lambda: PercentChange("g", math.nan),
    lambda: AbsoluteChange("g", -math.inf), lambda: ScalarLiteral(math.inf),
    lambda: ScalarLiteral(-3), lambda: Distribution("g"), lambda: Jackknife("u"),
], ids=["q_zero", "q_one", "one_replicate", "null_baseline", "nan_baseline",
        "inf_baseline", "inf_constant", "int_constant", "template", "jackknife_template"])
def test_edge_values_are_accepted_unchanged(build):
    node = build()
    assert replace(node) == node


def test_random_trees_construct_with_unchanged_serialization():
    """2,000 seeded trees, each also rebuilt node by node through ``replace``;
    the digest is of the serializations before roles checked their values."""
    rng = random.Random(2000)
    texts = []
    for _ in range(2000):
        metric = random_pipeline(rng)
        assert metric.map(lambda node: replace(node)) == metric
        texts.append(metric.serialize())
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "2a1d50dc23c1a2e414463ef30a8b8d52a318957fc4c7d8011e00a81a12f687bc"

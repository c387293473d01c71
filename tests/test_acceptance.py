"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion. A failing assert inside a criterion marks it FAIL via pytest.
"""

from __future__ import annotations

import math
import random
import time

from slicemetrics import (
    AbsoluteChange,
    Bootstrap,
    Count,
    Dialect,
    Distribution,
    EvalContext,
    Max,
    Mean,
    Min,
    PercentChange,
    StdDev,
    Sum,
    Table,
    Variance,
    compute_on,
    parse,
    print_metric,
    read_csv,
    to_sql,
)

from helpers import (
    FIG2_CSV,
    assert_backend_equal,
    execute_query,
    grid_table,
    random_pipeline,
    random_table,
)


def report(n: int, message: str):
    print(f"criterion {n}: PASS: {message}")


def test_criterion_1_figure_churn_is_exactly_half():
    started = time.monotonic()
    table = read_csv(FIG2_CSV)
    churn = (Sum("lost") / Count("lost")).set_names(["churn"])
    frame = compute_on(churn, table, ())
    value = frame.single_value()
    assert value == 0.5  # tolerance 0
    assert frame.value_columns == ("churn",)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, f"churn on the 6-row fixture is exactly 0.5 ({elapsed * 1000:.0f} ms)")


def test_criterion_2_baseline_rows_are_exactly_zero():
    rng = random.Random(2025)
    checked = 0
    for _ in range(100):
        table = random_table(rng, null_rate=0.1)
        for op in (PercentChange("arm", "control"), AbsoluteChange("arm", "control")):
            frame = compute_on(Sum("y") | op, table, ("g1",))
            for key, values in frame.rows:
                if key[frame.key_columns.index("arm")] == "control":
                    assert values == (0.0,), (key, values)
                    checked += 1
    assert checked > 100
    report(2, f"{checked} baseline rows across 100 random tables are exactly 0")


def test_criterion_3_distribution_sums_to_one():
    rng = random.Random(3033)
    for _ in range(100):
        table = random_table(rng, null_rate=0.0)
        frame = compute_on(Count("y") | Distribution("g2"), table, ("g1",))
        sums: dict = {}
        for key, values in frame.rows:
            slice_key = key[frame.key_columns.index("g1")]
            sums[slice_key] = sums.get(slice_key, 0.0) + values[0]
        for slice_key, total in sums.items():
            assert abs(total - 1.0) <= 1e-12, (slice_key, total)
    report(3, "per-slice distribution values sum to 1 within 1e-12 on 100 tables")


def test_criterion_4_did_matches_hand_oracle():
    table = Table.from_dict({
        "STATE_NAME": ["NJ", "NJ", "PA", "PA"],
        "PERIOD": ["Before", "After", "Before", "After"],
        "EMP": [17.0, 18.0, 20.0, 19.0],
    })
    did = (
        Mean("EMP")
        | AbsoluteChange("STATE_NAME", "PA")
        | AbsoluteChange("PERIOD", "Before")
    )
    values = dict(compute_on(did, table).rows)
    oracle = (18.0 - 19.0) - (17.0 - 20.0)
    assert values[("After", "NJ")] == (oracle,) == (2.0,)

    swapped = (
        Mean("EMP")
        | PercentChange("STATE_NAME", "PA")
        | AbsoluteChange("PERIOD", "Before")
    )
    swapped_values = dict(compute_on(swapped, table).rows)
    pct_oracle = (18.0 / 19.0 - 1) * 100 - (17.0 / 20.0 - 1) * 100
    assert swapped_values[("After", "NJ")] == (pct_oracle,)
    # Only the differencing arithmetic changed; keys and baseline rows did not.
    assert set(swapped_values) == set(values)
    assert swapped_values[("Before", "NJ")] == values[("Before", "NJ")] == (0.0,)
    report(4, f"difference-in-differences equals the 4-cell oracle ({oracle})")


GOLDEN_TREES = [
    ("sum", Sum("x"), ()),
    ("sum by g1", Sum("x"), ("g1",)),
    ("count by two dims", Count("y"), ("g1", "g2")),
    ("mean", Mean("x"), ("g2",)),
    ("min over max", Min("x") / Max("x"), ("g1",)),
    ("ratio", (Sum("x") / Count("x")).set_names(["rate"]), ()),
    ("ci bound", Mean("x") + StdDev("x") * 1.96 / Count("x") ** 0.5, ("g2",)),
    ("variance", Variance("x"), ("g1",)),
    ("scalar mix", Sum("x") * 2.0 - Count("y"), ()),
    ("distribution", Count("y") | Distribution("g2"), ("g1",)),
    ("percent change", Sum("y") | PercentChange("arm", "control"), ("g1",)),
    ("absolute change", Mean("x") | AbsoluteChange("g2", "red"), ()),
    ("chained changes", Mean("x") | AbsoluteChange("g2", "red") | AbsoluteChange("arm", "control"), ()),
    ("change of ratio", (Sum("x") / Count("x")).set_names(["rate"]) | PercentChange("arm", "control"), ("g2",)),
]


def test_criterion_5_backend_equivalence_suite():
    started = time.monotonic()
    rng = random.Random(5055)
    assert len(GOLDEN_TREES) >= 12
    for i, (label, metric, split) in enumerate(GOLDEN_TREES):
        table = grid_table(rng, extra_rows=10 + i)
        assert_backend_equal(metric, table, split, tol=1e-9)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(5, f"{len(GOLDEN_TREES)} golden trees match on sqlite within 1e-9 ({elapsed:.1f} s)")


def test_criterion_6_bootstrap_sanity():
    started = time.monotonic()
    rng = random.Random(42)
    values = [rng.gauss(0.0, 1.0) for _ in range(200)]
    table = Table.from_dict({"x": values})
    mean = sum(values) / 200
    sd = math.sqrt(sum((v - mean) ** 2 for v in values) / 199)
    formula = sd / math.sqrt(200)

    compute_se = compute_on(Mean("x") | Bootstrap(2000, seed=7), table).single_value()
    assert abs(compute_se - formula) / formula <= 0.15

    query = to_sql(Mean("x") | Bootstrap(1000, seed=7), "d", (), Dialect.PORTABLE)
    sql_se = execute_query(query, {"d": table})[()][0]
    assert abs(sql_se - compute_se) / compute_se <= 0.20

    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        6,
        f"bootstrap SE: compute {compute_se:.5f} vs s/sqrt(n) {formula:.5f}, "
        f"sql {sql_se:.5f} ({elapsed:.1f} s)",
    )


def test_criterion_7_cache_effectiveness():
    rng = random.Random(7077)
    table = random_table(rng, n_rows=40)
    metrics = [Sum("x") / Count("x"), Sum("x"), Count("x")]

    ctx = EvalContext()
    cached = compute_on(metrics, table, ("g1",), ctx)
    assert ctx.cache_hits >= 2

    plain = compute_on(metrics, table, ("g1",), EvalContext(cache_enabled=False))
    assert dict(cached.rows) == dict(plain.rows)
    report(7, f"joint evaluation recorded {ctx.cache_hits} cache hits with identical results")


def test_criterion_8_googlesql_snapshot_anchors():
    churn = (Sum("lost") / Count("lost")).set_names(["churn"])
    pct = to_sql(churn | PercentChange("experiment", "control"), "events", (),
                 Dialect.GOOGLESQL).render()
    assert "T LEFT JOIN Base ON TRUE" in pct

    boot = to_sql(
        churn | PercentChange("experiment", "control") | Bootstrap(100, seed=0),
        "events", (), Dialect.GOOGLESQL,
    ).render()
    assert "STDDEV(" in boot
    assert "UNNEST(GENERATE_ARRAY(1," in boot
    report(8, "GoogleSQL output carries the baseline join, STDDEV, and UNNEST anchors")


def test_criterion_9_dsl_round_trip_and_names():
    rng = random.Random(9099)
    for _ in range(50):
        metric = random_pipeline(rng)
        text = print_metric(metric)
        reparsed = parse(text).metrics[0]
        assert reparsed == metric, text
        assert print_metric(reparsed) == text

    stage_1 = parse('sum(lost) / count(lost) as "churn"').metrics[0]
    assert stage_1.names() == ("churn",)
    stage_2 = parse(
        'sum(lost) / count(lost) as "churn" | percent_change(experiment, "control")'
    ).metrics[0]
    assert stage_2.names() == ("pct_change_of_churn",)
    stage_3 = parse(
        'sum(lost) / count(lost) as "churn" | percent_change(experiment, "control")'
        " | bootstrap(100)"
    ).metrics[0]
    assert stage_3.names() == ("se_pct_change_of_churn",)

    baseball = parse("count(pitchtype) | distribution(pitchtype)").metrics[0]
    assert baseball.names() == ("distribution_of_count_pitchtype",)
    did = parse(
        'mean(EMP) | absolute_change(STATE_NAME, "PA") | absolute_change(PERIOD, "Before")'
    ).metrics[0]
    assert did.extra_dims() == ("PERIOD", "STATE_NAME")
    report(9, "50 generated programs round-trip; worked-example names match")

"""compute_on against the generated SQL on random trees and tables.

Each tree that both backends accept must give the same frame on sqlite as
in ``compute_on``: differential testing (McKeeman, 1998, "Differential
testing for software"). The cases after the property test pin the rules
compute takes from SQL.
"""

from __future__ import annotations

import math
import random

import pytest

from slicemetrics import (
    Bootstrap, Distribution, MetricsError, Sum, Table, compute_on, to_sql,
)
from slicemetrics.dsl import set_n_rep

from helpers import (
    assert_backend_equal, execute_query, random_pipeline, random_pipeline_table, random_split,
)


def _random_case(seed: int):
    rng = random.Random(seed)
    metric = set_n_rep(random_pipeline(rng), 7)
    return rng, metric, random_pipeline_table(rng), random_split(rng)


def test_random_trees_agree_in_both_backends():
    compared = 0
    for seed in range(3000):
        _, metric, table, split = _random_case(seed)
        try:
            to_sql(metric, "d", split)
            assert_backend_equal(metric, table, split)  # compute_on runs first
        except MetricsError:
            continue
        except AssertionError as err:
            pytest.fail(f"seed {seed}, split {split}: {metric}\n{err}")
        compared += 1
    assert compared >= 1400


def _compute_rows(metric, table, split) -> dict[tuple, float]:
    return {key: v for key, (v,) in compute_on(metric, table, split).rows}


def _sql_rows(metric, table, split) -> dict[tuple, float]:
    return {key: v for key, (v,) in execute_query(to_sql(metric, "d", split), {"d": table}).items()}


def test_distribution_shares_sum_to_one_in_both_backends():
    # Each share is one rounded division by the partition's total, which
    # sqlite sums in float: within n ulps of the shares' absolute sum.
    checked = {_compute_rows: 0, _sql_rows: 0}
    for seed in range(600):
        rng, child, table, split = _random_case(seed)
        over = rng.choice([name for name in table.column_names if name not in split])
        at = len(split)
        for run in checked:
            try:
                values = run(child, table, split + (over,))
                shares = run(child | Distribution(over), table, split)
            except MetricsError:
                continue
            parts: dict[tuple, list[tuple[float, float]]] = {}
            for key, share in shares.items():
                parts.setdefault(key[:at] + key[at + 1:], []).append((values[key], share))
            for part, pairs in parts.items():
                kept = [v for v, _ in pairs if not math.isnan(v)]
                if not all(map(math.isfinite, kept)) or math.fsum(kept) == 0:
                    continue
                got = [share for _, share in pairs if not math.isnan(share)]
                bound = 1e-12 + len(got) * 2**-52 * math.fsum(map(abs, got))
                assert abs(math.fsum(got) - 1) <= bound, (seed, run.__name__, part, pairs)
                checked[run] += 1
    assert min(checked.values()) >= 300, checked


class TestSqlRules:
    # compute_on takes SQL's rule where the two could differ.

    def test_sum_over_no_values_is_null(self):
        t = Table.from_dict({"g": ["a", "a", "b"], "x": [1.0, 2.0, None]})
        empty = Table.from_dict({"g": [], "x": []})
        rows = dict(compute_on(Sum("x"), t, ("g",)).rows)
        assert rows[("a",)] == (3.0,) and math.isnan(rows[("b",)][0])
        assert math.isnan(compute_on(Sum("x"), empty).single_value())
        assert_backend_equal(Sum("x"), t, ("g",))
        assert_backend_equal(Sum("x"), empty)

    def test_one_row_slice_under_bootstrap_then_distribution(self):
        # Every replicate draws the one row, so the SE is exactly 0 and its
        # share 0/0; numpy's running-mean SD of seven 0.1s is about 1.5e-17.
        t = Table.from_dict({"g": ["a"], "x": [0.1]})
        metric = Sum("x") | Bootstrap(7, seed=0) | Distribution("g")
        assert math.isnan(compute_on(metric, t).single_value())
        assert_backend_equal(metric, t)

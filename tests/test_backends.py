"""compute_on against the generated SQL on random trees and tables.

Each tree that both backends accept must give the same frame on sqlite as
in ``compute_on``: differential testing (McKeeman, 1998, "Differential
testing for software"). The cases after the property test pin the rules
compute takes from SQL.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from slicemetrics import (
    Bootstrap, Distribution, MetricsError, Sum, Table, compute_on, to_sql,
)
from slicemetrics.dsl import set_n_rep
from slicemetrics.metrics import walk

from helpers import (
    COLUMNS, assert_backend_equal, execute_query, random_pipeline, random_pipeline_table,
    random_split,
)


def _random_case(seed: int, columns=COLUMNS):
    rng = random.Random(seed)
    metric = set_n_rep(random_pipeline(rng, columns), 7)
    return rng, metric, random_pipeline_table(rng, columns), random_split(rng, columns)


# Columns named like those the bootstrap SQL adds, and the names half the
# trees give one of their nodes: those names in another case, or m. sqlite
# reads names without case, so each column the SQL adds must avoid them all.
SQL_NAMES = ("Row_Number", "SAMPLE_IDX", "slice_size")
RENAMES = ("row_number", "Sample_Idx", "SLICE_SIZE", "sample_idx", "Slice_Size", "m")


def _renamed(rng: random.Random, metric):
    """``metric`` with one node, picked at random, renamed to one of RENAMES."""
    name, at = rng.choice(RENAMES), rng.randrange(sum(1 for _ in walk(metric)))
    count = itertools.count()
    return metric.map(lambda node: node.set_names([name]) if next(count) == at else node)


def _compare_random_trees(seeds: int, columns=COLUMNS, rename=False) -> int:
    """How many of the seeds' trees both backends accept; each must agree."""
    compared = 0
    for seed in range(seeds):
        rng, metric, table, split = _random_case(seed, columns)
        if rename and rng.random() < 0.5:
            metric = _renamed(rng, metric)
        try:
            to_sql(metric, "d", split)
            assert_backend_equal(metric, table, split)  # compute_on runs first
        except MetricsError:
            continue
        except AssertionError as err:
            pytest.fail(f"seed {seed}, split {split}: {metric}\n{err}")
        compared += 1
    return compared


def test_random_trees_agree_in_both_backends():
    assert _compare_random_trees(3000) >= 1400


def test_random_trees_over_the_sql_names_agree_in_both_backends():
    assert _compare_random_trees(1500, SQL_NAMES, rename=True) >= 700


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

"""In-memory evaluation of metric trees via split-apply-combine.

Leaf aggregates group the table by the requested dimensions, using the
columns' integer codes, and reduce each slice of the column's values array.
Operations run in three phases: preprocess the data, compute the child
(usually at a finer granularity), then post-process the child frame.
Bootstrap and jackknife replicates are tables taken from the input, one array
gather per column. A bootstrap resamples within each ``split_by`` slice, with
the generated SQL's integer hash and in its row order (``table.draw_order``),
so both backends draw the same rows. Shared subtrees are evaluated once per
(metric, data, split) thanks to a content addressed cache on the evaluation
context.

Every metric has one value per slice. Arithmetic on result frames follows the
pointwise rule: frames are joined on their common key columns, the two sides'
values combine, scalars broadcast, and anything that cannot be aligned yields
NaN rather than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics as m
from .errors import BindError, EmptyInput
from .frames import ResultFrame
from .table import Table, coerce_cell, draw_order, group_rows, resample_with_replacement

NAN = float("nan")


@dataclass
class ComputeWarning:
    kind: str
    message: str


@dataclass
class EvalContext:
    """Mutable evaluation state: result cache and diagnostics."""

    cache_enabled: bool = True
    cache: dict = field(default_factory=dict)
    cache_hits: int = 0
    warnings: list[ComputeWarning] = field(default_factory=list)

    def warn(self, kind: str, message: str):
        self.warnings.append(ComputeWarning(kind, message))


def compute_on(
    metric,
    table: Table,
    split_by: list[str] | tuple[str, ...] = (),
    ctx: EvalContext | None = None,
) -> ResultFrame:
    """Evaluate one metric, or a list or tuple of metrics jointly, over dimensions.

    A list shares one cache, so common subtrees are computed once; the
    frames are then merged on their keys. Jointly computed metrics must
    produce identical key columns. Rows come sorted by key
    (``ResultFrame.sorted_rows``), the order of the SQL's ``ORDER BY``.
    """
    ctx = ctx or EvalContext()
    split_by = tuple(split_by)
    joint = isinstance(metric, (list, tuple))
    metrics = list(metric) if joint else [metric]  # bind refuses a non-metric
    keys = {m.bind(one, split_by, table.schema) for one in metrics}
    if len(keys) != 1:
        raise BindError(f"jointly computed metrics must share one key, got {sorted(keys)}")
    names = [name for one in metrics for name in one.names()]
    if len(set(names)) != len(names):
        raise BindError(f"jointly computed metrics repeat a value name: {names}")
    frames = [_cached_compute(one, table, split_by, ctx) for one in metrics]
    frame = _merge_frames(frames) if joint else frames[0]
    return ResultFrame(frame.key_columns, frame.value_columns, tuple(frame.sorted_rows()))


def _merge_frames(frames: list[ResultFrame]) -> ResultFrame:
    value_columns = tuple(n for frame in frames for n in frame.value_columns)
    maps = [dict(frame.rows) for frame in frames]
    rows = tuple((key, tuple(rowmap.get(key, (NAN,))[0] for rowmap in maps))
                 for key in dict.fromkeys(key for rowmap in maps for key in rowmap))
    return ResultFrame(frames[0].key_columns, value_columns, rows)


def _cached_compute(metric: m.Metric, table: Table, split_by, ctx: EvalContext) -> ResultFrame:
    if not ctx.cache_enabled:
        return _compute(metric, table, split_by, ctx)
    key = (metric.serialize(), table.fingerprint(), split_by)
    hit = ctx.cache.get(key)
    if hit is not None:
        ctx.cache_hits += 1
        return hit
    frame = _compute(metric, table, split_by, ctx)
    ctx.cache[key] = frame
    return frame


def _compute(metric: m.Metric, table: Table, split_by, ctx: EvalContext) -> ResultFrame:
    if isinstance(metric, m.ScalarLiteral):
        groups = group_rows(table, split_by)
        rows = tuple((key, (metric.value,)) for key in groups)
        return ResultFrame(split_by, metric.names(), rows)
    if isinstance(metric, m._LeafAggregate):
        groups = group_rows(table, split_by)
        column = table.column(metric.var)  # bind let only Count read a text column
        if column.null is not None:
            groups = {key: indices[~column.null[indices]] for key, indices in groups.items()}
        rows = tuple((key, (eval_leaf(metric, column.data[indices]),))
                     for key, indices in groups.items())
        return ResultFrame(split_by, metric.names(), rows)
    if isinstance(metric, m.Composite):
        left = _composite_side(metric.left, table, split_by, ctx)
        right = _composite_side(metric.right, table, split_by, ctx)
        if isinstance(left, float) and isinstance(right, float):
            left = _cached_compute(metric.left, table, split_by, ctx)
        return eval_composite(metric.op, left, right, names=metric.names())
    if isinstance(metric, m.Operation):
        return _eval_operation(metric, table, split_by, ctx)
    raise TypeError(f"cannot compute {type(metric).__name__}")


def _composite_side(side: m.Metric, table, split_by, ctx):
    # Scalars stay scalars so they can broadcast against any key structure.
    if isinstance(side, m.ScalarLiteral) and side.names_override is None:
        return side.value
    return _cached_compute(side, table, split_by, ctx)


# -- leaf aggregates ---------------------------------------------------------


def eval_leaf(leaf: m._LeafAggregate, values) -> float:
    """Reduce one slice's non-null values of the leaf's column to a float.

    ``values`` is an array, or any sequence of numbers, read as float64.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    kind = leaf.tag
    if kind == "count":
        return float(n)
    if kind == "sum":
        return _sum(values.tolist())
    if kind == "mean":
        return _sum(values.tolist()) / n if n else NAN
    if kind == "min":
        return min(values.tolist()) if n else NAN  # Python's min: a leading NaN wins
    if kind == "max":
        return max(values.tolist()) if n else NAN
    if kind == "variance":
        return _quiet(np.var, values, ddof=1) if n >= 2 else NAN
    if kind == "sd":
        return _quiet(np.std, values, ddof=1) if n >= 2 else NAN
    if kind == "quantile":
        return _quiet(np.quantile, values, leaf.q) if n else NAN
    raise TypeError(f"unknown leaf aggregate: {kind!r}")


def _sum(values: list[float]) -> float:
    """The exact sum (``math.fsum``), or where a partial sum is not finite the
    IEEE one, as SQL's ``SUM`` gives: inf + -inf is NaN, an overflow +-inf."""
    try:
        return math.fsum(values)
    except (ValueError, OverflowError):
        return sum(values)


# -- pointwise arithmetic ----------------------------------------------------

_ARITH = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "pow": np.power,
}


def _apply(op: str, a: float, b: float) -> float:
    with np.errstate(all="ignore"):
        return float(_ARITH[op](np.float64(a), np.float64(b)))


def eval_composite(
    op: str,
    left: ResultFrame | float,
    right: ResultFrame | float,
    names: tuple[str, ...] | None = None,
) -> ResultFrame:
    """Combine one-value frames (or a frame and a scalar) pointwise.

    Frames join on their common key columns; a side whose key is coarser
    broadcasts across the finer side's rows. Keys present on only one side
    produce NaN: incompatibility is a value, not an error. The result is
    named ``names``, or after its frame side (the left one for two frames).
    """
    if isinstance(left, float) and isinstance(right, float):
        raise TypeError("at least one side must be a frame")
    if isinstance(right, float):
        rows = tuple((key, (_apply(op, v, right),)) for key, (v,) in left.rows)
        return ResultFrame(left.key_columns, names or left.value_columns, rows)
    if isinstance(left, float):
        rows = tuple((key, (_apply(op, left, v),)) for key, (v,) in right.rows)
        return ResultFrame(right.key_columns, names or right.value_columns, rows)

    extra = tuple(k for k in right.key_columns if k not in left.key_columns)
    key_columns = left.key_columns + extra
    common = [k for k in left.key_columns if k in right.key_columns]
    left_common = [left.key_columns.index(k) for k in common]
    right_common = [right.key_columns.index(k) for k in common]
    right_extra = [right.key_columns.index(k) for k in extra]
    right_at = [right.key_columns.index(k) if k in right.key_columns else None
                for k in key_columns]

    left_groups = _group_by_positions(left, left_common)
    right_groups = _group_by_positions(right, right_common)
    # A key met twice keeps its first value.
    rows: dict[tuple, tuple[float]] = {}
    for proj in dict.fromkeys([*left_groups, *right_groups]):
        lrows = left_groups.get(proj, [])
        rrows = right_groups.get(proj, [])
        if (len(lrows) == 1 and rrows) or (len(rrows) == 1 and lrows):
            # One side is coarser here and broadcasts across the other's rows.
            for lkey, (a,) in lrows:
                for rkey, (b,) in rrows:
                    rows.setdefault(lkey + tuple(rkey[i] for i in right_extra),
                                    (_apply(op, a, b),))
        else:
            # One-sided, or both sides refined the same slice differently: unalignable.
            for key, _ in lrows:
                rows.setdefault(key + (None,) * len(extra), (NAN,))
            for key, _ in rrows:
                rows.setdefault(tuple(None if i is None else key[i] for i in right_at), (NAN,))
    return ResultFrame(key_columns, names or left.value_columns, tuple(rows.items()))


def _group_by_positions(frame: ResultFrame, positions: list[int]):
    groups: dict[tuple, list] = {}
    for key, values in frame.rows:
        groups.setdefault(tuple(key[i] for i in positions), []).append((key, values))
    return groups


# -- operations ---------------------------------------------------------------


def _eval_operation(node: m.Operation, table: Table, split_by, ctx: EvalContext) -> ResultFrame:
    if isinstance(node, m.Distribution):
        return _eval_distribution(node, table, split_by, ctx)
    if isinstance(node, m._ChangeOperation):
        return _eval_change(node, table, split_by, ctx)
    if isinstance(node, m.Bootstrap):
        return _eval_bootstrap(node, table, split_by, ctx)
    if isinstance(node, m.Jackknife):
        return _eval_jackknife(node, table, split_by, ctx)
    raise TypeError(f"unknown operation: {type(node).__name__}")


# The child of a distribution or change is evaluated at split_by + (dim,), so
# its key columns, split_by + (dim,) + child.extra_dims(), are already the
# output's; the slice a row belongs to is its key without position
# len(split_by).


def _eval_distribution(node, table, split_by, ctx):
    child_frame = _cached_compute(node.child, table, split_by + (node.over,), ctx)
    at = len(split_by)
    values: dict[tuple, list[float]] = {}
    for key, (v,) in child_frame.rows:
        # NaN rows stay out of the total, as NULLs do in SQL's window SUM.
        kept = values.setdefault(key[:at] + key[at + 1:], [])
        if not math.isnan(v):
            kept.append(v)
    totals = {slice_key: _sum(kept) for slice_key, kept in values.items()}
    rows = tuple((key, (_apply("div", v, totals[key[:at] + key[at + 1:]]),))
                 for key, (v,) in child_frame.rows)
    return ResultFrame(child_frame.key_columns, node.names(), rows)


def _eval_change(node, table, split_by, ctx):
    child_frame = _cached_compute(node.child, table, split_by + (node.condition,), ctx)
    at = len(split_by)
    baseline = coerce_cell(node.baseline, table.column(node.condition).kind)
    baselines = {
        key[:at] + key[at + 1:]: v
        for key, (v,) in child_frame.rows
        if key[at] == baseline
    }
    percent = isinstance(node, m.PercentChange)
    rows = []
    for key, (v,) in child_frame.rows:
        base = baselines.get(key[:at] + key[at + 1:])
        if key[at] == baseline:
            change = 0.0
        elif base is None:
            ctx.warn(
                "missing_baseline",
                f"no {node.condition}={node.baseline!r} row for slice {key!r}",
            )
            change = NAN
        elif percent:
            change = _apply("mul", _apply("div", v, base) - 1.0, 100.0)
        else:
            change = _apply("sub", v, base)
        rows.append((key, (change,)))
    return ResultFrame(child_frame.key_columns, node.names(), tuple(rows))


def _eval_bootstrap(node, table, split_by, ctx):
    if table.row_count == 0:
        raise EmptyInput("bootstrap requires at least one row")
    order = draw_order(table, split_by, node.draw_columns(split_by))
    replicates = (resample_with_replacement(table, order, node.seed, i)
                  for i in range(1, node.n_rep + 1))
    return _replicate_se(node, replicates, _sample_sd, split_by, ctx)


def _eval_jackknife(node, table, split_by, ctx):
    def leave_out(indices):
        keep = np.ones(table.row_count, dtype=bool)
        keep[indices] = False
        return table.take(np.flatnonzero(keep))

    replicates = (leave_out(indices) for indices in group_rows(table, (node.unit,)).values())
    return _replicate_se(node, replicates, _jackknife_se, split_by, ctx)


def _replicate_se(node, tables, se, split_by, ctx: EvalContext) -> ResultFrame:
    """Per key, ``se`` of the child's finite replicate values.

    Each replicate is a new table, so its cache entries would never hit; it is
    evaluated uncached. A key that loses a non-finite value gets one warning.
    """
    replicate_ctx = EvalContext(cache_enabled=False, warnings=ctx.warnings)
    samples: dict[tuple, list[float]] = {}
    dropped: dict[tuple, int] = {}
    for part in tables:
        for key, (v,) in _compute(node.child, part, split_by, replicate_ctx).rows:
            kept = samples.setdefault(key, [])
            if math.isfinite(v):
                kept.append(v)
            else:
                dropped[key] = dropped.get(key, 0) + 1
    for key, n in dropped.items():
        ctx.warn("nonfinite_replicate",
                 f"dropped {n} non-finite replicate values for slice {key!r}")
    rows = tuple((key, (se(kept),)) for key, kept in samples.items())
    return ResultFrame(split_by + node.extra_dims(), node.names(), rows)


def _quiet(fn, *args, **kwargs) -> float:
    with np.errstate(all="ignore"):
        return float(fn(*args, **kwargs))


def _sample_sd(values: list[float]) -> float:
    if len(values) < 2:
        return NAN
    return _quiet(np.std, values, ddof=1)


def _jackknife_se(estimates: list[float]) -> float:
    k = len(estimates)
    if k < 2:
        return NAN
    mean = math.fsum(estimates) / k
    ss = math.fsum((e - mean) ** 2 for e in estimates)
    return math.sqrt((k - 1) / k * ss)

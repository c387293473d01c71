"""In-memory evaluation of metric trees via split-apply-combine.

Leaf aggregates group the table by the requested dimensions and reduce each
slice. Operations run in three phases: preprocess the data, compute the child
(usually at a finer granularity), then post-process the child frame. Shared
subtrees are evaluated once per (metric, data, split) thanks to a content
addressed cache on the evaluation context.

Every metric has one value per slice. Arithmetic on result frames follows the
pointwise rule: frames are joined on their common key columns, the two sides'
values combine, scalars broadcast, and anything that cannot be aligned yields
NaN rather than an error.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import metrics as m
from .errors import BindError, EmptyInput, TypeMismatch
from .frames import ResultFrame
from .table import Table, group_rows, resample_with_replacement

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
    """Evaluate one metric, or a sequence of metrics jointly, over dimensions.

    A sequence shares one cache, so common subtrees are computed once; the
    frames are then merged on their keys. Jointly computed metrics must
    produce identical key columns.
    """
    ctx = ctx or EvalContext()
    split_by = tuple(split_by)
    metrics = [metric] if isinstance(metric, m.Metric) else list(metric)
    keys = {m.bind(one, split_by, table.column_names) for one in metrics}
    if len(keys) != 1:
        raise BindError(f"jointly computed metrics must share one key, got {sorted(keys)}")
    names = [name for one in metrics for name in one.names()]
    if len(set(names)) != len(names):
        raise BindError(f"jointly computed metrics repeat a value name: {names}")
    frames = [_cached_compute(one, table, split_by, ctx) for one in metrics]
    return frames[0] if isinstance(metric, m.Metric) else _merge_frames(frames)


def _merge_frames(frames: list[ResultFrame]) -> ResultFrame:
    keys = frames[0].key_columns
    value_columns = tuple(n for frame in frames for n in frame.value_columns)
    order: list[tuple] = []
    seen: set[tuple] = set()
    for frame in frames:
        for key, _ in frame.rows:
            if key not in seen:
                seen.add(key)
                order.append(key)
    maps = [dict(frame.rows) for frame in frames]
    rows = tuple((key, tuple(rowmap.get(key, (NAN,))[0] for rowmap in maps)) for key in order)
    return ResultFrame(keys, value_columns, rows)


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
        cells = table.column(metric.var).values
        rows = tuple((key, (eval_leaf(metric, [cells[i] for i in indices]),))
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


def eval_leaf(leaf: m._LeafAggregate, values: list) -> float:
    """Reduce one slice's cells of the leaf's column to a float, skipping nulls."""
    if leaf.kind == "count":
        return float(sum(1 for v in values if v is not None))
    numeric: list[float] = []
    for v in values:
        if v is None:
            continue
        if isinstance(v, str):
            raise TypeMismatch(
                f"cannot aggregate text cell {v!r} in column {leaf.var!r} with {leaf.kind}"
            )
        numeric.append(float(v))
    n = len(numeric)
    kind = leaf.kind
    if kind == "sum":
        return math.fsum(numeric)
    if kind == "mean":
        return math.fsum(numeric) / n if n else NAN
    if kind == "min":
        return min(numeric) if n else NAN
    if kind == "max":
        return max(numeric) if n else NAN
    if kind == "variance":
        return _quiet(np.var, numeric, ddof=1) if n >= 2 else NAN
    if kind == "sd":
        return _quiet(np.std, numeric, ddof=1) if n >= 2 else NAN
    if kind == "quantile":
        return _quiet(np.quantile, numeric, leaf.q) if n else NAN
    raise TypeError(f"unknown leaf aggregate: {kind!r}")


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
    order = list(left_groups)
    order.extend(k for k in right_groups if k not in left_groups)

    rows: list[tuple[tuple, tuple[float]]] = []
    seen: set[tuple] = set()

    def emit(key: tuple, value: float):
        if key not in seen:
            seen.add(key)
            rows.append((key, (value,)))

    for proj in order:
        lrows = left_groups.get(proj, [])
        rrows = right_groups.get(proj, [])
        if (len(lrows) == 1 and rrows) or (len(rrows) == 1 and lrows):
            # One side is coarser here and broadcasts across the other's rows.
            for lkey, (a,) in lrows:
                for rkey, (b,) in rrows:
                    emit(lkey + tuple(rkey[i] for i in right_extra), _apply(op, a, b))
        else:
            # One-sided, or both sides refined the same slice differently: unalignable.
            for key, _ in lrows:
                emit(key + (None,) * len(extra), NAN)
            for key, _ in rrows:
                emit(tuple(None if i is None else key[i] for i in right_at), NAN)
    return ResultFrame(key_columns, names or left.value_columns, tuple(rows))


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
    totals: dict[tuple, float] = {}
    for key, (v,) in child_frame.rows:
        slice_key = key[:at] + key[at + 1:]
        totals[slice_key] = totals.get(slice_key, 0.0) + v
    rows = tuple((key, (_apply("div", v, totals[key[:at] + key[at + 1:]]),))
                 for key, (v,) in child_frame.rows)
    return ResultFrame(child_frame.key_columns, node.names(), rows)


def _eval_change(node, table, split_by, ctx):
    child_frame = _cached_compute(node.child, table, split_by + (node.condition,), ctx)
    at = len(split_by)
    baselines = {
        key[:at] + key[at + 1:]: v
        for key, (v,) in child_frame.rows
        if key[at] == node.baseline
    }
    percent = isinstance(node, m.PercentChange)
    rows = []
    for key, (v,) in child_frame.rows:
        base = baselines.get(key[:at] + key[at + 1:])
        if key[at] == node.baseline:
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
    replicates = (
        resample_with_replacement(table, _replicate_rng(node.seed, i)) for i in range(node.n_rep)
    )
    return _replicate_se(node, replicates, _sample_sd, split_by, ctx)


def _replicate_rng(seed: int, i: int) -> random.Random:
    """Generator of replicate ``i``; distinct (seed, i) pairs never share a seed.

    ``random.Random`` seeds with ``abs``, so the seed is first folded onto the
    naturals (s >= 0 to 2s, s < 0 to -2s - 1) and then Cantor-paired with i.
    """
    z = 2 * seed if seed >= 0 else -2 * seed - 1
    return random.Random((z + i) * (z + i + 1) // 2 + i)


def _eval_jackknife(node, table, split_by, ctx):
    unit_values = table.column(node.unit).values
    replicates = (
        table.take([i for i, v in enumerate(unit_values) if v != unit])
        for unit in dict.fromkeys(unit_values)
    )
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

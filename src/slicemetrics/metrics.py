"""Metric expression trees.

A metric is an immutable tree: leaf aggregates over a column, arithmetic
composites of other metrics (with scalars broadcasting), and operations that
transform a child metric (distributions, changes versus a baseline, and
resampling standard errors). Arithmetic on metrics is pointwise: combining two
metrics and evaluating equals evaluating each and combining the results, slice
by slice. Operations compose because an operation is itself a metric.

Trees never touch data; ``bind`` checks a tree against a split and a schema
once, for both ``compute`` and ``sqlgen``. Every node has a deterministic
canonical serialization used for cache keys and golden tests.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import BindError, NameArityError, TypeMismatch, UnknownColumn
from .table import TEXT, Cell


_UNSAFE = re.compile(r"[^a-z0-9_]+")


def sanitize_name(text: str) -> str:
    """Lowercase and squash anything outside [a-z0-9_] to underscores."""
    return _UNSAFE.sub("_", text.lower()) or "_"


def _number_token(value: float | int) -> str:
    return sanitize_name(("%g" % value).replace("-", "neg_").replace(".", "_"))


def serialize_cell(v: Cell) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return f"text:{v!r}"
    if isinstance(v, float):
        return f"float:{v!r}"
    return f"int:{v!r}"


# The roles a node's arguments play. ``args`` lists a node kind's fields in
# order with their roles; the generic code below reads it to serialize,
# to find the columns a node reads and the dimensions it adds, and to rewrite
# trees, and ``dsl`` reads it to parse and print calls.
COLUMN = "column"  # an input column the node reads
DIM = "dim"  # an input column the node reads and adds to its output key
CELL = "cell"  # a baseline literal
NUMBER = "number"  # a scalar literal's value
PROB = "prob"  # a number in [0, 1]
COUNT = "count"  # an optional positive integer: the replicate count
SEED = "seed"  # an integer, bound by the DSL parser, never written in the DSL
METRIC = "metric"  # a subtree; an operation's child is None in a template


def _memoized(method):
    """``method`` computed once per node and kept on it: a tree never changes."""
    slot = f"_{method.__name__}"

    @functools.wraps(method)
    def memoized(self):
        value = self.__dict__.get(slot)
        if value is None:
            value = self.__dict__[slot] = method(self)
        return value

    return memoized


def _no_child(node: "Metric"):
    raise BindError(f"{type(node).__name__} must modify another metric; pipe one in first")


_SERIAL = {
    COLUMN: str, DIM: str, CELL: serialize_cell, NUMBER: repr, PROB: repr, COUNT: str,
    SEED: str,
}


def _real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# The values each role accepts: a test, and the words for it in the error.
_CHECK = {
    COLUMN: (lambda v: isinstance(v, str), "a column name"),
    DIM: (lambda v: isinstance(v, str), "a column name"),
    CELL: (lambda v: v is None or isinstance(v, str) or _real(v), "a str, a number or None"),
    NUMBER: (_real, "a real number"),
    PROB: (lambda v: _real(v) and 0 <= v <= 1, "a number in [0, 1]"),
    COUNT: (lambda v: _integer(v) and v >= 1, "a positive integer"),
    SEED: (_integer, "an integer"),
    METRIC: (lambda v: isinstance(v, Metric), "a metric"),
}


def check_arg(tag: str, field: str, role: str, value) -> None:
    """Raise BindError unless ``role`` accepts ``value``; nothing is converted."""
    test, wanted = _CHECK[role]
    if not test(value):
        raise BindError(f"{tag} {field} must be {wanted}, got {value!r}")


@dataclass(frozen=True)
class Metric:
    """Base node. Subclasses declare ``tag``, ``args`` and, for operations, ``prefix``.

    Building a node, ``dataclasses.replace`` included, checks each argument
    against its role (``check_arg``). A metric has one value per slice, so
    ``names()`` is a 1-tuple; only a jointly computed list of metrics gives a
    frame several value columns.
    """

    names_override: tuple[str, ...] | None = field(default=None, kw_only=True)

    tag: ClassVar[str] = ""  # the DSL function name and the serialization tag
    args: ClassVar[tuple[tuple[str, str], ...]] = ()  # (field, role) in order

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._reads = tuple(f for f, role in cls.args if role in (COLUMN, DIM))
        cls._dims = tuple(f for f, role in cls.args if role == DIM)
        cls._children = tuple(f for f, role in cls.args if role == METRIC)

    def __post_init__(self):
        for f, role in self.args:
            value = getattr(self, f)
            if value is not None or f != "child":  # an operation template has no child
                check_arg(self.tag, f, role, value)

    # -- naming ------------------------------------------------------------

    @_memoized
    def names(self) -> tuple[str, ...]:
        if self.names_override is not None:
            return self.names_override
        return self.default_names()

    def default_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def set_names(self, names: list[str] | tuple[str, ...]) -> "Metric":
        names = tuple(names)
        if len(names) != 1:
            raise NameArityError(f"a metric has one value, got {len(names)} names")
        if not isinstance(names[0], str):
            raise BindError(f"a metric's name must be a str, got {names[0]!r}")
        return dataclasses.replace(self, names_override=names)

    # -- structure ----------------------------------------------------------

    def reads(self) -> tuple[str, ...]:
        """Input columns this node itself reads, not counting its children."""
        return tuple([getattr(self, f) for f in self._reads])

    def dims(self) -> tuple[str, ...]:
        """Dimensions this node itself adds to its children's split."""
        return tuple([getattr(self, f) for f in self._dims])

    def children(self) -> tuple["Metric", ...]:
        kids = [getattr(self, f) for f in self._children]
        return tuple([kid for kid in kids if kid is not None])

    @_memoized
    def extra_dims(self) -> tuple[str, ...]:
        """Key columns this metric adds to the output beyond split_by.

        Its own dimensions, then its children's, merged as frames join: the
        first child's keys, then each later child's keys not yet present.
        """
        dims = list(self.dims())
        children = self.children()
        if children:
            dims += children[0].extra_dims()
        for child in children[1:]:
            dims.extend(d for d in child.extra_dims() if d not in dims)
        return tuple(dims)

    def map(self, fn) -> "Metric":
        """The tree with ``fn`` applied to every node, children first."""
        kids = {f: getattr(self, f).map(fn) for f in self._children
                if getattr(self, f) is not None}
        return fn(dataclasses.replace(self, **kids) if kids else self)

    def serialize(self) -> str:
        parts = []
        for f, role in self.args:
            value = getattr(self, f)
            if role != METRIC:
                parts.append(f"{f}={_SERIAL[role](value)}")
            elif value is None:
                _no_child(self)
            else:
                parts.append(f"{f}={value.serialize()}")
        body = f"{self.tag}({', '.join(parts)})"
        if self.names_override is None:
            return body
        rendered = ",".join(repr(n) for n in self.names_override)
        return f"named(names=[{rendered}], child={body})"

    # -- algebra ------------------------------------------------------------

    def __add__(self, other):
        return combine("add", self, other)

    def __radd__(self, other):
        return combine("add", other, self)

    def __sub__(self, other):
        return combine("sub", self, other)

    def __rsub__(self, other):
        return combine("sub", other, self)

    def __mul__(self, other):
        return combine("mul", self, other)

    def __rmul__(self, other):
        return combine("mul", other, self)

    def __truediv__(self, other):
        return combine("div", self, other)

    def __rtruediv__(self, other):
        return combine("div", other, self)

    def __pow__(self, other):
        return combine("pow", self, other)

    def __or__(self, op: "Operation") -> "Metric":
        return pipe(self, op)

    def __ror__(self, other):
        return pipe(other, self)

    def __neg__(self):
        raise BindError("a metric has no unary minus; write -1 * metric")


@dataclass(frozen=True)
class ScalarLiteral(Metric):
    """Constant that broadcasts across every slice of the other side."""

    value: float

    tag = "const"
    args = (("value", NUMBER),)

    def default_names(self):
        return (_number_token(self.value),)


@dataclass(frozen=True)
class _LeafAggregate(Metric):
    """Aggregate of one column within a slice."""

    var: str

    args = (("var", COLUMN),)

    def default_names(self):
        return (f"{self.tag}_{sanitize_name(self.var)}",)


@dataclass(frozen=True)
class Sum(_LeafAggregate):
    tag = "sum"


@dataclass(frozen=True)
class Count(_LeafAggregate):
    """Counts non-null cells; the only aggregate defined on text columns."""

    tag = "count"


@dataclass(frozen=True)
class Mean(_LeafAggregate):
    tag = "mean"


@dataclass(frozen=True)
class Min(_LeafAggregate):
    tag = "min"


@dataclass(frozen=True)
class Max(_LeafAggregate):
    tag = "max"


@dataclass(frozen=True)
class Variance(_LeafAggregate):
    """Unbiased (n-1) sample variance; NaN when fewer than two values."""

    tag = "variance"


@dataclass(frozen=True)
class StdDev(_LeafAggregate):
    tag = "sd"


@dataclass(frozen=True)
class Quantile(_LeafAggregate):
    """Quantile with linear interpolation between order statistics."""

    q: float = 0.5

    tag = "quantile"
    args = (("var", COLUMN), ("q", PROB))

    def default_names(self):
        return (f"quantile_{sanitize_name(self.var)}_{_number_token(self.q)}",)


_OP_TOKENS = {"add": "_add_", "sub": "_sub_", "mul": "_mul_", "div": "_div_", "pow": "_pow_"}


@dataclass(frozen=True)
class Composite(Metric):
    """Pointwise arithmetic over two metrics; scalars broadcast. Its tag is its op."""

    op: str = "add"
    left: Metric = None  # type: ignore[assignment]
    right: Metric = None  # type: ignore[assignment]

    args = (("left", METRIC), ("right", METRIC))

    def __post_init__(self):
        if self.op not in _OP_TOKENS:
            raise BindError(f"unknown arithmetic op: {self.op!r}")
        super().__post_init__()
        if self.op == "pow" and not isinstance(self.right, ScalarLiteral):
            raise BindError("the exponent of ** must be a scalar literal")

    @property
    def tag(self):
        return self.op

    def default_names(self):
        return (self.left.names()[0] + _OP_TOKENS[self.op] + self.right.names()[0],)


@dataclass(frozen=True)
class Operation(Metric):
    """A metric that transforms a child metric.

    Operations cannot stand alone: constructing one without a child makes a
    template that only becomes computable once a metric is piped into it with
    ``metric | op``. Each names its value ``prefix`` plus its child's name.
    """

    child: Metric | None = field(default=None, kw_only=True)

    prefix: ClassVar[str] = ""

    def default_names(self):
        if self.child is None:
            _no_child(self)
        return (self.prefix + self.child.names()[0],)


@dataclass(frozen=True)
class Distribution(Operation):
    """Per-value share of the child within each slice, summing to 1."""

    over: str = ""

    tag = "distribution"
    args = (("over", DIM), ("child", METRIC))
    prefix = "distribution_of_"


@dataclass(frozen=True)
class _ChangeOperation(Operation):
    """Shared shape of the two change-versus-baseline operations."""

    condition: str = ""
    baseline: Cell = None

    args = (("condition", DIM), ("baseline", CELL), ("child", METRIC))


@dataclass(frozen=True)
class PercentChange(_ChangeOperation):
    """(value / baseline value - 1) * 100 within each slice; baseline rows are 0."""

    tag = "percent_change"
    prefix = "pct_change_of_"


@dataclass(frozen=True)
class AbsoluteChange(_ChangeOperation):
    """value - baseline value within each slice; baseline rows are 0."""

    tag = "absolute_change"
    prefix = "abs_change_of_"


@dataclass(frozen=True)
class Bootstrap(Operation):
    """Standard error across metrics recomputed on resampled tables."""

    n_rep: int = 100
    seed: int = 0

    tag = "bootstrap"
    args = (("n_rep", COUNT), ("seed", SEED), ("child", METRIC))
    prefix = "se_"

    def draw_columns(self, split_by) -> list[str]:
        """The columns both backends order each slice's rows by before drawing.

        They are the columns the child reads, less ``split_by``, by name.
        """
        return sorted(columns_read(self.child) - set(split_by))


@dataclass(frozen=True)
class Jackknife(Operation):
    """Delete-one-unit standard error over the distinct values of a column."""

    unit: str = ""

    tag = "jackknife"
    args = (("unit", COLUMN), ("child", METRIC))
    prefix = "se_"


def as_metric(value) -> Metric:
    if isinstance(value, Metric):
        return value
    if _real(value):
        return ScalarLiteral(float(value))
    raise BindError(f"cannot use {value!r} as a metric")


def combine(op: str, left, right) -> Composite:
    """Build an arithmetic composite; shape checks happen at evaluation."""
    return Composite(op=op, left=as_metric(left), right=as_metric(right))


def pipe(metric: Metric, op: Operation) -> Metric:
    """Attach ``metric`` as the child of an operation template."""
    if not isinstance(op, Operation):
        raise BindError(f"can only pipe into an operation, not {type(op).__name__}")
    if op.child is not None:
        raise BindError("operation already has a child metric")
    return dataclasses.replace(op, child=metric)


def walk(metric: Metric):
    """Yield every node of the tree, preorder."""
    yield metric
    for child in metric.children():
        yield from walk(child)


def columns_read(metric: Metric) -> set[str]:
    """Every input column the tree reads: the names ``bind`` checks, less ``split_by``."""
    return {name for node in walk(metric) for name in node.reads()}


def split_arg(split_by) -> tuple[str, ...]:
    """``split_by`` as a tuple; BindError unless it is a list or tuple of column names."""
    if not isinstance(split_by, (list, tuple)) or not all(isinstance(d, str) for d in split_by):
        raise BindError(f"split_by must be a list or tuple of column names, got {split_by!r}")
    return tuple(split_by)


def bind(metric: Metric, split_by, columns=None) -> tuple[str, ...]:
    """Check a tree against its split and, when given, the input's columns.

    ``columns`` is the input's column names, or its schema (``Table.schema``).
    Each child is checked at the split it is evaluated at, so a distribution
    or change adds its dimension. Raises ``UnknownColumn`` for a column missing
    from ``columns``, ``TypeMismatch`` for a numeric aggregate over a text
    column of the schema, and ``BindError`` for a non-metric, a ``split_by``
    other than a list or tuple of names, a repeated dimension, an operation
    without a child, or an output value name that equals one of its key
    columns. A tree that passed at a split is not walked again to check it at
    that split without ``columns``.
    Returns the computed frame's key columns.
    """
    if not isinstance(metric, Metric):
        raise BindError(f"expected a metric, got {metric!r}")
    split_by = split_arg(split_by)
    kinds = columns if isinstance(columns, Mapping) else {}

    def read(name: str):
        if columns is not None and name not in columns:
            raise UnknownColumn(f"no such column: {name!r}")

    def visit(node: Metric, split: tuple[str, ...]):
        if isinstance(node, Operation) and node.child is None:
            _no_child(node)
        for name in node.reads():
            read(name)
        if isinstance(node, _LeafAggregate) and node.tag != "count" and kinds.get(node.var) == TEXT:
            raise TypeMismatch(f"cannot aggregate text column {node.var!r} with {node.tag}")
        for dim in node.dims():
            if dim in split:
                raise BindError(f"{type(node).__name__} over {dim!r}, which is already a key")
            split += (dim,)
        for child in node.children():
            visit(child, split)

    checked = metric.__dict__.setdefault("_checked_splits", set())
    keys = split_by + metric.extra_dims()
    if columns is None and split_by in checked:  # a tree never changes
        return keys
    for i, dim in enumerate(split_by):
        read(dim)
        if dim in split_by[:i]:
            raise BindError(f"split_by names {dim!r} twice")
    visit(metric, split_by)
    if metric.names()[0] in keys:
        raise BindError(f"output column {metric.names()[0]!r} is already a key column")
    checked.add(split_by)
    return keys

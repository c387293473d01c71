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
import re
from dataclasses import dataclass, field
from typing import ClassVar

from .errors import BindError, NameArityError, UnknownColumn
from .table import Cell

_NAME_OK = re.compile(r"[a-z0-9_]+")


def sanitize_name(text: str) -> str:
    """Lowercase and squash anything outside [a-z0-9_] to underscores."""
    out = re.sub(r"[^a-z0-9_]+", "_", text.lower())
    return out or "_"


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


@dataclass(frozen=True)
class Metric:
    """Base node. Subclasses define default names and extra dims.

    A metric has one value per slice, so ``names()`` is a 1-tuple; only a
    jointly computed list of metrics gives a frame several value columns.
    """

    names_override: tuple[str, ...] | None = field(default=None, kw_only=True)

    # -- naming ------------------------------------------------------------

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
        return dataclasses.replace(self, names_override=names)

    # -- structure ----------------------------------------------------------

    def extra_dims(self) -> tuple[str, ...]:
        """Key columns this metric adds to the output beyond split_by."""
        return ()

    def reads(self) -> tuple[str, ...]:
        """Input columns this node itself reads, not counting its children."""
        return ()

    def children(self) -> tuple["Metric", ...]:
        return ()

    def serialize(self) -> str:
        raise NotImplementedError

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


@dataclass(frozen=True)
class ScalarLiteral(Metric):
    """Constant that broadcasts across every slice of the other side."""

    value: float

    def default_names(self):
        return (_number_token(self.value),)

    def serialize(self):
        return _with_names(self, f"const(value={self.value!r})")


@dataclass(frozen=True)
class _LeafAggregate(Metric):
    """Aggregate of one column within a slice."""

    var: str

    kind: ClassVar[str] = ""  # fixed per subclass

    def default_names(self):
        return (f"{self.kind}_{sanitize_name(self.var)}",)

    def reads(self):
        return (self.var,)

    def serialize(self):
        return _with_names(self, f"{self.kind}(var={self.var})")


@dataclass(frozen=True)
class Sum(_LeafAggregate):
    kind: ClassVar[str] = "sum"


@dataclass(frozen=True)
class Count(_LeafAggregate):
    """Counts non-null cells; the only aggregate defined on text columns."""

    kind: ClassVar[str] = "count"


@dataclass(frozen=True)
class Mean(_LeafAggregate):
    kind: ClassVar[str] = "mean"


@dataclass(frozen=True)
class Min(_LeafAggregate):
    kind: ClassVar[str] = "min"


@dataclass(frozen=True)
class Max(_LeafAggregate):
    kind: ClassVar[str] = "max"


@dataclass(frozen=True)
class Variance(_LeafAggregate):
    """Unbiased (n-1) sample variance; NaN when fewer than two values."""

    kind: ClassVar[str] = "variance"


@dataclass(frozen=True)
class StdDev(_LeafAggregate):
    kind: ClassVar[str] = "sd"


@dataclass(frozen=True)
class Quantile(_LeafAggregate):
    """Quantile with linear interpolation between order statistics."""

    q: float = 0.5
    kind: ClassVar[str] = "quantile"

    def __post_init__(self):
        if not 0.0 <= self.q <= 1.0:
            raise BindError(f"quantile q must be in [0, 1], got {self.q}")

    def default_names(self):
        return (f"quantile_{sanitize_name(self.var)}_{_number_token(self.q)}",)

    def serialize(self):
        return _with_names(self, f"quantile(var={self.var}, q={self.q!r})")


_OP_TOKENS = {"add": "_add_", "sub": "_sub_", "mul": "_mul_", "div": "_div_", "pow": "_pow_"}


@dataclass(frozen=True)
class Composite(Metric):
    """Pointwise arithmetic over two metrics; scalars broadcast."""

    op: str = "add"
    left: Metric = None  # type: ignore[assignment]
    right: Metric = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.op not in _OP_TOKENS:
            raise BindError(f"unknown arithmetic op: {self.op!r}")
        if self.op == "pow" and not isinstance(self.right, ScalarLiteral):
            raise BindError("the exponent of ** must be a scalar literal")

    def default_names(self):
        return (self.left.names()[0] + _OP_TOKENS[self.op] + self.right.names()[0],)

    def extra_dims(self):
        dims = list(self.left.extra_dims())
        dims.extend(d for d in self.right.extra_dims() if d not in dims)
        return tuple(dims)

    def children(self):
        return (self.left, self.right)

    def serialize(self):
        body = f"{self.op}(left={self.left.serialize()}, right={self.right.serialize()})"
        return _with_names(self, body)


@dataclass(frozen=True)
class Operation(Metric):
    """A metric that transforms a child metric.

    Operations cannot stand alone: constructing one without a child makes a
    template that only becomes computable once a metric is piped into it with
    ``metric | op``.
    """

    child: Metric | None = field(default=None, kw_only=True)

    def _require_child(self) -> Metric:
        if self.child is None:
            raise BindError(f"{type(self).__name__} must modify another metric; pipe one in first")
        return self.child

    def name_prefix(self) -> str:
        raise NotImplementedError

    def default_names(self):
        return (self.name_prefix() + self._require_child().names()[0],)

    def extra_dims(self):
        return self._require_child().extra_dims()

    def children(self):
        return (self.child,) if self.child is not None else ()

    def _child_serial(self) -> str:
        return self._require_child().serialize()


@dataclass(frozen=True)
class Distribution(Operation):
    """Per-value share of the child within each slice, summing to 1."""

    over: str = ""

    def name_prefix(self):
        return "distribution_of_"

    def extra_dims(self):
        return (self.over,) + self._require_child().extra_dims()

    def reads(self):
        return (self.over,)

    def serialize(self):
        return _with_names(self, f"distribution(over={self.over}, child={self._child_serial()})")


@dataclass(frozen=True)
class _ChangeOperation(Operation):
    """Shared shape of the two change-versus-baseline operations."""

    condition: str = ""
    baseline: Cell = None

    def extra_dims(self):
        return (self.condition,) + self._require_child().extra_dims()

    def reads(self):
        return (self.condition,)

    def serialize(self):
        return _with_names(
            self,
            f"{self._serial_tag}(condition={self.condition},"
            f" baseline={serialize_cell(self.baseline)}, child={self._child_serial()})",
        )


@dataclass(frozen=True)
class PercentChange(_ChangeOperation):
    """(value / baseline value - 1) * 100 within each slice; baseline rows are 0."""

    _serial_tag = "percent_change"

    def name_prefix(self):
        return "pct_change_of_"


@dataclass(frozen=True)
class AbsoluteChange(_ChangeOperation):
    """value - baseline value within each slice; baseline rows are 0."""

    _serial_tag = "absolute_change"

    def name_prefix(self):
        return "abs_change_of_"


@dataclass(frozen=True)
class Bootstrap(Operation):
    """Standard error across metrics recomputed on resampled tables."""

    n_rep: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n_rep < 1:
            raise BindError(f"n_rep must be positive, got {self.n_rep}")

    def name_prefix(self):
        return "se_"

    def serialize(self):
        return _with_names(
            self,
            f"bootstrap(n_rep={self.n_rep}, seed={self.seed}, child={self._child_serial()})",
        )


@dataclass(frozen=True)
class Jackknife(Operation):
    """Delete-one-unit standard error over the distinct values of a column."""

    unit: str = ""

    def name_prefix(self):
        return "se_"

    def reads(self):
        return (self.unit,)

    def serialize(self):
        return _with_names(self, f"jackknife(unit={self.unit}, child={self._child_serial()})")


def _with_names(m: Metric, body: str) -> str:
    if m.names_override is None:
        return body
    rendered = ",".join(repr(n) for n in m.names_override)
    return f"named(names=[{rendered}], child={body})"


def as_metric(value) -> Metric:
    if isinstance(value, Metric):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ScalarLiteral(float(value))
    raise TypeError(f"cannot use {value!r} as a metric")


def combine(op: str, left, right) -> Composite:
    """Build an arithmetic composite; shape checks happen at evaluation."""
    return Composite(op=op, left=as_metric(left), right=as_metric(right))


def pipe(metric: Metric, op: Operation) -> Metric:
    """Attach ``metric`` as the child of an operation template."""
    if not isinstance(op, Operation):
        raise TypeError(f"can only pipe into an operation, not {type(op).__name__}")
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


def bind(metric: Metric, split_by, columns=None) -> tuple[str, ...]:
    """Check a tree against its split and, when given, the input's columns.

    Each child is checked at the split it is evaluated at, so a distribution
    or change adds its dimension. Raises ``UnknownColumn`` for a column missing
    from ``columns``, and ``BindError`` for a repeated dimension, an operation
    without a child, or a value name that is a key column in the output or in
    an operation's child frame, where SQL selects both as columns of one
    query.
    Returns the computed frame's key columns.
    """

    def read(name: str):
        if columns is not None and name not in columns:
            raise UnknownColumn(f"no such column: {name!r}")

    def check_names(node: Metric, split: tuple[str, ...]):
        name = node.names()[0]
        if name in split + node.extra_dims():
            raise BindError(f"output column {name!r} is already a key column")

    def visit(node: Metric, split: tuple[str, ...]):
        if isinstance(node, Operation) and node.child is None:
            raise BindError(f"{type(node).__name__} must modify another metric; pipe one in first")
        for name in node.reads():
            read(name)
        if isinstance(node, (Distribution, _ChangeOperation)):
            dim = node.over if isinstance(node, Distribution) else node.condition
            if dim in split:
                raise BindError(f"{type(node).__name__} over {dim!r}, which is already a key")
            split += (dim,)
        if isinstance(node, Operation):
            check_names(node.child, split)
        for child in node.children():
            visit(child, split)

    split_by = tuple(split_by)
    for i, dim in enumerate(split_by):
        read(dim)
        if dim in split_by[:i]:
            raise BindError(f"split_by names {dim!r} twice")
    visit(metric, split_by)
    check_names(metric, split_by)
    return split_by + metric.extra_dims()

"""Textual front end for building metric trees.

Grammar (pipe binds loosest, then + -, then * /, then **)::

    program  = pipeline (";" pipeline)* [";"]
    pipeline = expr rename? ("|" call rename?)*
    expr     = term (("+" | "-") term)*
    term     = factor (("*" | "/") factor)*
    factor   = atom ("**" number)?
    atom     = number | call | "(" pipeline ")"
    call     = name "(" [arg ("," arg)*] ")"
    arg      = name | number | string
    rename   = "as" string

Column names are bare identifiers; string literals are reserved for baseline
values and renames, so ``percent_change(experiment, "control")`` reads the
experiment column and compares against the value "control". Operation calls
cannot stand alone: they must have a metric piped into them.

``parse -> print_program -> parse`` is a fixed point for every valid program.
"""

from __future__ import annotations

import dataclasses
import difflib
import re
from dataclasses import dataclass

from . import metrics as m
from .errors import DslError

DEFAULT_N_REP = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?|\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"(\\.|[^"\\])*")
  | (?P<op>\*\*|[|+\-*/(),;])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # number | name | string | op | end
    text: str
    line: int
    col: int
    offset: int


def tokenize(src: str) -> list[Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(src):
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise DslError(f"unexpected character {src[pos]!r}", line, col)
        kind = match.lastgroup
        text = match.group()
        if kind != "ws":
            tokens.append(Token(kind, text, line, col, pos))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = match.end()
    tokens.append(Token("end", "", line, col, len(src)))
    return tokens


@dataclass(frozen=True)
class DslProgram:
    """Parsed metrics plus the source span each one came from."""

    metrics: tuple[m.Metric, ...]
    spans: tuple[tuple[int, int], ...]
    source: str


class _Parser:
    def __init__(self, src: str, seed: int):
        self.src = src
        self.tokens = tokenize(src)
        self.pos = 0
        self.seed = seed

    # -- token plumbing ------------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        tok = self.tok
        raise DslError(message, tok.line, tok.col, expected)

    def expect_op(self, text: str) -> Token:
        if self.tok.kind == "op" and self.tok.text == text:
            return self.advance()
        found = self.tok.text or "end of input"
        self.fail(f"found {found!r}", expected=(repr(text),))

    def at_op(self, *texts: str) -> bool:
        return self.tok.kind == "op" and self.tok.text in texts

    # -- grammar --------------------------------------------------------------

    def parse_program(self) -> DslProgram:
        metrics, spans = [], []
        while True:
            start = self.tok.offset
            metrics.append(self.parse_pipeline())
            spans.append((start, self.tok.offset))
            if self.at_op(";"):
                self.advance()
                if self.tok.kind == "end":
                    break
                continue
            if self.tok.kind == "end":
                break
            self.fail(
                f"found {self.tok.text!r} after a complete metric",
                expected=("'|'", "';'", "'+'", "'-'", "'*'", "'/'", "end of input"),
            )
        return DslProgram(tuple(metrics), tuple(spans), self.src)

    def parse_pipeline(self) -> m.Metric:
        metric = self.parse_expr()
        metric = self.maybe_rename(metric)
        while self.at_op("|"):
            self.advance()
            if self.tok.kind != "name":
                self.fail("the right side of '|' must be an operation call",
                          expected=("operation name",))
            tok = self.tok
            node = self.parse_call()
            if not isinstance(node, m.Operation):
                raise DslError(
                    f"{tok.text} is not an operation and cannot be piped onto a metric",
                    tok.line, tok.col,
                )
            metric = m.pipe(metric, node)
            metric = self.maybe_rename(metric)
        return metric

    def maybe_rename(self, metric: m.Metric) -> m.Metric:
        if self.tok.kind == "name" and self.tok.text == "as":
            self.advance()
            if self.tok.kind != "string":
                self.fail("rename needs a quoted name", expected=("string",))
            name = _unquote(self.advance().text)
            return metric.set_names([name])
        return metric

    def parse_expr(self) -> m.Metric:
        left = self.parse_term()
        while self.at_op("+", "-"):
            op = "add" if self.advance().text == "+" else "sub"
            left = m.combine(op, left, self.parse_term())
        return left

    def parse_term(self) -> m.Metric:
        left = self.parse_factor()
        while self.at_op("*", "/"):
            op = "mul" if self.advance().text == "*" else "div"
            left = m.combine(op, left, self.parse_factor())
        return left

    def parse_factor(self) -> m.Metric:
        atom = self.parse_atom()
        if self.at_op("**"):
            self.advance()
            if self.tok.kind != "number":
                self.fail("the exponent of ** must be a number", expected=("number",))
            return m.combine("pow", atom, _number(self.advance().text))
        return atom

    def parse_atom(self) -> m.Metric:
        tok = self.tok
        if tok.kind == "number":
            self.advance()
            return m.ScalarLiteral(_number(tok.text))
        if tok.kind == "name":
            node = self.parse_call()
            if isinstance(node, m.Operation):
                raise DslError(
                    f"{tok.text} must modify another metric; write 'metric | {tok.text}(...)'",
                    tok.line, tok.col,
                )
            return node
        if self.at_op("("):
            self.advance()
            inner = self.parse_pipeline()
            self.expect_op(")")
            return inner
        found = tok.text or "end of input"
        self.fail(f"found {found!r}", expected=("number", "function call", "'('"))

    def parse_call(self) -> m.Metric:
        name_tok = self.advance()
        builder = _BUILDERS.get(name_tok.text)
        if builder is None:
            hint = difflib.get_close_matches(name_tok.text, _BUILDERS, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            raise DslError(
                f"unknown function {name_tok.text!r}{extra}", name_tok.line, name_tok.col
            )
        self.expect_op("(")
        args: list[Token] = []
        if not self.at_op(")"):
            while True:
                if self.tok.kind not in ("name", "number", "string"):
                    self.fail("bad argument", expected=("column name", "number", "string"))
                args.append(self.advance())
                if self.at_op(","):
                    self.advance()
                    continue
                break
        self.expect_op(")")
        return builder(self, name_tok, args)


def _number(text: str) -> float:
    return float(text)


def _unquote(text: str) -> str:
    return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _arg_error(tok: Token, message: str):
    raise DslError(message, tok.line, tok.col)


def _want_column(name_tok: Token, args: list[Token], i: int) -> str:
    if len(args) <= i or args[i].kind != "name":
        _arg_error(name_tok, f"{name_tok.text} needs a column name at argument {i + 1}")
    return args[i].text


def _want_count(name_tok: Token, args: list[Token], n: int):
    if len(args) != n:
        _arg_error(name_tok, f"{name_tok.text} takes {n} argument(s), got {len(args)}")


def _leaf(cls):
    def build(parser: _Parser, name_tok: Token, args: list[Token]) -> m.Metric:
        _want_count(name_tok, args, 1)
        return cls(_want_column(name_tok, args, 0))

    return build


def _build_quantile(parser, name_tok, args):
    _want_count(name_tok, args, 2)
    var = _want_column(name_tok, args, 0)
    if args[1].kind != "number":
        _arg_error(args[1], "quantile needs a numeric q in [0, 1]")
    q = _number(args[1].text)
    if not 0.0 <= q <= 1.0:
        _arg_error(args[1], f"quantile q must be in [0, 1], got {q}")
    return m.Quantile(var, q)


def _build_distribution(parser, name_tok, args):
    _want_count(name_tok, args, 1)
    return m.Distribution(_want_column(name_tok, args, 0))


def _baseline_cell(tok: Token):
    if tok.kind == "string":
        return _unquote(tok.text)
    if tok.kind == "number":
        if not tok.text.isdecimal():
            return _number(tok.text)
        try:
            return int(tok.text)  # exact: a float would round past 2**53
        except ValueError:  # more digits than int() converts
            _arg_error(tok, "baseline is too large")
    _arg_error(tok, "baseline must be a quoted string or a number")


def _change(cls):
    def build(parser: _Parser, name_tok: Token, args: list[Token]) -> m.Metric:
        _want_count(name_tok, args, 2)
        condition = _want_column(name_tok, args, 0)
        return cls(condition, _baseline_cell(args[1]))

    return build


def _build_bootstrap(parser: _Parser, name_tok, args):
    if len(args) > 1:
        _arg_error(name_tok, f"bootstrap takes at most 1 argument, got {len(args)}")
    n_rep = DEFAULT_N_REP
    if args:
        if args[0].kind != "number" or not args[0].text.isdecimal():
            _arg_error(args[0], "bootstrap replicate count must be an integer literal")
        try:
            n_rep = int(args[0].text)
        except ValueError:  # more digits than int() converts
            _arg_error(args[0], "bootstrap replicate count is too large")
        if n_rep < 1:
            _arg_error(args[0], f"bootstrap replicate count must be positive, got {n_rep}")
    return m.Bootstrap(n_rep, seed=parser.seed)


def _build_jackknife(parser, name_tok, args):
    _want_count(name_tok, args, 1)
    return m.Jackknife(_want_column(name_tok, args, 0))


_BUILDERS = {
    "sum": _leaf(m.Sum),
    "count": _leaf(m.Count),
    "mean": _leaf(m.Mean),
    "min": _leaf(m.Min),
    "max": _leaf(m.Max),
    "variance": _leaf(m.Variance),
    "sd": _leaf(m.StdDev),
    "quantile": _build_quantile,
    "distribution": _build_distribution,
    "percent_change": _change(m.PercentChange),
    "absolute_change": _change(m.AbsoluteChange),
    "bootstrap": _build_bootstrap,
    "jackknife": _build_jackknife,
}


def parse(src: str, seed: int = 0) -> DslProgram:
    """Parse a program of one or more metric pipelines separated by ';'.

    ``seed`` is bound into every bootstrap node so runs are reproducible.
    """
    return _Parser(src, seed).parse_program()


def set_n_rep(metric: m.Metric, n_rep: int) -> m.Metric:
    """Rebuild the tree with every bootstrap node using the given n_rep."""
    if isinstance(metric, m.Bootstrap):
        child = set_n_rep(metric.child, n_rep) if metric.child else None
        return dataclasses.replace(metric, n_rep=n_rep, child=child)
    if isinstance(metric, m.Operation) and metric.child is not None:
        return dataclasses.replace(metric, child=set_n_rep(metric.child, n_rep))
    if isinstance(metric, m.Composite):
        return dataclasses.replace(
            metric, left=set_n_rep(metric.left, n_rep), right=set_n_rep(metric.right, n_rep)
        )
    return metric


# -- pretty printing -----------------------------------------------------------

_LEVEL_PIPE, _LEVEL_ADD, _LEVEL_MUL, _LEVEL_POW, _LEVEL_ATOM = 0, 1, 2, 3, 4
_OP_LEVEL = {"add": _LEVEL_ADD, "sub": _LEVEL_ADD, "mul": _LEVEL_MUL, "div": _LEVEL_MUL}
_OP_TEXT = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def print_program(program: DslProgram) -> str:
    return "; ".join(print_metric(metric) for metric in program.metrics)


def print_metric(metric: m.Metric) -> str:
    return _print(metric, _LEVEL_PIPE)


def _print(metric: m.Metric, min_level: int) -> str:
    text, level = _render(metric)
    if level < min_level:
        return f"({text})"
    return text


def _render(metric: m.Metric) -> tuple[str, int]:
    rename = ""
    if metric.names_override is not None:
        rename = f' as "{_escape(metric.names_override[0])}"'
    if isinstance(metric, m.ScalarLiteral):
        return repr(metric.value) + rename, _LEVEL_PIPE if rename else _LEVEL_ATOM
    if isinstance(metric, m._LeafAggregate):
        if isinstance(metric, m.Quantile):
            text = f"quantile({metric.var}, {metric.q!r})"
        else:
            text = f"{metric.kind}({metric.var})"
        return text + rename, _LEVEL_PIPE if rename else _LEVEL_ATOM
    if isinstance(metric, m.Composite):
        if metric.op == "pow":
            base = _print(metric.left, _LEVEL_ATOM)
            assert isinstance(metric.right, m.ScalarLiteral)
            text = f"{base} ** {metric.right.value!r}"
            return text + rename, _LEVEL_PIPE if rename else _LEVEL_POW
        level = _OP_LEVEL[metric.op]
        left = _print(metric.left, level)
        right = _print(metric.right, level + 1)
        text = f"{left} {_OP_TEXT[metric.op]} {right}"
        return text + rename, _LEVEL_PIPE if rename else level
    if isinstance(metric, m.Operation):
        child = metric.child
        if child is None:
            raise ValueError(f"cannot print a childless {type(metric).__name__}")
        text = f"{_print(child, _LEVEL_PIPE)} | {_call_text(metric)}"
        return text + rename, _LEVEL_PIPE
    raise TypeError(f"cannot print {type(metric).__name__}")


def _call_text(node: m.Operation) -> str:
    if isinstance(node, m.Distribution):
        return f"distribution({node.over})"
    if isinstance(node, m.PercentChange):
        return f"percent_change({node.condition}, {_cell_text(node.baseline)})"
    if isinstance(node, m.AbsoluteChange):
        return f"absolute_change({node.condition}, {_cell_text(node.baseline)})"
    if isinstance(node, m.Bootstrap):
        return f"bootstrap({node.n_rep})"
    if isinstance(node, m.Jackknife):
        return f"jackknife({node.unit})"
    raise TypeError(f"cannot print {type(node).__name__}")


def _cell_text(cell) -> str:
    if isinstance(cell, str):
        return f'"{_escape(cell)}"'
    if cell is None:
        raise ValueError("a null baseline has no DSL spelling")
    return repr(cell)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')

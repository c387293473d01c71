"""Textual front end for building metric trees.

Grammar (pipe binds loosest, then + -, then * /, then **)::

    program  = pipeline (";" pipeline)* [";"]
    pipeline = expr rename? ("|" call rename?)*
    expr     = term (("+" | "-") term)*
    term     = factor (("*" | "/") factor)*
    factor   = atom ("**" signed)?
    atom     = signed | call | "(" pipeline ")"
    call     = name "(" [arg ("," arg)*] ")"
    arg      = name | signed | string
    signed   = ["-"] number
    rename   = "as" string

Column names are bare identifiers; string literals are reserved for baseline
values and renames, so ``percent_change(experiment, "control")`` reads the
experiment column and compares against the value "control". Operation calls
cannot stand alone: they must have a metric piped into them. A leading ``-``
belongs to the number literal it precedes, so ``-1.0 ** 2`` is 1.0 and
``sum(x) - -1`` subtracts negative one.

``parse -> print_program -> parse`` is a fixed point for every valid program.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import re
from dataclasses import dataclass

from . import metrics as m
from .errors import BindError, DslError

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

    def signed_number(self) -> Token | None:
        """Consume a number, folding a leading '-' into its text; None if none is next."""
        if self.tok.kind == "number":
            return self.advance()
        if self.at_op("-") and self.tokens[self.pos + 1].kind == "number":
            minus = self.advance()
            return Token("number", "-" + self.advance().text, minus.line, minus.col,
                         minus.offset)
        return None

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
            exponent = self.signed_number()
            if exponent is None:
                self.fail("the exponent of ** must be a number", expected=("number",))
            return m.combine("pow", atom, float(exponent.text))
        return atom

    def parse_atom(self) -> m.Metric:
        tok = self.tok
        number = self.signed_number()
        if number is not None:
            return m.ScalarLiteral(float(number.text))
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
        cls = _BUILDERS.get(name_tok.text)
        if cls is None:
            hint = difflib.get_close_matches(name_tok.text, _BUILDERS, n=1)
            extra = f"; did you mean {hint[0]!r}?" if hint else ""
            raise DslError(
                f"unknown function {name_tok.text!r}{extra}", name_tok.line, name_tok.col
            )
        self.expect_op("(")
        args: list[Token] = []
        if not self.at_op(")"):
            while True:
                arg = self.signed_number()
                if arg is None and self.tok.kind in ("name", "string"):
                    arg = self.advance()
                if arg is None:
                    self.fail("bad argument", expected=("column name", "number", "string"))
                args.append(arg)
                if self.at_op(","):
                    self.advance()
                    continue
                break
        self.expect_op(")")
        return self.build(cls, name_tok, args)

    def build(self, cls, call: Token, args: list[Token]) -> m.Metric:
        """Read each written argument by its token's kind, check it by its role; bind the seed."""
        written = _WRITTEN[cls.tag]
        least = sum(role != m.COUNT for _, role in written)
        if not least <= len(args) <= len(written):
            most = len(written)
            want = str(most) if least == most else f"{least} to {most}"
            _arg_error(call, f"{call.text} takes {want} argument(s), got {len(args)}")
        values = {}
        for i, ((f, role), tok) in enumerate(zip(written, args)):
            if tok.kind not in _KINDS[role]:
                if role == m.CELL:
                    _arg_error(tok, "baseline must be a quoted string or a number")
                _arg_error(call, f"{call.text} needs a column name at argument {i + 1}")
            try:
                values[f] = _value(tok, role)
                m.check_arg(cls.tag, f, role, values[f])
            except ValueError:  # more digits than int() converts
                _arg_error(tok, f"{call.text} {f} is too large")
            except BindError as err:
                _arg_error(tok, str(err))
        values.update((f, self.seed) for f, role in cls.args if role == m.SEED)
        return cls(**values)


def _unquote(text: str) -> str:
    return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _arg_error(tok: Token, message: str):
    raise DslError(message, tok.line, tok.col)


def _value(tok: Token, role: str):
    """A name's text, a string's contents, or a number: an int where written
    as an integer (exact past 2**53), else a float, as a PROB reads each."""
    if tok.kind == "name":
        return tok.text
    if tok.kind == "string":
        return _unquote(tok.text)
    if role == m.PROB or not tok.text.removeprefix("-").isdecimal():
        return float(tok.text)
    return int(tok.text)


# The token kinds a call argument of each role may be; ``metrics.check_arg``
# then rules on the value read. SEED and METRIC are never written.
_KINDS = {
    m.COLUMN: ("name",),
    m.DIM: ("name",),
    m.CELL: ("string", "number"),
    m.PROB: ("name", "string", "number"),
    m.COUNT: ("name", "string", "number"),
}


def _kinds(cls):
    """Every subclass of ``cls`` that declares a tag of its own, preorder."""
    for sub in cls.__subclasses__():
        if isinstance(sub.__dict__.get("tag"), str):
            yield sub
        yield from _kinds(sub)


# Every node kind is a call named by its tag, except the number literal.
_BUILDERS = {cls.tag: cls for cls in _kinds(m.Metric) if cls is not m.ScalarLiteral}

# Each call's written arguments, in order; an omitted COUNT takes its default.
_WRITTEN = {
    tag: tuple((f, role) for f, role in cls.args if role in _KINDS)
    for tag, cls in _BUILDERS.items()
}


def parse(src: str, seed: int = 0) -> DslProgram:
    """Parse a program of one or more metric pipelines separated by ';'.

    ``seed`` is bound into every bootstrap node so runs are reproducible.
    """
    return _Parser(src, seed).parse_program()


def set_n_rep(metric: m.Metric, n_rep: int) -> m.Metric:
    """Rebuild the tree with every bootstrap node using the given n_rep."""
    return metric.map(lambda node: dataclasses.replace(node, n_rep=n_rep)
                      if isinstance(node, m.Bootstrap) else node)


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
        return _cell_text(metric.value) + rename, _LEVEL_PIPE if rename else _LEVEL_ATOM
    if isinstance(metric, m.Composite):
        if metric.op == "pow":
            base = _print(metric.left, _LEVEL_ATOM)
            assert isinstance(metric.right, m.ScalarLiteral)
            text = f"{base} ** {_cell_text(metric.right.value)}"
            return text + rename, _LEVEL_PIPE if rename else _LEVEL_POW
        level = _OP_LEVEL[metric.op]
        left = _print(metric.left, level)
        right = _print(metric.right, level + 1)
        text = f"{left} {_OP_TEXT[metric.op]} {right}"
        return text + rename, _LEVEL_PIPE if rename else level
    if not isinstance(metric, m.Operation):
        return _call_text(metric) + rename, _LEVEL_PIPE if rename else _LEVEL_ATOM
    if metric.child is None:
        raise ValueError(f"cannot print a childless {type(metric).__name__}")
    text = f"{_print(metric.child, _LEVEL_PIPE)} | {_call_text(metric)}"
    return text + rename, _LEVEL_PIPE


def _call_text(node: m.Metric) -> str:
    args = ", ".join(_PRINTERS[role](getattr(node, f)) for f, role in _WRITTEN[node.tag])
    return f"{node.tag}({args})"


def _cell_text(cell) -> str:
    """A baseline or constant as the DSL reads it back: inf overflows as 1e999."""
    if isinstance(cell, str):
        return f'"{_escape(cell)}"'
    if cell is None:
        raise ValueError("a null baseline has no DSL spelling")
    if cell != cell:
        raise ValueError("a NaN has no DSL spelling")
    if cell in (math.inf, -math.inf):  # not isinf: an int may exceed a float
        return "1e999" if cell > 0 else "-1e999"
    return repr(cell)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


# How a call argument of each role is printed; the inverse of _value.
_PRINTERS = {m.COLUMN: str, m.DIM: str, m.CELL: _cell_text, m.PROB: repr, m.COUNT: str}

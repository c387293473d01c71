"""Columnar in-memory tables with CSV ingestion, grouping, and row resampling.

Cells are plain Python values: int, float, str, or None (a null). Tables are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import EmptyInput, ParseError, SchemaError, UnknownColumn

Cell = int | float | str | None

_INT_RE = re.compile(r"[+-]?[0-9]+")
_FLOAT_RE = re.compile(r"[+-]?([0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)([eE][+-]?[0-9]+)?")


def parse_cell(text: str) -> Cell:
    """Parse one CSV field: int first, then float, falling back to text.

    The empty string is a null. 'nan'/'inf' style tokens stay text so that
    dimension values are always groupable.
    """
    if text == "":
        return None
    if _INT_RE.fullmatch(text):
        return int(text)
    if _FLOAT_RE.fullmatch(text):
        return float(text)
    return text


@dataclass(frozen=True)
class Column:
    name: str
    values: tuple[Cell, ...]


class Table:
    """Ordered collection of equal-length named columns."""

    def __init__(self, columns: list[Column] | tuple[Column, ...]):
        columns = tuple(columns)
        _check_names(col.name for col in columns)
        if columns:
            n = len(columns[0].values)
            for col in columns:
                if len(col.values) != n:
                    raise SchemaError(
                        f"column {col.name!r} has {len(col.values)} cells, expected {n}"
                    )
            self._row_count = n
        else:
            self._row_count = 0
        self._columns = columns
        self._index = {col.name: i for i, col in enumerate(columns)}
        self._fingerprint: str | None = None

    @classmethod
    def from_dict(cls, data: dict[str, list[Cell] | tuple[Cell, ...]]) -> "Table":
        return cls([Column(name, tuple(values)) for name, values in data.items()])

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self._columns)

    @property
    def row_count(self) -> int:
        return self._row_count

    def column(self, name: str) -> Column:
        i = self._index.get(name)
        if i is None:
            raise UnknownColumn(f"no such column: {name!r}")
        return self._columns[i]

    def row(self, i: int) -> tuple[Cell, ...]:
        return tuple(col.values[i] for col in self._columns)

    def rows(self):
        for i in range(self._row_count):
            yield self.row(i)

    def take(self, indices: list[int] | tuple[int, ...]) -> "Table":
        """New table containing the given rows, in the given order."""
        return Table(
            [Column(col.name, tuple(col.values[i] for i in indices)) for col in self._columns]
        )

    def fingerprint(self) -> str:
        """128-bit content hash used as a cache key component."""
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            for col in self._columns:
                h.update(col.name.encode())
                h.update(b"\x00")
                h.update("\x1f".join(_cell_token(v) for v in col.values).encode())
                h.update(b"\x00")
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self):
        return f"Table({self.row_count} rows, columns={list(self.column_names)})"


def _cell_token(v: Cell) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return "t" + repr(v)
    if isinstance(v, float):
        return "f" + repr(v)
    return "i" + repr(v)


def read_csv(source: bytes | io.BufferedIOBase, columns: Iterable[str] | None = None) -> Table:
    """Parse UTF-8 CSV with a header row into a typed Table.

    With ``columns``, only the header's columns named there are parsed, in
    header order, and names missing from the header are skipped. A table's
    row count comes from its columns, so when none is named the first column
    is kept. Either way the whole file is checked: ParseError (with the
    offending 1-based data row number) for a ragged row, then SchemaError for
    a duplicate or empty header name.
    """
    if isinstance(source, bytes):
        raw = source
    else:
        raw = source.read()
    text = raw.decode("utf-8-sig")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("CSV input is empty; a header row is required") from None
    keep = range(len(header))
    if columns is not None:
        wanted = set(columns)
        keep = [i for i in keep if header[i] in wanted] or keep[:1]
    cells: list[list[Cell]] = [[] for _ in keep]
    parsed = list(zip(cells, keep))
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ParseError(
                f"row {rownum} has {len(row)} fields, expected {len(header)}", row=rownum
            )
        for col, i in parsed:
            col.append(parse_cell(row[i]))
    _check_names(header)
    return Table([Column(header[i], tuple(col)) for col, i in parsed])


def _check_names(names) -> None:
    seen: set[str] = set()
    for name in names:
        if not name:
            raise SchemaError("column names must be non-empty")
        if name in seen:
            raise SchemaError(f"duplicate column name: {name!r}")
        seen.add(name)


def write_csv(table: Table) -> str:
    """Debug writer emitting the same CSV format read_csv accepts."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.column_names)
    for row in table.rows():
        writer.writerow([format_cell(v) for v in row])
    return out.getvalue()


def format_cell(v: Cell) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def group_rows(table: Table, split_by: list[str] | tuple[str, ...]) -> dict[tuple, list[int]]:
    """Row indices of each slice, keyed by tuples of dimension values.

    A key's cells follow ``split_by``; nulls group like ordinary values.
    Groups appear in first-appearance order and indices ascend within each
    group. An empty split produces a single group of every row under the
    empty key.
    """
    if not split_by:
        return {(): list(range(table.row_count))}
    groups: dict[tuple, list[int]] = {}
    for i, key in enumerate(zip(*(table.column(name).values for name in split_by))):
        groups.setdefault(key, []).append(i)
    return groups


def resample_with_replacement(table: Table, rng: random.Random) -> Table:
    """Draw row_count rows uniformly with replacement; deterministic per rng."""
    n = table.row_count
    if n == 0:
        raise EmptyInput("cannot resample an empty table")
    return table.take([rng.randrange(n) for _ in range(n)])

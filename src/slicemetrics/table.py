"""Columnar in-memory tables with CSV ingestion, grouping, and row resampling.

Cells are plain Python values: int, float, str, or None (a null). Tables are
immutable after construction and safe to share across threads.

Each column is converted at most once per table, on first use: to integer
codes (``Table.codes``), which make grouping integer arithmetic, and to
float64 values with null and text masks (``Table.floats``), which leaf
aggregates reduce. A table made by ``take`` gathers its source's filled
caches instead of converting again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
import re
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

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
        self._codes: dict[str, tuple[np.ndarray, int]] = {}
        self._floats: dict[str, tuple[np.ndarray, np.ndarray | None, np.ndarray | None]] = {}

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

    def take(self, indices) -> "Table":
        """New table containing the given rows, in the given order.

        The new table's caches are this table's filled caches, gathered.
        """
        idx = np.asarray(indices, dtype=np.intp)
        rows = idx.tolist()
        table = Table([Column(col.name, _gather(col.values, rows)) for col in self._columns])
        table._codes = {name: (codes[idx], n) for name, (codes, n) in self._codes.items()}
        table._floats = {name: tuple(None if a is None else a[idx] for a in arrays)
                         for name, arrays in self._floats.items()}
        return table

    def codes(self, name: str) -> tuple[np.ndarray, int]:
        """The column's integer codes and their bound: equal cells share a code.

        A table numbers its distinct cells 0, 1, ... in first-appearance order;
        a table from ``take`` keeps its source's numbers, so some may be unused.
        Cells are equal as dict keys are: 1 and 1.0 share a code, and a NaN
        cell shares one only with itself.
        """
        hit = self._codes.get(name)
        if hit is None:
            hit = self._codes[name] = _factorize(self.column(name).values)
        return hit

    def floats(self, name: str) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """The column as float64 values, a null mask and a text mask.

        A mask is None when the column has no such cell. Null and text cells
        read as NaN in the values; a NaN cell is neither null nor text.
        """
        hit = self._floats.get(name)
        if hit is None:
            cells = values = self.column(name).values
            text = None
            if any(issubclass(kind, str) for kind in set(map(type, cells))):
                text = np.fromiter((isinstance(v, str) for v in cells), dtype=bool,
                                   count=len(cells))
                values = tuple(None if isinstance(v, str) else v for v in cells)
            numbers = np.array(values, dtype=np.float64)  # None reads as NaN
            null = np.isnan(numbers)
            nan_at = np.flatnonzero(null)
            null[nan_at] = [cells[i] is None for i in nan_at.tolist()]
            hit = self._floats[name] = (numbers, null if null.any() else None, text)
        return hit

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


def _factorize(values) -> tuple[np.ndarray, int]:
    """Codes numbering the distinct values in first-appearance order, and their count."""
    index = {value: code for code, value in enumerate(dict.fromkeys(values))}
    codes = np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))
    return codes, len(index)


def _gather(values: tuple, rows: list[int]) -> tuple:
    if len(rows) > 1:
        return itemgetter(*rows)(values)
    return tuple(values[i] for i in rows)


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

    def pick(header: list[str]):
        keep = range(len(header))
        if columns is None:
            return keep
        wanted = set(columns)
        return [i for i in keep if header[i] in wanted] or keep[:1]

    header, parsed = _read(source, pick)
    return Table([Column(header[i], tuple(col)) for col, i in parsed])


def read_header(source: bytes | io.BufferedIOBase) -> tuple[str, ...]:
    """The header of UTF-8 CSV, without parsing a cell.

    The header and every row's width are checked as ``read_csv`` checks them.
    """
    return tuple(_read(source, lambda header: ())[0])


def _read(source, pick) -> tuple[list[str], list[tuple[list[Cell], int]]]:
    """The header, and the parsed cells of the header positions ``pick(header)`` names."""
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
    parsed = [([], i) for i in pick(header)]
    for rownum, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ParseError(
                f"row {rownum} has {len(row)} fields, expected {len(header)}", row=rownum
            )
        for col, i in parsed:
            col.append(parse_cell(row[i]))
    _check_names(header)
    return header, parsed


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


def group_rows(table: Table, split_by: list[str] | tuple[str, ...]) -> dict[tuple, np.ndarray]:
    """Row indices of each slice, keyed by tuples of dimension values.

    A key's cells follow ``split_by`` and are those of the slice's first row;
    nulls group like ordinary values. Groups appear in first-appearance order
    and indices ascend within each group. An empty split produces a single
    group of every row under the empty key.

    Each row's group id is a mixed-radix number over the split columns' codes,
    made dense again whenever the id space outgrows the row count.
    """
    n = table.row_count
    if not split_by:
        return {(): np.arange(n)}
    ids, size = table.codes(split_by[0])
    for name in split_by[1:]:
        codes, card = table.codes(name)
        ids, size = ids * card + codes, size * card
        if size > n:  # keep the id space, and so the arrays below, within O(n)
            ids, size = _factorize(ids.tolist())
    first = np.full(size, n, dtype=np.intp)
    first[ids[::-1]] = np.arange(n - 1, -1, -1)  # the last write, the first row, wins
    slices = np.flatnonzero(first < n)
    slices = slices[np.argsort(first[slices])]
    rank = np.empty(size, dtype=np.intp)
    rank[slices] = np.arange(len(slices))
    of_row = rank[ids]
    # A stable sort of uint16 keys is a radix sort.
    order = np.argsort(of_row.astype(np.uint16) if len(slices) < 1 << 16 else of_row,
                       kind="stable")
    bounds = np.cumsum(np.bincount(of_row, minlength=len(slices)))[:-1]
    columns = [table.column(name).values for name in split_by]
    keys = [tuple(col[i] for col in columns) for i in first[slices].tolist()]
    return dict(zip(keys, np.split(order, bounds)))


def resample_with_replacement(table: Table, rng: random.Random) -> Table:
    """Draw row_count rows uniformly with replacement; deterministic per rng."""
    n = table.row_count
    if n == 0:
        raise EmptyInput("cannot resample an empty table")
    return table.take([rng.randrange(n) for _ in range(n)])

"""Columnar in-memory tables with CSV ingestion, grouping, and row resampling.

Tables are immutable after construction and safe to share across threads.
Each column has one type, decided once when the table is made, and is stored
once, as arrays with one null mask (see ``Column``). Cells are rebuilt from
the arrays when asked for: plain Python ints, floats and strings, and None
for a null. A NaN input cell is a null cell, as in pandas and SQL, so no
column holds NaN. Grouping and the bootstrap's row order both sort on each
column's one numbering, in sqlite's order (``Column.codes``), so slices come
in the SQL's ``ORDER BY`` order.

CSV with no quote, carriage return or NUL byte is read in a few numpy passes
over its bytes (``_cut``). Any other file, and any file that fails a check
there, is read row by row by ``csv.reader`` (``_parse``), which raises every
ingest error, so both give the same table or the same error.

Bootstrap rows are drawn with the integer hash the generated SQL computes
(``mix``), in the row order its ``ROW_NUMBER()`` gives (``draw_order``), so
both backends draw the same rows.
"""

from __future__ import annotations

import codecs
import csv
import functools
import hashlib
import io
import itertools
import math
import operator
import re
from numbers import Integral, Real
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, ParseError, SchemaError, UnknownColumn

Cell = int | float | str | None

INT, FLOAT, TEXT = "int", "float", "text"

# Only a column of these characters can be numeric; int() and float() then
# decide exactly, as they accept nothing else (no whitespace, "_", "nan").
_INT_CHARS = re.compile(r"[0-9+\-\n]*")
_NUMBER_CHARS = re.compile(r"[0-9.eE+\-\n]*")
# The lone surrogates "surrogateescape" decodes invalid UTF-8 bytes to.
_SURROGATE = re.compile("[\udc80-\udcff]")


@dataclass(frozen=True, eq=False)
class Column:
    """One column: numeric, as values, or text, as codes into levels, and a null mask.

    A numeric column's ``data`` is int64, or float64 when a cell is a float or
    an int beyond int64. A text column's ``data`` indexes ``levels``, its
    distinct strings in first-appearance order. ``null`` marks the null cells
    of either kind, and is None when there are none; the data under a null is
    a placeholder (0, or -1 in a text column).
    """

    name: str
    data: np.ndarray
    null: np.ndarray | None = None
    levels: tuple[str, ...] | None = None

    @classmethod
    def from_cells(cls, name: str, cells: Iterable[Cell]) -> "Column":
        """A column of cells: numeric when each is None or a real number, numpy's too.

        Any other column is text, and its numbers become their CSV text. A NaN
        cell is None: a null, which decides no column's type.
        """
        cells = [None if v != v else v for v in cells]
        kinds = set(map(type, cells)) - {type(None)}
        if not all(issubclass(kind, Real) for kind in kinds):
            return _text(name, [v if v is None or isinstance(v, str) else format_cell(v)
                                for v in cells])
        null = None
        if None in cells:
            null = np.fromiter((v is None for v in cells), dtype=bool, count=len(cells))
            cells = [0 if v is None else v for v in cells]
        return _numeric(name, cells, all(issubclass(kind, Integral) for kind in kinds), null)

    @property
    def kind(self) -> str:
        if self.levels is not None:
            return TEXT
        return INT if self.data.dtype == np.int64 else FLOAT

    @property
    def values(self) -> tuple[Cell, ...]:
        """The cells, rebuilt from the arrays."""
        cells = self.data.tolist()
        if self.levels is not None:
            cells = list(map(self.levels.__getitem__, cells))
        if self.null is not None:
            for i in np.flatnonzero(self.null).tolist():
                cells[i] = None
        return tuple(cells)

    @functools.cached_property
    def codes(self) -> tuple[np.ndarray, int]:
        """Each cell's code in sqlite's ascending order, and the codes' bound.

        Nulls are 0; then numbers by value (0.0 and -0.0 share a code), or
        text by code point, which is sqlite's BINARY order on UTF-8. Equal
        cells share a code, and some codes below the bound may be unused.
        Numbered on first use and kept: a column never changes.
        """
        if self.levels is None:
            uniques, codes = np.unique(self.data, return_inverse=True)
        else:  # a level's code is its rank
            uniques = sorted(range(len(self.levels)), key=self.levels.__getitem__)
            codes = np.argsort(uniques)[self.data]
        codes += 1
        if self.null is not None:
            codes[self.null] = 0
        return codes, len(uniques) + 1

    def take(self, rows: np.ndarray) -> "Column":
        null = None if self.null is None else self.null[rows]
        return Column(self.name, self.data[rows], null, self.levels)


def _numeric(name: str, numbers: list, ints: bool, null: np.ndarray | None) -> Column:
    """A numeric column: int64 when ``ints`` and every number fits, else float64."""
    try:
        return Column(name, np.array(numbers, dtype=np.int64 if ints else np.float64), null)
    except OverflowError:  # an int beyond int64
        return Column(name, np.array(numbers, dtype=np.float64), null)


def _text(name: str, cells: list, null: str | None = None) -> Column:
    """A text column of ``cells``; the cell ``null`` is a null."""
    levels = dict.fromkeys(cells)
    levels.pop(null, None)
    index = {**dict(zip(levels, itertools.count())), null: -1}
    codes = np.fromiter(map(index.__getitem__, cells), dtype=np.intp, count=len(cells))
    mask = codes < 0
    return Column(name, codes, mask if mask.any() else None, tuple(levels))


def _typed(name: str, cells: list[str], joined: str) -> Column:
    """A CSV column: numeric when every non-empty cell is a number, else text.

    ``joined`` is the cells joined by newlines. The empty cell is a null. The numbers
    are ints when every one is an int that fits int64, and floats otherwise.
    Text keeps each cell's string, so "nan", "inf" and "1_0" are text, and
    make their column text.
    """
    # A cell holding a newline is no number, and would split in the join.
    if joined.count("\n") == max(len(cells) - 1, 0) and _NUMBER_CHARS.fullmatch(joined):
        ints = _INT_CHARS.fullmatch(joined) is not None
        null = None
        if "" in cells:
            null = np.fromiter(map(operator.not_, cells), dtype=bool, count=len(cells))
        try:
            numbers = list(map(int if ints else float,
                               cells if null is None else [cell or "0" for cell in cells]))
        except ValueError:  # a cell such as "1-2" or "."
            return _text(name, cells, null="")
        return _numeric(name, numbers, ints, null)
    return _text(name, cells, null="")


class Table:
    """Ordered collection of equal-length named columns."""

    def __init__(self, columns: list[Column] | tuple[Column, ...]):
        columns = tuple(columns)
        _check_names(col.name for col in columns)
        n = len(columns[0].data) if columns else 0
        for col in columns:
            if len(col.data) != n:
                raise SchemaError(f"column {col.name!r} has {len(col.data)} cells, expected {n}")
        self._row_count = n
        self._columns = columns
        self._index = {col.name: i for i, col in enumerate(columns)}
        self._fingerprint: str | None = None

    @classmethod
    def from_dict(cls, data: dict[str, list[Cell] | tuple[Cell, ...]]) -> "Table":
        return cls([Column.from_cells(name, values) for name, values in data.items()])

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(col.name for col in self._columns)

    @property
    def schema(self) -> dict[str, str]:
        """Each column's kind by name: INT, FLOAT or TEXT."""
        return {col.name: col.kind for col in self._columns}

    @property
    def row_count(self) -> int:
        return self._row_count

    def column(self, name: str) -> Column:
        i = self._index.get(name)
        if i is None:
            raise UnknownColumn(f"no such column: {name!r}")
        return self._columns[i]

    def row(self, i: int) -> tuple[Cell, ...]:
        return tuple(col.take([i]).values[0] for col in self._columns)

    def rows(self):
        return zip(*(col.values for col in self._columns))

    def take(self, indices) -> "Table":
        """New table containing the given rows, in the given order."""
        rows = np.asarray(indices, dtype=np.intp)
        return Table([col.take(rows) for col in self._columns])

    def fingerprint(self) -> str:
        """128-bit hash of the arrays and levels, used as a cache key component."""
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr((self._row_count, [(col.name, col.kind, col.null is None, col.levels)
                                             for col in self._columns])).encode())
            for col in self._columns:
                h.update(col.data)
                if col.null is not None:
                    h.update(col.null)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __repr__(self):
        return f"Table({self.row_count} rows, columns={list(self.column_names)})"


def read_csv(source: bytes | io.BufferedIOBase, columns: Iterable[str] | None = None) -> Table:
    """Parse UTF-8 CSV with a header row into a typed Table.

    With ``columns``, only the header's columns named there are parsed, in
    header order, and names missing from the header are skipped. A table's
    row count comes from its columns, so when none is named the first column
    is kept. Either way the whole file is checked: ParseError (with the
    offending 1-based data row number, 0 for the header) for a ragged row,
    invalid UTF-8 or a field longer than ``csv.field_size_limit()``, then
    SchemaError for a duplicate or empty header name.
    """

    def pick(header: list[str]):
        keep = range(len(header))
        if columns is None:
            return keep
        wanted = set(columns)
        return [i for i in keep if header[i] in wanted] or keep[:1]

    return Table(_read(source, pick)[1])


def read_header(source: bytes | io.BufferedIOBase) -> tuple[str, ...]:
    """The header of UTF-8 CSV, without parsing a cell.

    The header and every row's width are checked as ``read_csv`` checks them.
    """
    return tuple(_read(source, lambda header: ())[0])


def _read(source, pick) -> tuple[list[str], list[Column]]:
    """The header, and the typed columns of the header positions ``pick(header)`` names."""
    raw = source if isinstance(source, bytes) else source.read()
    read = _cut(raw, pick)
    return _parse(raw, pick) if read is None else read


_NEWLINE, _COMMA = ord("\n"), ord(",")


def _cut(raw: bytes, pick) -> tuple[list[str], list[Column]] | None:
    """``_parse(raw, pick)`` in a few numpy passes over the bytes, or None.

    With no quote, carriage return or NUL byte in ``raw``, each comma and
    newline ends a field, and a row is a line cut at its commas. The check
    finds every separator at once and requires each line to hold the
    header's width; each picked column is then one gather of its fields'
    bytes, joined by newlines, and one decode. None, leaving the file to
    ``_parse`` and so every error to one place, for any other file and for
    invalid UTF-8, an empty line, a row of another width or a field longer
    than ``csv.field_size_limit()``.
    """
    if b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return None
    start = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0
    if not raw.endswith(b"\n"):  # csv.reader reads a last line without one alike
        raw += b"\n"
    end = raw.index(b"\n", start)
    header = raw[start:end].decode().split(",")
    width, limit = len(header), csv.field_size_limit()
    if end == start or max(map(len, header)) > limit:
        return None
    # From the header's newline on: seps[0] is it, and row r's fields end
    # at seps[r * width + 1 .. (r + 1) * width], the last at a newline.
    body = np.frombuffer(raw, dtype=np.uint8, offset=end)
    newline = body == _NEWLINE
    seps = np.flatnonzero(newline | (body == _COMMA))
    rows, ragged = divmod(len(seps) - 1, width)
    lengths = np.diff(seps) - 1
    if (ragged or np.count_nonzero(newline) != rows + 1
            or not (body[seps[width::width]] == _NEWLINE).all()
            or lengths.max(initial=0) > limit
            or (width == 1 and not lengths.all())):  # an empty line
        return None
    del newline, lengths
    _check_names(header)
    columns = []
    for i in pick(header):
        # Each field with the separator before it, that separator made a newline.
        before, after = seps[i:-1:width], seps[i + 1::width]
        sizes = after - before
        offsets = np.cumsum(sizes) - sizes
        at = np.repeat(before - offsets, sizes)
        at += np.arange(len(at))
        cut = body[at]
        cut[offsets] = _NEWLINE
        joined = cut[1:].tobytes().decode()
        del at, cut
        columns.append(_typed(header[i], joined.split("\n") if rows else [], joined))
    return header, columns


def _parse(raw: bytes, pick) -> tuple[list[str], list[Column]]:
    """``_read`` by ``csv.reader``, row by row; it raises every ingest error.

    A ParseError names the 1-based data row (0 for the header) that is
    ragged, holds invalid UTF-8 or fails ``csv.reader`` (a field longer
    than ``csv.field_size_limit()``; a NUL byte before Python 3.11). It
    comes before a SchemaError for a bad header name.
    """
    try:
        text, invalid = raw.decode("utf-8-sig"), None
    except UnicodeDecodeError:  # find its row: each bad byte becomes a lone surrogate
        text, invalid = raw.decode("utf-8-sig", "surrogateescape"), _SURROGATE.search
    reader = csv.reader(io.StringIO(text, newline=""))
    header, rownum = None, 0
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("CSV input is empty; a header row is required")
        if invalid is not None and any(map(invalid, header)):
            raise ParseError("the header is not valid UTF-8", row=0)
        parsed = [(i, []) for i in pick(header)]
        for rownum, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"row {rownum} has {len(row)} fields, expected {len(header)}", row=rownum
                )
            if invalid is not None and any(map(invalid, row)):
                raise ParseError(f"row {rownum} is not valid UTF-8", row=rownum)
            for i, cells in parsed:
                cells.append(row[i])
    except csv.Error as err:  # raised while reading the row after ``rownum``
        row = 0 if header is None else rownum + 1
        where = f"row {row}" if row else "the header"
        raise ParseError(f"{where}: {err}", row=row) from None
    _check_names(header)
    return header, [_typed(header[i], cells, "\n".join(cells)) for i, cells in parsed]


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


def coerce_cell(cell: Cell, kind: str) -> Cell:
    """``cell`` as SQL's column affinity compares it with a column of ``kind``.

    A number meets text as sqlite's ``CAST(cell AS TEXT)`` renders it, and a
    string that reads as a number meets numbers as that number. NaN stays
    NaN, which equals no cell, as SQL's NULL baseline matches no row.
    """
    if cell is None or cell != cell or isinstance(cell, str) == (kind == TEXT):
        return cell
    if kind == TEXT:
        return _real_text(cell) if isinstance(cell, float) else str(cell)
    (number,) = _typed("", [cell], cell).values
    return cell if number is None else number


def _real_text(x: float) -> str:
    """``x`` as sqlite renders a REAL as text (``%!.15g``).

    That is 15 significant digits with at least one after a decimal point,
    so 1e20 is "1.0e+20" and 3.0 is "3.0"; -0.0 is "0.0".
    """
    if math.isinf(x):
        return "Inf" if x > 0 else "-Inf"
    mantissa, e, exponent = ("%.15g" % (x + 0.0)).partition("e")  # + 0.0: -0.0 is 0.0
    if "." not in mantissa:
        mantissa += ".0"
    return mantissa + e + exponent


def group_rows(table: Table, split_by: list[str] | tuple[str, ...]) -> dict[tuple, np.ndarray]:
    """Row indices of each slice, keyed by tuples of dimension values.

    A key's cells follow ``split_by`` and are those of the slice's first row;
    nulls group like ordinary values. Groups come in key order, sqlite's
    ascending ``ORDER BY`` over ``split_by`` (``Column.codes``), and indices
    ascend within each group. An empty split produces a single group of every
    row under the empty key.

    Each row's group id is a mixed-radix number over the split columns' codes,
    made dense again whenever the id space outgrows the row count; either way
    ids sort as keys do.
    """
    n = table.row_count
    if not split_by:
        return {(): np.arange(n)}
    columns = [table.column(name) for name in split_by]
    ids, size = columns[0].codes
    for col in columns[1:]:
        codes, card = col.codes
        ids, size = ids * card + codes, size * card
        if size > n:  # keep the id space, and so the arrays below, within O(n)
            uniques, ids = np.unique(ids, return_inverse=True)
            size = len(uniques)
    # A stable sort of uint16 keys is a radix sort.
    order = np.argsort(ids.astype(np.uint16) if size <= 1 << 16 else ids, kind="stable")
    sizes = np.bincount(ids)
    sizes = sizes[sizes > 0]
    ends = np.cumsum(sizes)
    keys = zip(*(col.take(order[ends - sizes]).values for col in columns))
    return dict(zip(keys, np.split(order, ends[:-1])))


# The draw hash works on 30-bit integers, so every intermediate of a round
# stays below 2**62: ``mix`` gives the same on Python ints, on int64 arrays and
# in SQL's 64-bit integers (``sqlgen._mix_sql``). A round is quadratic, then
# affine (the quadratic step breaks the lattice structure a pure LCG would
# give); both steps, and so ``mix``, are bijections modulo 2**30.
STATES = 1073741824
MULTIPLIER = 1103515245
ROUNDS = (12345, 54321)


def mix(x):
    """The draw hash's bijection on 0..STATES - 1, of an int or an int64 array."""
    for c in ROUNDS:
        x = (x * (1 + 4 * x) % STATES * MULTIPLIER + c) % STATES
    return x


def draw_order(table: Table, split_by, columns) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows as the bootstrap SQL numbers them: (rows, row_number, slice_size).

    ``rows`` holds the slices of ``group_rows(table, split_by)`` one after
    another. Within a slice, rows sort by ``columns`` in turn, each in
    sqlite's ascending order (``Column.codes``), as SQL's
    ``ROW_NUMBER() OVER (PARTITION BY split_by ORDER BY columns)``; rows that
    tie are equal in every one of ``columns``. ``row_number`` (from 1) and
    ``slice_size`` are each row's, as in the SQL's Data table.
    """
    slices = list(group_rows(table, split_by).values())
    sizes = np.array([len(rows) for rows in slices], dtype=np.int64)
    rows = np.concatenate(slices) if slices else np.arange(0)
    keys = [table.column(name).codes[0][rows] for name in reversed(columns)]
    rows = rows[np.lexsort(keys + [np.repeat(np.arange(len(slices)), sizes)])]
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)
    return rows, np.arange(1, len(rows) + 1, dtype=np.int64) - starts, np.repeat(sizes, sizes)


def resample_with_replacement(table: Table, order, seed: int, replicate: int) -> Table:
    """Replicate ``replicate`` (from 1) of the bootstrap with ``seed``, as the SQL draws it.

    ``order`` is ``draw_order``'s. The replicate's state is
    mix(mix(seed) + replicate), all modulo STATES; row j of a slice of size s
    draws the slice's ceil((mix(state + j) + 1) / STATES * s)-th row, in
    float64 as SQL's ``CEILING`` reads it. So each slice keeps its size.
    """
    rows, row_number, slice_size = order
    if len(rows) == 0:
        raise EmptyInput("cannot resample an empty table")
    state = mix((mix(seed % STATES) + replicate) % STATES)
    rand = mix((state + row_number) % STATES)
    drawn = np.ceil((rand + 1) / float(STATES) * slice_size).astype(np.int64)
    return table.take(rows[np.arange(len(rows)) + drawn - row_number])

from __future__ import annotations

import csv
import io
import math
import random
import sqlite3
from collections import Counter

import numpy as np
import pytest

from slicemetrics import (
    EmptyInput,
    MetricsError,
    ParseError,
    SchemaError,
    Table,
    UnknownColumn,
    read_csv,
)
from slicemetrics import table as table_module
from slicemetrics.table import (
    FLOAT,
    INT,
    TEXT,
    STATES,
    Column,
    coerce_cell,
    draw_order,
    group_rows,
    mix,
    read_header,
    resample_with_replacement,
    write_csv,
)

from helpers import load_table, random_table


class TestReadCsv:
    def test_types_from_header_and_row(self):
        t = read_csv(b"a,b\n1,x\n")
        assert t.column_names == ("a", "b")
        assert t.column("a").values == (1,)
        assert t.column("b").values == ("x",)

    def test_figure_table_shape(self, fig2):
        assert fig2.row_count == 6
        assert fig2.column_names == ("region", "experiment", "lost")

    def test_header_only(self):
        t = read_csv(b"a,b\n")
        assert t.row_count == 0
        assert t.column_names == ("a", "b")

    def test_empty_string_is_null(self):
        t = read_csv(b"a,b\n,2\n")
        assert t.column("a").values == (None,)

    def test_int_then_float_then_text_priority(self):
        # One type per column: any text cell makes every cell its string,
        # and any float cell makes every number a float.
        t = read_csv(b"v,w,x\n7,7,7\n7.5,7.5,8\nseven,,\n")
        assert t.column("v").values == ("7", "7.5", "seven")
        assert t.column("w").values == (7.0, 7.5, None)
        assert t.column("x").values == (7, 8, None)
        assert t.schema == {"v": TEXT, "w": FLOAT, "x": INT}

    def test_quoted_fields(self):
        t = read_csv(b'a,b\n"hello, world",2\n')
        assert t.column("a").values == ("hello, world",)

    def test_ragged_row_reports_row_number(self):
        with pytest.raises(ParseError) as err:
            read_csv(b"a,b\n1,2\n3\n")
        assert err.value.row == 2

    def test_duplicate_header(self):
        with pytest.raises(SchemaError):
            read_csv(b"a,a\n1,2\n")

    def test_empty_header_name(self):
        with pytest.raises(SchemaError):
            read_csv(b"a,\n1,2\n")

    def test_no_header_at_all(self):
        with pytest.raises(SchemaError):
            read_csv(b"")


class TestColumnTyping:
    def test_a_newline_between_digits_makes_the_column_text(self):
        # int() and float() would read "4\n" as 4: a newline is not whitespace to skip.
        t = read_csv(b'v,w\n1,1\n"2\n3","4\n"\n')
        assert t.schema == {"v": TEXT, "w": TEXT}
        assert t.column("v").values == ("1", "2\n3")
        assert t.column("w").values == ("1", "4\n")

    def test_an_int_beyond_int64_makes_the_column_float(self):
        t = read_csv(f"v,w\n{2**63},1\n{2**63 - 1},2\n".encode())
        assert t.schema == {"v": FLOAT, "w": INT}
        assert t.column("v").values == (float(2**63), float(2**63 - 1))
        assert Table.from_dict({"v": [2**63, 1]}).schema == {"v": FLOAT}

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_nan_and_inf_tokens_make_the_column_text(self, token):
        t = read_csv(f"v\n1.5\n{token}\n".encode())
        assert t.column("v").kind == TEXT
        assert t.column("v").values == ("1.5", token)

    def test_an_all_empty_column_is_numeric(self):
        t = read_csv(b"v,w\n,1\n,2\n")
        assert t.column("v").kind == INT and t.column("v").values == (None, None)
        assert read_csv(b"v\n").column("v").kind == INT
        assert Table.from_dict({"v": [None, None]}).column("v").kind == INT

    def test_signed_zero_and_plus_are_ints(self):
        t = read_csv(b"v\n-0\n+5\n007\n")
        assert t.column("v").kind == INT
        assert t.column("v").values == (0, 5, 7)

    def test_from_dict_mixing_strings_and_numbers_is_text(self):
        t = Table.from_dict({"v": ["a", 1, 2.5, None], "w": [1, 2.5, None, 3]})
        assert t.schema == {"v": TEXT, "w": FLOAT}
        assert t.column("v").values == ("a", "1", "2.5", None)
        assert t.column("w").values == (1.0, 2.5, None, 3.0)


def _reference_cell(text: str):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _reference_read(data: bytes) -> Table:
    """Every column typed from its parsed cells: the full read projections must match.

    Only the digit-and-sign cells the tests write are parsed, so int() and
    float() are the reference. A column with a text cell keeps every string.
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8-sig"), newline=""))
    header = next(reader)
    rows = list(reader)
    columns = {}
    for i, name in enumerate(header):
        texts = [row[i] for row in rows]
        cells = [None if text == "" else _reference_cell(text) for text in texts]
        if any(isinstance(cell, str) for cell in cells):
            cells = [None if text == "" else text for text in texts]
        columns[name] = cells
    return Table.from_dict(columns)


def _described(table: Table):
    return [(col.name, col.kind, col.values) for col in table.columns]


class TestReadCsvColumns:
    DATA = b"a,b,c,d\n1,x,2.5,\n,y,3,7\n4,x,,z\n"

    def test_none_reads_every_column(self):
        full = read_csv(self.DATA, None)
        want = _reference_read(self.DATA)
        assert _described(full) == _described(want) == _described(read_csv(self.DATA))

    def test_subset_keeps_header_order(self):
        t = read_csv(self.DATA, ["d", "a"])
        assert t.column_names == ("a", "d")
        assert t.row_count == 3

    def test_unknown_names_are_skipped(self):
        assert read_csv(self.DATA, {"c", "nope"}).column_names == ("c",)

    def test_no_known_name_keeps_the_row_count(self):
        for columns in ([], ["nope"]):
            t = read_csv(self.DATA, columns)
            assert t.column_names == ("a",) and t.row_count == 3
        assert read_csv(b"a,b\n", []).row_count == 0

    def test_projected_cells_equal_the_full_read(self):
        rng = random.Random(17)
        for _ in range(20):
            data = write_csv(random_table(rng, null_rate=0.2)).encode()
            full = _reference_read(data)
            names = rng.sample(full.column_names, rng.randint(1, len(full.column_names)))
            part = read_csv(data, names + ["missing"])
            assert part.column_names == tuple(n for n in full.column_names if n in names)
            assert part.row_count == full.row_count
            for col in part.columns:
                assert col.kind == full.column(col.name).kind
                assert col.values == full.column(col.name).values

    def test_unread_columns_are_still_checked(self):
        with pytest.raises(ParseError) as err:
            read_csv(b"a,b\n1,2\n3\n", ["a"])
        assert err.value.row == 2
        for data in (b"a,b,b\n1,2,3\n", b"a,,b\n1,2,3\n"):
            with pytest.raises(SchemaError):
                read_csv(data, ["a"])
        for columns in (None, ["b"]):  # a ragged row is reported before a bad header
            with pytest.raises(ParseError):
                read_csv(b"a,a,b\n1,2\n", columns)


def _outcome(read, *args):
    """A read's header and columns (kind and cell reprs), or its error type and row."""
    try:
        result = read(*args)
    except MetricsError as err:
        return type(err).__name__, getattr(err, "row", None)
    if result is None:  # the cut declined the file
        return None
    header, columns = result
    return header, [(col.name, col.kind, repr(col.values)) for col in columns]


def _public(read, raw: bytes):
    try:
        result = read(raw)
    except MetricsError as err:
        return type(err).__name__, getattr(err, "row", None)
    return _described(result) if isinstance(result, Table) else result


_LIMIT = csv.field_size_limit()
_PLAIN_CELLS = ["0", "-3", "+7", "12", "2.5", "-0.0", "1e3", "", "", "x", "héllo", "日本",
                "1-2", ".", "nan", "inf", "1_0", " 1", "9223372036854775808", "-"]
_SPECIAL_CELLS = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "π,ü", '"', "\r\n"]


class TestReadPaths:
    """The numpy cut (``_cut``) against csv.reader (``_parse``) on the same bytes.

    ``_cut`` may decline a file (None); otherwise both give the same header
    and columns, or the same error. Quoting a cell sends a file to
    ``_parse``, so the public readers must give the same outcome either way.
    """

    @staticmethod
    def _same(raw: bytes, fast: bool | None = None):
        for pick in (lambda header: range(len(header)), lambda header: (),
                     lambda header: range(len(header))[-1:]):
            cut = _outcome(table_module._cut, raw, pick)
            if fast is not None:
                assert (cut is None) != fast, raw[:80]
            parsed = _outcome(table_module._parse, raw, pick)
            assert cut is None or cut == parsed, raw[:80]

    @staticmethod
    def _random_rows(rng, special: bool):
        width = rng.randint(1, 5)
        header = [f"c{i}" for i in range(width)]
        pools = [rng.sample(_PLAIN_CELLS, rng.randint(1, 6)) for _ in range(width)]
        rows = []
        for _ in range(rng.randint(0, 12)):
            row = [rng.choice(pool) for pool in pools]
            if special and rng.random() < 0.5:
                row[rng.randrange(width)] = rng.choice(_SPECIAL_CELLS)
            rows.append(row)
        return header, rows

    def test_random_tables_read_alike_on_both_paths(self):
        rng = random.Random(30)
        fast = 0
        for _ in range(300):
            header, rows = self._random_rows(rng, special=rng.random() < 0.5)
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows([header] + rows)
            written = out.getvalue().encode()
            self._same(written)
            # Unquoted, one field per comma: the cut takes it, and it reads as
            # csv.writer's quoted text, unless a row is an empty line (a
            # single empty cell, which csv.writer quotes).
            if not any(c in cell for row in rows for cell in row for c in ',"\n\r'):
                plain = "".join(",".join(line) + "\n" for line in [header] + rows).encode()
                empty_line = len(header) == 1 and [""] in rows
                self._same(plain, fast=not empty_line)
                if not empty_line:
                    assert _public(read_csv, plain) == _public(read_csv, written)
                    assert _public(read_header, plain) == _public(read_header, written)
                    fast += 1
        assert fast > 100

    @pytest.mark.parametrize("raw, fast", [
        pytest.param(b"\xef\xbb\xbfa,b\n1,2\n", True, id="bom"),
        pytest.param(b"a,b\n1,2", True, id="no-trailing-newline"),
        pytest.param(b"a,b\n1,2\n\n", False, id="trailing-empty-line"),
        pytest.param(b"a,b\n1,2\n\n3,4\n", False, id="empty-line-in-the-middle"),
        pytest.param(b"a\n1\n2\n", True, id="one-column"),
        pytest.param(b"a\n1\n\n2\n", False, id="one-column-empty-line"),
        pytest.param(b"a\n\n", False, id="one-column-only-an-empty-line"),
        pytest.param(b"a,b\r\n1,2\r\n", False, id="crlf"),
        pytest.param(b"a,b\n", True, id="header-only"),
        pytest.param(b"a,b", True, id="header-only-no-newline"),
        pytest.param(b"", False, id="empty"),
        pytest.param(b"\xef\xbb\xbf", False, id="bom-only"),
        pytest.param(b"\n1\n", False, id="empty-header-line"),
        pytest.param(b"a,b\n1,2,3\n", False, id="ragged"),
        pytest.param(b"a,a\n1,2\n", True, id="duplicate-name"),
        pytest.param(b"a,\n1,2\n", True, id="empty-name"),
        pytest.param(b"a,a\n1\n", False, id="ragged-before-bad-header"),
        pytest.param(b"a,b\n1,\xff\n", False, id="invalid-utf8"),
        pytest.param(b"a,\xff\n1,2\n", False, id="invalid-utf8-header"),
        pytest.param(b"a,b\n1,\xc3\xa9\n", True, id="utf8-text"),
        pytest.param(b"a,b\n1,\x00\n", False, id="nul"),
        pytest.param(b"a,b\n1," + b"x" * _LIMIT + b"\n", True, id="field-at-the-limit"),
        pytest.param(b"a,b\n1," + b"x" * (_LIMIT + 1) + b"\n", False, id="field-over-the-limit"),
        pytest.param(b"a" + b"x" * _LIMIT + b",b\n1,2\n", False, id="name-over-the-limit"),
    ])
    def test_edge_files(self, raw, fast):
        self._same(raw, fast)
        if raw.lstrip(b"\xef\xbb\xbf").startswith(b"a"):
            quoted = raw.replace(b"a", b'"a"', 1)
            assert table_module._cut(quoted, lambda header: ()) is None
            assert _public(read_csv, raw) == _public(read_csv, quoted)
            assert _public(read_header, raw) == _public(read_header, quoted)

    def test_ingest_errors_name_their_row(self):
        cases = [
            (b"a,b\n1,2\n3,\xff\n", 2),
            (b'a,b\n1,2\n3,"\xff"\n', 2),
            (b"a,b\n1,2\n3," + b"x" * (_LIMIT + 1) + b"\n", 2),
            (b'a,b\n"1\n2",2\n3,"x' + b"x" * _LIMIT + b'"\n', 2),  # rows, not lines
            (b"a,\xfe\n1,2\n", 0),
            (b"a" * (_LIMIT + 1) + b"\n1\n", 0),
        ]
        for raw, row in cases:
            for read in (read_csv, read_header):
                with pytest.raises(ParseError) as err:
                    read(raw)
                assert err.value.row == row, raw[:40]


class TestParseCell:
    """A one-cell column is typed as its cell: int, then float, then text."""

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", 3), ("-3", -3), ("+4", 4), ("3.5", 3.5), ("-0.25", -0.25),
            ("1e3", 1000.0), ("2.5E-1", 0.25), (".5", 0.5), ("", None),
            ("abc", "abc"), ("nan", "nan"), ("inf", "inf"), ("1_0", "1_0"),
            ("007", 7),
        ],
    )
    def test_priority(self, text, expected):
        t = read_csv(f'v\n"{text}"\n'.encode())
        assert t.column("v").values == (expected,)
        assert type(t.column("v").values[0]) is type(expected)


class TestTableInvariants:
    def test_column_length_mismatch(self):
        with pytest.raises(SchemaError):
            Table([Column.from_cells("a", (1, 2)), Column.from_cells("b", (1,))])

    def test_unknown_column(self, fig2):
        with pytest.raises(UnknownColumn):
            fig2.column("nope")

    def test_fingerprint_tracks_content(self, fig2):
        same = read_csv(write_csv(fig2).encode())
        assert same.fingerprint() == fig2.fingerprint()
        other = Table.from_dict({"region": ["US"]})
        assert other.fingerprint() != fig2.fingerprint()


class TestNanIsNull:
    # A NaN input cell is a null cell, as in pandas and SQL: the table is the
    # one its None cells make, and no float column holds NaN.

    @pytest.mark.parametrize("with_nan, with_none", [
        pytest.param([1, math.nan, 2], [1, None, 2], id="int-column"),
        pytest.param([1.5, math.nan], [1.5, None], id="float-column"),
        pytest.param(np.array([1.0, np.nan, 3.0]), [1.0, None, 3.0], id="numpy-float-array"),
        pytest.param([np.float32(2.0), np.float64("nan")], [np.float32(2.0), None],
                     id="numpy-float-scalars"),
        pytest.param(["a", math.nan, 1], ["a", None, 1], id="text-column"),
        pytest.param([math.nan, math.nan], [None, None], id="all-nan"),
        pytest.param([math.nan, None, math.inf], [None, None, math.inf], id="inf-stays"),
    ])
    def test_a_nan_cell_is_a_none_cell(self, with_nan, with_none):
        got, want = Table.from_dict({"v": with_nan}), Table.from_dict({"v": with_none})
        assert got.schema == want.schema
        assert got.column("v").values == want.column("v").values
        assert got.fingerprint() == want.fingerprint()

    def test_a_nan_cell_in_a_text_column_is_null_not_nan_text(self):
        column = Column.from_cells("s", ["a", float("nan"), "nan"])
        assert column.values == ("a", None, "nan")
        assert column.null.tolist() == [False, True, False]

    def test_no_column_holds_nan(self):
        rng = random.Random(31)
        pool = [None, math.nan, np.nan, np.float64("nan"), 1, -2, 2.5, -0.0, math.inf,
                2**70, "a", "nan"]
        texts = ["", "nan", "NaN", "1.5", "-0.0", "7", "1e999", "-1e999", "x"]

        def check(columns):
            for column in columns:
                if column.kind == FLOAT:
                    assert not np.isnan(column.data).any(), column.name
                    rows = np.arange(len(column.data))[::-1]
                    assert not np.isnan(column.take(rows).data).any(), column.name

        def every(header):
            return range(len(header))

        for _ in range(200):
            n = rng.randint(0, 8)
            cells = rng.sample(pool, rng.randint(1, 4))
            data = {f"c{i}": [rng.choice(cells) for _ in range(n)] for i in range(3)}
            table = Table.from_dict(data)
            check(table.columns)
            check(Column.from_cells(name, iter(v)) for name, v in data.items())
            rows = [[rng.choice(texts) for _ in range(3)] for _ in range(n)]
            raw = "".join(",".join(row) + "\n" for row in [["a", "b", "c"]] + rows).encode()
            quoted = raw.replace(b"a", b'"a"', 1)
            for columns in (table_module._cut(raw, every)[1],
                            table_module._parse(raw, every)[1],
                            table_module._parse(quoted, every)[1],
                            read_csv(quoted).columns):
                check(columns)


class TestNegativeZero:
    def test_a_negative_zero_cell_is_zero_on_every_path(self):
        # sqlite stores -0.0 in a REAL column as 0.0, so the table does too.
        con = sqlite3.connect(":memory:")
        con.execute("CREATE TABLE d (x REAL)")
        con.execute("INSERT INTO d VALUES (?)", (-0.0,))
        assert math.copysign(1, con.execute("SELECT x FROM d").fetchone()[0]) == 1
        raw = b"g,x\n-0.0,1\n0.0,-0.0\n-0,2.5\n"
        quoted = raw.replace(b"g", b'"g"', 1)

        def every(header):
            return range(len(header))

        for columns in (Table.from_dict({"g": [-0.0, 0.0, 0.0], "x": [1, -0.0, 2.5]}).columns,
                        [Column.from_cells("g", [np.float64(-0.0), 2**70])],
                        table_module._cut(raw, every)[1],
                        table_module._parse(quoted, every)[1]):
            for column in columns:
                assert column.kind == FLOAT
                assert not np.signbit(column.data).any(), column.values


class TestCodes:
    def test_codes_number_cells_as_sqlite_orders_them(self):
        # Grouping and the draw order sort on these codes, so they must rank
        # cells as sqlite's ORDER BY does and tie exactly the cells it ties.
        rng = random.Random(33)
        pools = [[None, -1, 0, 2, 10], [None, 0.0, -0.0, 1.5, -2.5, 7, 1e300],
                 [None, "b", "B", "\u00e9", "a b", "", "10", "9", "\U0001f600"]]
        for _ in range(150):
            pool = rng.choice(pools)
            n = rng.randint(0, 12)
            t = Table.from_dict({"i": list(range(n)), "c": [rng.choice(pool) for _ in range(n)]})
            codes, bound = t.column("c").codes
            assert t.column("c").codes[0] is codes  # numbered once
            assert all(0 <= code < bound for code in codes.tolist())
            assert all((code == 0) == (cell is None)
                       for code, cell in zip(codes.tolist(), t.column("c").values))
            con = sqlite3.connect(":memory:")
            load_table(con, "t", t)
            want = [i for (i,) in con.execute("SELECT i FROM t ORDER BY c, i")]
            assert sorted(range(n), key=lambda i: (codes[i], i)) == want
            ties = set(con.execute("SELECT a.i, b.i FROM t a, t b WHERE a.c IS b.c"))
            assert {(i, j) for i in range(n) for j in range(n) if codes[i] == codes[j]} == ties
            con.close()

    def test_a_take_shares_the_text_ranks(self):
        # A bootstrap replicate is a take: it must not rank the levels again.
        rng = random.Random(35)
        pool = [None, "b", "B", "é", "a b", "", "10", "9", "\U0001f600"]
        for _ in range(100):
            n = rng.randint(1, 15)
            col = Column.from_cells("c", [rng.choice(pool) for _ in range(n - 1)] + ["b"])
            rows = np.array([rng.randrange(n) for _ in range(rng.randint(0, 2 * n))],
                            dtype=np.intp)
            taken = col.take(rows)
            assert taken.ranks is col.ranks
            assert taken.codes[0].tolist() == col.codes[0][rows].tolist()
            assert taken.values == tuple(col.values[i] for i in rows)


class TestGroupRows:
    def test_figure_table_by_region(self, fig2):
        groups = group_rows(fig2, ["region"])
        sizes = {key[0]: len(indices) for key, indices in groups.items()}
        assert sizes == {"US": 4, "EU": 2}
        assert list(groups) == [("EU",), ("US",)]  # key order

    def test_empty_split_is_one_group(self, fig2):
        groups = group_rows(fig2, [])
        assert list(groups) == [()]
        assert len(groups[()]) == 6

    def test_two_dim_sizes_sum_to_total(self, fig2):
        groups = group_rows(fig2, ["region", "experiment"])
        assert sum(len(indices) for indices in groups.values()) == 6

    def test_unknown_dimension(self, fig2):
        with pytest.raises(UnknownColumn):
            group_rows(fig2, ["nope"])

    def test_null_is_a_groupable_value(self):
        t = Table.from_dict({"g": ["a", None, "a", None], "x": [1, 2, 3, 4]})
        groups = group_rows(t, ["g"])
        assert len(groups) == 2
        assert groups[(None,)].tolist() == [1, 3]

    def test_partition_recovers_row_multiset(self):
        rng = random.Random(11)
        for _ in range(25):
            t = random_table(rng, null_rate=0.15)
            groups = group_rows(t, ["g1", "g2"])
            combined = Counter()
            for indices in groups.values():
                combined.update(t.row(i) for i in indices)
            assert combined == Counter(t.rows())

    def test_matches_dict_of_tuples_reference(self):
        rng = random.Random(25)
        pool = ["a", "b", 1, 1.0, 2, 2.5, -0.0, 0, None]
        names = ["d0", "d1", "d2", "d3"]
        for case in range(200):
            n = 0 if case == 0 else rng.randint(1, 40)
            t = Table.from_dict({name: [rng.choice(pool[:rng.randint(2, len(pool))])
                                        for _ in range(n)] for name in names})
            split = rng.sample(names, rng.randint(0, 3))
            got = group_rows(t, split)
            want = _reference_groups(t, split)
            assert repr(list(got)) == repr(list(want)), (case, split)
            assert [indices.tolist() for indices in got.values()] == list(want.values())

    def test_many_slices_and_wide_id_space(self):
        # 300 x 300 combinations exceed the 400 rows, so ids are re-compacted;
        # over 65,535 slices the sort runs on full-width ids.
        rng = random.Random(26)
        t = Table.from_dict({"a": [rng.randrange(300) for _ in range(400)],
                             "b": [rng.randrange(300) for _ in range(400)],
                             "c": [rng.randrange(3) for _ in range(400)]})
        for split in (["a", "b"], ["a", "b", "c"], ["c", "a"]):
            got = group_rows(t, split)
            want = _reference_groups(t, split)
            assert list(got) == list(want)
            assert [indices.tolist() for indices in got.values()] == list(want.values())
        wide = Table.from_dict({"id": list(range(70_000))})
        groups = group_rows(wide, ["id"])
        assert len(groups) == 70_000 and groups[(69_999,)].tolist() == [69_999]

    def test_stability_within_groups(self):
        rng = random.Random(12)
        t = random_table(rng, n_rows=30)
        order = {row + (i,): i for i, row in enumerate(t.rows())}
        for indices in group_rows(t, ["g1"]).values():
            seen = [
                min(pos for key, pos in order.items() if key[:-1] == t.row(i))
                for i in indices
            ]
            assert seen == sorted(seen)


def _reference_groups(table, split):
    """Row indices per key tuple, in sqlite's key order, by a plain dict."""
    if not split:
        return {(): list(range(table.row_count))}
    groups = {}
    for i, key in enumerate(zip(*(table.column(name).values for name in split))):
        groups.setdefault(key, []).append(i)
    # Each column holds one kind, so a cell compares only with its own kind.
    return dict(sorted(groups.items(), key=lambda group: [(v is not None, v) for v in group[0]]))


class TestCsvRoundTrip:
    def test_read_write_read_identity(self):
        rng = random.Random(13)
        for _ in range(20):
            t = random_table(rng, null_rate=0.2)
            again = read_csv(write_csv(t).encode())
            assert again.column_names == t.column_names
            assert list(again.rows()) == list(t.rows())


class TestResample:
    def test_single_row_table(self):
        t = Table.from_dict({"x": [42]})
        out = resample_with_replacement(t, draw_order(t, (), ()), 0, 1)
        assert list(out.rows()) == [(42,)]

    def test_deterministic_given_seed(self, fig2):
        order = draw_order(fig2, (), ())
        a = resample_with_replacement(fig2, order, 99, 1)
        b = resample_with_replacement(fig2, order, 99, 1)
        assert list(a.rows()) == list(b.rows())

    def test_empty_table(self):
        t = Table.from_dict({"x": []})
        with pytest.raises(EmptyInput):
            resample_with_replacement(t, draw_order(t, (), ()), 0, 1)

    def test_uniform_position_frequency(self):
        # Monte Carlo: row 0 should land in position 0 about half the time.
        t = Table.from_dict({"x": [0, 1]})
        order = draw_order(t, (), ())
        hits = 0
        for i in range(10_000):
            out = resample_with_replacement(t, order, i, 1)
            hits += out.row(0) == (0,)
        assert abs(hits / 10_000 - 0.5) <= 0.02

    def test_row_count_preserved(self, fig2):
        out = resample_with_replacement(fig2, draw_order(fig2, (), ()), 5, 1)
        assert out.row_count == fig2.row_count

    def test_each_slice_keeps_its_size_and_its_rows(self):
        rng = random.Random(8)
        for _ in range(30):
            t = random_table(rng, null_rate=0.2)
            order = draw_order(t, ("g1", "g2"), ("x",))
            out = resample_with_replacement(t, order, rng.randint(-99, 99), rng.randint(1, 9))
            rows = Counter((g1, g2) for g1, g2, *_ in t.rows())
            assert Counter((g1, g2) for g1, g2, *_ in out.rows()) == rows
            assert set(out.rows()) <= set(t.rows())

    def test_mix_is_one_function_on_ints_and_int64_arrays(self):
        rng = random.Random(30)
        xs = [0, 1, STATES - 1] + [rng.randrange(STATES) for _ in range(1000)]
        mixed = mix(np.array(xs, dtype=np.int64))
        assert mixed.dtype == np.int64
        assert mixed.tolist() == [mix(x) for x in xs]
        assert len(set(mixed.tolist())) == len(xs)  # a bijection keeps them distinct
        assert all(0 <= y < STATES for y in mixed.tolist())


class TestDrawOrder:
    # The rows as the bootstrap SQL's ROW_NUMBER() numbers them: slice by
    # slice, and within a slice by the read columns in sqlite's order.

    def test_text_sorts_nulls_first_then_by_code_point(self):
        t = Table.from_dict({"s": ["b", None, "B", "é", "", "a", None, "Z"]})
        rows, row_number, slice_size = draw_order(t, (), ("s",))
        assert [t.column("s").values[i] for i in rows] == [
            None, None, "", "B", "Z", "a", "b", "é"]
        assert row_number.tolist() == list(range(1, 9)) and slice_size.tolist() == [8] * 8

    def test_numbers_sort_by_value_with_nan_among_the_nulls(self):
        # The NaN cell is a null, so it ties with the None cell, in either order.
        nan = float("nan")
        t = Table.from_dict({"x": [2.5, None, -1.0, nan, 10.0, -0.5]})
        rows, _, _ = draw_order(t, (), ("x",))
        assert rows[:2].tolist() in ([1, 3], [3, 1])
        assert rows[2:].tolist() == [2, 5, 0, 4]

    def test_later_columns_break_ties_within_each_slice(self):
        t = Table.from_dict({
            "g": ["p", "q", "p", "p", "q", "p"],
            "a": [2, 1, 1, 2, None, 1],
            "b": ["y", "x", "z", "x", "w", "a"],
        })
        rows, row_number, slice_size = draw_order(t, ("g",), ("a", "b"))
        assert rows.tolist() == [5, 2, 3, 0, 4, 1]
        assert row_number.tolist() == [1, 2, 3, 4, 1, 2]
        assert slice_size.tolist() == [4, 4, 4, 4, 2, 2]


class TestCoerceCell:
    @pytest.mark.parametrize("number, text", [
        (1e20, "1.0e+20"), (1 / 3, "0.333333333333333"), (3.0, "3.0"), (1e15, "1.0e+15"),
        (1.5e-07, "1.5e-07"), (-0.0, "0.0"), (123456.5, "123456.5"), (math.inf, "Inf"),
        (-math.inf, "-Inf"), (7, "7"),
    ])
    def test_a_number_meets_text_as_sqlite_renders_it(self, number, text):
        con = sqlite3.connect(":memory:")
        assert con.execute("SELECT CAST(? AS TEXT)", (number,)).fetchone() == (text,)
        assert coerce_cell(number, TEXT) == text

    def test_numeric_text_meets_numbers_as_that_number(self):
        assert coerce_cell("1.0", INT) == 1.0 and coerce_cell("2", FLOAT) == 2
        assert coerce_cell("one", INT) == "one"

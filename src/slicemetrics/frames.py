"""Result frames: keyed rows of float values produced by evaluation."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .table import Cell, format_cell


@dataclass(frozen=True)
class ResultFrame:
    """Evaluation output: one row per slice key, one value per metric name.

    Each row is ``(key, values)``: ``key`` is a tuple of cells aligned with
    ``key_columns``, and ``values`` a tuple of floats aligned with
    ``value_columns``. Key columns are the split_by dimensions followed by any
    dimensions the operations introduced, outermost operation first. A slice
    with no finite result carries NaN.
    """

    key_columns: tuple[str, ...]
    value_columns: tuple[str, ...]
    rows: tuple[tuple[tuple[Cell, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        seen = set()
        for key, values in self.rows:
            if key in seen:
                raise ValueError(f"duplicate slice key: {key}")
            seen.add(key)
            if len(key) != len(self.key_columns):
                raise ValueError(
                    f"row key {key} has {len(key)} cells, expected {len(self.key_columns)}"
                )
            if len(values) != len(self.value_columns):
                raise ValueError(
                    f"row for {key} has {len(values)} values,"
                    f" expected {len(self.value_columns)}"
                )

    def single_value(self) -> float:
        """The one value of a one-row, one-column frame."""
        if len(self.rows) != 1 or len(self.value_columns) != 1:
            raise ValueError("frame is not a single scalar result")
        return self.rows[0][1][0]

    def sorted_rows(self) -> list[tuple[tuple[Cell, ...], tuple[float, ...]]]:
        """Rows by key, cell by cell: nulls, then numbers, then text by code point.

        This is SQLite's ascending ``ORDER BY``.
        """
        return sorted(self.rows, key=lambda row: _order_token(row[0]))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.key_columns + self.value_columns)
        for key, values in self.rows:
            writer.writerow(
                [format_cell(v) for v in key] + [_format_value(v) for v in values]
            )
        return out.getvalue()

    def to_text(self) -> str:
        """Aligned, human-readable rendering."""
        header = list(self.key_columns + self.value_columns)
        body = [
            [format_cell(v) for v in key] + [_format_value(v) for v in values]
            for key, values in self.rows
        ]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
            "  ".join("-" * w for w in widths),
        ]
        for row in body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines) + "\n"


def _format_value(v: float) -> str:
    if math.isnan(v):
        return "NaN"
    return repr(v)


def _order_token(values: tuple[Cell, ...]):
    # Nulls, then numbers, then text: a hand-built frame may mix types in a key column.
    return [(0, 0) if v is None else (2, v) if isinstance(v, str) else (1, v) for v in values]

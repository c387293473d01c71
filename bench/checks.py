"""Result checks: every output is compared with the reference or its properties.

Results reach the checks as a header plus rows of cells, whether they came
from ``ResultFrame.to_csv``, the CLI's text table or a sqlite cursor, so the
checks depend only on what a user sees. A failed check explains itself on
stderr and returns False.
"""

from __future__ import annotations

import csv
import io
import math
import sys

from inputs import RTOL, Expected

def fail(message: str) -> bool:
    print(f"check failed: {message}", file=sys.stderr)
    return False


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    header, *rows = list(csv.reader(io.StringIO(text)))
    return header, rows


def parse_text_table(text: str) -> tuple[list[str], list[list[str]]]:
    """Parse ``ResultFrame.to_text`` output (cells hold no spaces in these workloads)."""
    lines = text.splitlines()
    return lines[0].split(), [line.split() for line in lines[2:]]


def keyed(header, rows, dims, values) -> dict[tuple[str, ...], tuple[float, ...]] | None:
    """Rows keyed by the cells of ``dims``; None when a column is missing or a key repeats."""
    try:
        key_at = [header.index(d) for d in dims]
        value_at = [header.index(v) for v in values]
    except ValueError:
        fail(f"columns {header} do not hold {list(dims) + list(values)}")
        return None
    out = {}
    for row in rows:
        key = tuple(str(row[i]) for i in key_at)
        if key in out:
            fail(f"duplicate key {key}")
            return None
        out[key] = tuple(_number(row[i]) for i in value_at)
    return out


def _number(cell) -> float:
    if cell is None:
        return math.nan
    return float(cell)


def matches(header, rows, want: Expected) -> bool:
    """Same key set as the reference and every value within RTOL of it."""
    got = keyed(header, rows, want.dims, want.values)
    if got is None:
        return False
    if set(got) != set(want.rows):
        return fail(f"keys differ: got {sorted(got)}, want {sorted(want.rows)}")
    for key, expected in want.rows.items():
        for name, g, w in zip(want.values, got[key], expected):
            if not (g == w or abs(g - w) <= RTOL * max(1.0, abs(w))):
                return fail(f"{name} at {key}: got {g!r}, want {w!r}")
    return True


def bootstrap_ok(header, rows, dims, value, keys, zero_keys=(), band=None) -> bool:
    """Properties of a bootstrap SE that hold whatever the random draw.

    The key set equals the point estimate's; SEs are finite and positive,
    except at ``zero_keys`` (a change's baseline rows, 0 in every replicate);
    with ``band = (analytic SE by key, low, high)`` each SE lies within
    [low, high] times the analytic SE.
    """
    got = keyed(header, rows, dims, (value,))
    if got is None:
        return False
    if set(got) != set(keys):
        return fail(f"bootstrap keys differ: got {sorted(got)}, want {sorted(keys)}")
    for key, (se,) in got.items():
        if key in zero_keys:
            if se != 0.0:
                return fail(f"{value} at baseline {key} is {se!r}, not 0")
        elif not (math.isfinite(se) and se > 0.0):
            return fail(f"{value} at {key} is {se!r}, not finite and positive")
    if band is not None:
        analytic, low, high = band
        for key, (se,) in got.items():
            if not low <= se / analytic[key] <= high:
                return fail(f"{value} at {key}: {se!r} is outside [{low:.2f}, {high:.2f}]"
                            f" x the analytic SE {analytic[key]!r}")
    return True


def band_for(n_rep: int) -> tuple[float, float]:
    """Range of SE / analytic SE that a sample SD over n_rep replicates stays in.

    The relative standard error of a sample SD from n_rep draws is about
    1 / sqrt(2 (n_rep - 1)). The band spans 4 of those below 1 and 5 above
    (the sample SD is skewed right), so a sound bootstrap leaves it with a
    probability below 1e-4 per key.
    """
    r = 1.0 / math.sqrt(2.0 * (n_rep - 1))
    return max(1.0 - 4.0 * r, 0.05), 1.0 + 5.0 * r

"""Seeded event tables for the benchmark and their reference results.

The reference is computed here with numpy from the generated columns, never
with slicemetrics, so that a defect in the library cannot hide in its own
yardstick. Reference results are ``Expected`` objects: key cells as the CSV
text the library reads, values as float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REGIONS = ("north", "south", "east", "west", "central", "coast", "hills", "islands")
PLATFORMS = ("android", "ios", "web", "tv")
ARMS = ("control", "t1", "t2")
BASE_ARM = ARMS[0]  # the reference indexes baselines at 0
BASE_PLATFORM = PLATFORMS[0]
CHURN_BY_ARM = (0.20, 0.17, 0.23)
FILLER_COLUMNS = 9
ALL_CELLS = len(REGIONS) * len(PLATFORMS) * len(ARMS)

# Compute results are rounded sums over at most 50k float64 terms. The
# worst-case relative error of a naive sum of n terms is n * 2**-53 (5.6e-12
# at n = 50k); percent change multiplies it by 100 and the ratios by two more
# roundings, so 1e-8 of the value (or of 1 for values near 0) still leaves two
# orders of magnitude of margin while catching any change of 1e-6 relative.
RTOL = 1e-8


@dataclass
class Events:
    """Generated columns: dimension codes and typed measures (NaN = empty cell)."""

    region: np.ndarray
    platform: np.ndarray
    arm: np.ndarray
    user: np.ndarray
    lost: np.ndarray
    revenue: np.ndarray
    sessions: np.ndarray
    filler: dict[str, list[str]]

    @property
    def rows(self) -> int:
        return len(self.region)

    def text_columns(self) -> dict[str, list[str]]:
        """Every column as the CSV cells that encode it."""
        revenue = ["" if math.isnan(v) else f"{v:.2f}" for v in self.revenue.tolist()]
        cols = {
            "region": [REGIONS[i] for i in self.region.tolist()],
            "platform": [PLATFORMS[i] for i in self.platform.tolist()],
            "arm": [ARMS[i] for i in self.arm.tolist()],
            "user": [f"u{i:05d}" for i in self.user.tolist()],
            "lost": [str(v) for v in self.lost.tolist()],
            "revenue": revenue,
            "sessions": [str(v) for v in self.sessions.tolist()],
        }
        cols.update(self.filler)
        return cols

    def csv_bytes(self) -> bytes:
        cols = self.text_columns()
        lines = [",".join(cols)]
        lines.extend(",".join(row) for row in zip(*cols.values()))
        return ("\n".join(lines) + "\n").encode()

    def sql_rows(self) -> tuple[dict[str, str], list[tuple]]:
        """Column affinities and typed rows for loading into sqlite."""
        cols = self.text_columns()
        types = {name: "TEXT" for name in cols}
        types.update(lost="INTEGER", sessions="INTEGER", revenue="REAL")
        typed = dict(cols)
        typed["lost"] = self.lost.tolist()
        typed["sessions"] = self.sessions.tolist()
        typed["revenue"] = [None if math.isnan(v) else v for v in self.revenue.tolist()]
        for name in self.filler:
            if name.startswith("score"):
                types[name] = "REAL"
                typed[name] = [float(v) for v in cols[name]]
        return types, list(zip(*typed.values()))


def generate(rows: int, users: int, seed: int, filler: bool = False) -> Events:
    """Draw an event table; the first rows fill every region x platform x arm cell."""
    if rows < ALL_CELLS:
        raise ValueError(f"need at least {ALL_CELLS} rows to fill every cell")
    rng = np.random.default_rng(seed)
    region = rng.integers(len(REGIONS), size=rows)
    platform = rng.integers(len(PLATFORMS), size=rows)
    arm = rng.integers(len(ARMS), size=rows)
    cell = np.arange(ALL_CELLS)
    region[:ALL_CELLS] = cell // (len(PLATFORMS) * len(ARMS))
    platform[:ALL_CELLS] = (cell // len(ARMS)) % len(PLATFORMS)
    arm[:ALL_CELLS] = cell % len(ARMS)
    user = rng.integers(users, size=rows)
    lost = (rng.random(rows) < np.take(CHURN_BY_ARM, arm)).astype(np.int64)
    # Cents keep every revenue exactly representable as the decimal text the
    # CSV carries: cents / 100 and float("12.34") round to the same double.
    cents = rng.gamma(2.0, 2500.0, size=rows).astype(np.int64) + 1
    revenue = cents / 100.0
    revenue[rng.random(rows) < 0.05] = np.nan
    sessions = rng.poisson(4.0 + 0.4 * arm + 0.3 * platform + 0.2 * arm * platform)
    extra: dict[str, list[str]] = {}
    if filler:
        for i in range(FILLER_COLUMNS):
            draws = rng.integers(100_000, size=rows).tolist()
            if i % 2:
                extra[f"score{i}"] = [f"{v // 1000}.{v % 1000:03d}" for v in draws]
            else:
                extra[f"note{i}"] = [f"k{v}" for v in draws]
    return Events(region, platform, arm, user, lost, revenue, sessions.astype(np.int64), extra)


@dataclass(frozen=True)
class Expected:
    """Reference result: key cells (in ``dims`` order) to values (in ``values`` order)."""

    dims: tuple[str, ...]
    values: tuple[str, ...]
    rows: dict[tuple[str, ...], tuple[float, ...]]


def _labels(name: str) -> tuple[str, ...]:
    return {"region": REGIONS, "platform": PLATFORMS, "arm": ARMS}[name]


def _grouped(ev: Events, dims: tuple[str, ...], weights: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sums (or counts) over the full grid of ``dims``, shaped by the dims."""
    shape = tuple(len(_labels(d)) for d in dims)
    codes = np.ravel_multi_index(tuple(getattr(ev, d) for d in dims), shape)
    return np.bincount(codes, weights=weights, minlength=math.prod(shape)).reshape(shape)


def _frame(dims: tuple[str, ...], values: tuple[str, ...], *arrays: np.ndarray) -> Expected:
    rows = {}
    for index in np.ndindex(arrays[0].shape):
        key = tuple(_labels(d)[i] for d, i in zip(dims, index))
        rows[key] = tuple(float(a[index]) for a in arrays)
    return Expected(dims, values, rows)


class Reference:
    """Group statistics of one event table, computed once during set-up."""

    def __init__(self, ev: Events):
        self.ev = ev
        self._revenue_ok = ~np.isnan(ev.revenue)
        self._revenue = np.where(self._revenue_ok, ev.revenue, 0.0)

    def churn(self, dims) -> np.ndarray:
        return _grouped(self.ev, dims, self.ev.lost.astype(float)) / _grouped(self.ev, dims)

    def revenue_stats(self, dims):
        """(count, sum, mean, sample sd) of the non-empty revenue cells per cell."""
        ok = self._revenue_ok.astype(float)
        count = _grouped(self.ev, dims, ok)
        total = _grouped(self.ev, dims, self._revenue)
        mean = total / count
        at = np.ravel_multi_index(tuple(getattr(self.ev, d) for d in dims), count.shape)
        centred = (self._revenue - mean.ravel()[at]) * ok
        ss = _grouped(self.ev, dims, centred * centred)
        return count, total, mean, np.sqrt(ss / (count - 1))

    def mean_sessions(self, dims) -> np.ndarray:
        return _grouped(self.ev, dims, self.ev.sessions.astype(float)) / _grouped(self.ev, dims)

    # -- the trees the workloads run ------------------------------------------

    def churn_by_region(self) -> Expected:
        return _frame(("region",), ("churn",), self.churn(("region",)))

    def churn_change_by_region(self) -> Expected:
        c = self.churn(("region", "arm"))
        pct = (c / c[:, [0]] - 1.0) * 100.0
        pct[:, 0] = 0.0
        return _frame(("region", "arm"), ("pct_change_of_churn",), pct)

    def revenue_share_by_region(self) -> Expected:
        total = self.revenue_stats(("region", "platform"))[1]
        share = total / total.sum(axis=1, keepdims=True)
        return _frame(("region", "platform"), ("distribution_of_sum_revenue",), share)

    def upper_ci(self) -> Expected:
        count, _, mean, sd = self.revenue_stats(("region", "platform"))
        return _frame(("region", "platform"), ("upper_ci",), mean + 1.96 * sd / count**0.5)

    def sessions_did(self) -> Expected:
        m = self.mean_sessions(("platform", "arm"))
        by_arm = m - m[:, [0]]
        did = by_arm - by_arm[[0], :]
        return _frame(("platform", "arm"), ("abs_change_of_abs_change_of_mean_sessions",), did)

    def joint_by_region_arm(self) -> Expected:
        dims = ("region", "arm")
        lost = _grouped(self.ev, dims, self.ev.lost.astype(float))
        count = _grouped(self.ev, dims).astype(float)
        mean = self.revenue_stats(dims)[2]
        return _frame(dims, ("churn", "sum_lost", "count_lost", "mean_revenue"),
                      lost / count, lost, count, mean)

    def mean_revenue(self, dims) -> Expected:
        return _frame(dims, ("mean_revenue",), self.revenue_stats(dims)[2])

    def mean_revenue_share(self) -> Expected:
        mean = self.revenue_stats(("platform",))[2]
        return _frame(("platform",), ("distribution_of_mean_revenue",), mean / mean.sum())

    def jackknife_mean_revenue(self, units: int) -> Expected:
        """Delete-one-user SE of mean revenue per platform, from leave-one-out totals."""
        shape = (len(PLATFORMS), units)
        at = np.ravel_multi_index((self.ev.platform, self.ev.user), shape)
        ok = self._revenue_ok.astype(float)
        part_n = np.bincount(at, weights=ok, minlength=math.prod(shape)).reshape(shape)
        part_s = np.bincount(at, weights=self._revenue, minlength=math.prod(shape)).reshape(shape)
        present = np.bincount(self.ev.user, minlength=units) > 0
        estimates = ((part_s.sum(1, keepdims=True) - part_s)
                     / (part_n.sum(1, keepdims=True) - part_n))[:, present]
        k = estimates.shape[1]
        dev = estimates - estimates.mean(axis=1, keepdims=True)
        se = np.sqrt((k - 1) / k * (dev * dev).sum(axis=1))
        return _frame(("platform",), ("se_mean_revenue",), se)

    def mean_revenue_se(self) -> dict[tuple[str, ...], float]:
        """Analytic SE s / sqrt(n) of mean revenue per platform."""
        count, _, _, sd = self.revenue_stats(("platform",))
        return {(p,): float(s / math.sqrt(n)) for p, s, n in zip(PLATFORMS, sd, count)}

"""The benchmark's workloads: seeded inputs, one round of operations, and checks.

A round is a fixed list of operations; the runner repeats whole rounds, so
every tree of a workload is timed equally often. Each operation reports under
a path: ``compute`` (``compute_on``, or the CLI in compute mode) or ``sql``
(``to_sql`` plus render plus sqlite, or the CLI in SQL mode plus sqlite).

Why these workloads:

- slice-explore: a notebook session. One table is loaded once, then many
  plain trees run on it, so grouping, leaf reduction and frame arithmetic do
  the work; sqlite runs the same trees on the same rows as the yardstick.
- resample-se: standard errors. Per-replicate work dominates (table copies,
  fingerprints, a cache that grows per replicate; on the SQL side the
  n x n_rep temp table and its self-join), and plain grouping matters little.
- cli-oneshot: the command line. Every call parses a 16-column CSV, of
  which the metrics read two or three columns, then parses the program and
  renders the frame; nothing is reused between calls.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass
from typing import Callable

import slicemetrics as sm
import slicemetrics.cli

from checks import band_for, bootstrap_ok, fail, matches, parse_csv, parse_text_table
from inputs import BASE_ARM, BASE_PLATFORM, PLATFORMS, REGIONS, Reference, generate
from sqlite_runner import SqliteRunner
from tracer import Tracer

TABLE = "events"

# Input sizes. FULL is what the benchmark measures; TINY is for the self-test.
FULL = {
    "slice-explore": {"rows": 50_000, "users": 2_000},
    "resample-se": {"rows": 2_000, "users": 40, "n_rep": 20},
    "cli-oneshot": {"rows": 10_000, "users": 2_000},
}
# TINY keeps resample-se's 2,000 rows (about 83 per region x arm cell): with
# fewer, a control cell's churn is often 0, and percent change divides by it.
TINY = {
    "slice-explore": {"rows": 2_000, "users": 50},
    "resample-se": {"rows": 2_000, "users": 20, "n_rep": 5},
    "cli-oneshot": {"rows": 2_000, "users": 50},
}

SETUP_REPEATS = (3, 200)  # read the CSV at least 3 and at most 200 times ...
SETUP_BUDGET_S = 1.0  # ... stopping once this much time has been spent


@dataclass
class Op:
    path: str  # "compute" or "sql"
    label: str
    call: Callable[[], object]  # the timed work
    check: Callable[[object], bool]  # untimed, against the reference
    temp_table: bool = False  # a bootstrap query: count, then drop, sqlite's temp table


@dataclass
class Workload:
    name: str
    rows: int
    setup_s: list[float]
    ops: list[Op]
    runner: SqliteRunner
    tracer: Tracer
    workdir: str | None = None

    def close(self):
        self.runner.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def load_table(csv_bytes: bytes, clock) -> tuple[list[float], object]:
    """Time read_csv on the workload's bytes several times; return times and the table."""
    times: list[float] = []
    table = None
    low, high = SETUP_REPEATS
    spent = 0.0
    while len(times) < low or (len(times) < high and spent < SETUP_BUDGET_S):
        started = time.perf_counter()
        table = sm.read_csv(csv_bytes)
        elapsed = time.perf_counter() - started
        spent += elapsed
        times.append(clock.scaled(elapsed))
    return times, table


def build(name: str, seed: int, sizes: dict, workdir: str, clock) -> Workload:
    builders = {"slice-explore": _slice_explore, "resample-se": _resample_se,
                "cli-oneshot": _cli_oneshot}
    return builders[name](seed, sizes[name], workdir, clock)


def _runner_for(events) -> SqliteRunner:
    runner = SqliteRunner()
    runner.load(TABLE, *events.sql_rows())
    return runner


def _churn():
    return (sm.Sum("lost") / sm.Count("lost")).set_names(["churn"])


# -- operation factories ---------------------------------------------------------


def _compute_op(tracer: Tracer, label, metric, table, split_by, check) -> Op:
    def call():
        ctx = sm.EvalContext()
        frame = sm.compute_on(metric, table, split_by, ctx)
        if tracer.recording:
            tracer.contexts.append(ctx)
        return frame

    def check_frame(frame):
        return check(*parse_csv(frame.to_csv()))

    return Op("compute", label, call, check_frame)


def _sql_op(tracer: Tracer, runner, label, metric, split_by, check, temp=False) -> Op:
    def call():
        script = sm.to_sql(metric, TABLE, split_by).render()
        with tracer.span("sqlite.execute"):
            return runner.run(script)

    return Op("sql", label, call, lambda result: check(*result), temp_table=temp)


def _same_as_first(store: dict, label: str, payload) -> bool:
    """A repeat of a seeded tree must give byte-identical output within a run."""
    first = store.setdefault(label, payload)
    return first == payload


# -- workloads -----------------------------------------------------------------------


def _slice_explore(seed: int, size: dict, workdir: str, clock) -> Workload:
    events = generate(size["rows"], size["users"], seed)
    ref = Reference(events)
    setup_s, table = load_table(events.csv_bytes(), clock)
    runner = _runner_for(events)
    tracer = Tracer()
    churn = _churn()
    changed = churn | sm.PercentChange("arm", BASE_ARM)
    share = sm.Sum("revenue") | sm.Distribution("platform")
    upper = (sm.Mean("revenue") + 1.96 * sm.StdDev("revenue") / sm.Count("revenue") ** 0.5)
    upper = upper.set_names(["upper_ci"])
    did = (sm.Mean("sessions") | sm.AbsoluteChange("arm", BASE_ARM)
           | sm.AbsoluteChange("platform", BASE_PLATFORM))
    joint = [churn, sm.Sum("lost"), sm.Count("lost"), sm.Mean("revenue")]

    def matching(want):
        return lambda header, rows: matches(header, rows, want)

    churn_ref = matching(ref.churn_by_region())
    changed_ref = matching(ref.churn_change_by_region())
    share_ref = matching(ref.revenue_share_by_region())
    did_ref = matching(ref.sessions_did())
    compute = [
        ("churn", churn, ("region",), churn_ref),
        ("churn_change", changed, ("region",), changed_ref),
        ("revenue_share", share, ("region",), share_ref),
        ("upper_ci", upper, ("region", "platform"), matching(ref.upper_ci())),
        ("sessions_did", did, (), did_ref),
        ("joint", joint, ("region", "arm"), matching(ref.joint_by_region_arm())),
    ]
    sql = [
        ("churn", churn, ("region",), churn_ref),
        ("churn_change", changed, ("region",), changed_ref),
        ("revenue_share", share, ("region",), share_ref),
        ("sessions_did", did, (), did_ref),
        ("mean_revenue", sm.Mean("revenue"), ("region", "platform"),
         matching(ref.mean_revenue(("region", "platform")))),
    ]
    ops = [_compute_op(tracer, label, metric, table, split, check)
           for label, metric, split, check in compute]
    # The SQL trees run twice per round: they are ten times cheaper, and the
    # extra samples keep the SQL p90 on at least ten operations beyond it.
    ops += [_sql_op(tracer, runner, label, metric, split, check)
            for label, metric, split, check in sql] * 2
    return Workload("slice-explore", events.rows, setup_s, ops, runner, tracer)


def _resample_se(seed: int, size: dict, workdir: str, clock) -> Workload:
    events = generate(size["rows"], size["users"], seed)
    ref = Reference(events)
    setup_s, table = load_table(events.csv_bytes(), clock)
    runner = _runner_for(events)
    tracer = Tracer()
    n_rep = size["n_rep"]
    boot_change = _churn() | sm.PercentChange("arm", BASE_ARM) | sm.Bootstrap(n_rep, seed)
    boot_mean = sm.Mean("revenue") | sm.Bootstrap(n_rep, seed)
    jack_mean = sm.Mean("revenue") | sm.Jackknife("user")
    change_keys = set(ref.churn_change_by_region().rows)
    baseline_keys = {(r, BASE_ARM) for r in REGIONS}
    platform_keys = {(p,) for p in PLATFORMS}
    band = (ref.mean_revenue_se(), *band_for(n_rep))
    first: dict = {}

    def change_ok(label):
        def check(header, rows):
            return (bootstrap_ok(header, rows, ("region", "arm"), "se_pct_change_of_churn",
                                 change_keys, baseline_keys)
                    and _same_as_first(first, label, repr(rows)))
        return check

    def mean_ok(label):
        def check(header, rows):
            return (bootstrap_ok(header, rows, ("platform",), "se_mean_revenue",
                                 platform_keys, band=band)
                    and _same_as_first(first, label, repr(rows)))
        return check

    jack_ref = ref.jackknife_mean_revenue(size["users"])
    ops = [
        _compute_op(tracer, "boot_change", boot_change, table, ("region",),
                    change_ok("compute:boot_change")),
        _compute_op(tracer, "boot_mean", boot_mean, table, ("platform",),
                    mean_ok("compute:boot_mean")),
        _compute_op(tracer, "jackknife_mean", jack_mean, table, ("platform",),
                    lambda header, rows: matches(header, rows, jack_ref)),
        _sql_op(tracer, runner, "boot_change", boot_change, ("region",),
                change_ok("sql:boot_change"), temp=True),
        _sql_op(tracer, runner, "boot_mean", boot_mean, ("platform",),
                mean_ok("sql:boot_mean"), temp=True),
    ]
    return Workload("resample-se", events.rows, setup_s, ops, runner, tracer)


def _cli_oneshot(seed: int, size: dict, workdir: str, clock) -> Workload:
    events = generate(size["rows"], size["users"], seed, filler=True)
    ref = Reference(events)
    csv_bytes = events.csv_bytes()
    setup_s, _ = load_table(csv_bytes, clock)
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"{TABLE}.csv")
    with open(path, "wb") as handle:
        handle.write(csv_bytes)
    runner = _runner_for(events)
    tracer = Tracer()

    def cli(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = slicemetrics.cli.main(["--input", path, *argv])
        return code, out.getvalue(), err.getvalue()

    def compute_call(*argv):
        return lambda: cli(*argv)

    def sql_call():
        code, out, err = cli("--metric", "mean(revenue) | distribution(platform)",
                             "--mode", "sql")
        if code != 0:
            return code, out, err, None
        with tracer.span("sqlite.execute"):
            return code, out, err, runner.run(out)

    def exited_ok(code, err) -> bool:
        if code != 0:
            return fail(f"CLI exited {code}: {err.strip()[:200]}")
        return True

    churn = ref.churn_by_region()
    change = ref.churn_change_by_region()
    share = ref.mean_revenue_share()
    churn_program = 'sum(lost) / count(lost) as "churn"'
    csv_op = Op("compute", "churn_csv",
                 compute_call("--metric", churn_program, "--split-by", "region"),
                 lambda r: exited_ok(r[0], r[2]) and matches(*parse_csv(r[1]), churn))
    table_op = Op("compute", "change_table",
                   compute_call("--metric", f'{churn_program} | percent_change(arm, "{BASE_ARM}")',
                                "--split-by", "region", "--format", "table"),
                   lambda r: exited_ok(r[0], r[2]) and matches(*parse_text_table(r[1]), change))
    sql_op = Op("sql", "share_sql", sql_call,
                 lambda r: exited_ok(r[0], r[2]) and matches(*r[3], share))
    # The SQL call runs after each compute call, so both paths get equally
    # many samples.
    ops = [csv_op, sql_op, table_op, sql_op]
    return Workload("cli-oneshot", events.rows, setup_s, ops, runner, tracer, workdir)


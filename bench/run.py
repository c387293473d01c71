"""slicemetrics benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload slice-explore --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
One caller in one process runs whole rounds of the workload's operations
back to back (a closed loop), for at least ``--seconds`` and until each path
has at least 100 timed operations. Every result is checked against a
reference computed by the benchmark itself. Times are scaled to a reference
machine speed measured between operations (see clock.py).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced rounds alternate; the last line holds
the per-layer metrics of the traced rounds, per round, and the spans go to
``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("slice-explore", "resample-se", "cli-oneshot")
MIN_OPS = 100  # per path per run: a p90 with at least ten samples beyond it
CAP_S = 140.0  # stop the timed loop here whatever the op count, to exit within 180 s

END_TO_END = {
    "setup_s": "s",
    "compute_s_p50": "s",
    "compute_s_p90": "s",
    "compute_rows_per_s": "rows/s",
    "sql_s_p50": "s",
    "sql_s_p90": "s",
    "sql_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, tracer source). Sources are "calls:<span>",
# "self:<span>" or "count:<counter>"; the rest are derived below.
PER_LAYER = {
    "table.read_csv.calls": ("count", "calls:table.read_csv"),
    "table.read_csv.self_s": ("s", "self:table.read_csv"),
    "table.read_csv.cells": ("count", "count:table.read_csv.cells"),
    "table.group_rows.calls": ("count", "calls:table.group_rows"),
    "table.group_rows.self_s": ("s", "self:table.group_rows"),
    "table.group_rows.groups_out": ("count", "count:table.group_rows.groups_out"),
    "table.Table.take.calls": ("count", "calls:table.Table.take"),
    "table.Table.take.self_s": ("s", "self:table.Table.take"),
    "table.Table.take.cells_copied": ("count", "count:table.Table.take.cells_copied"),
    "table.Table.fingerprint.calls": ("count", "calls:table.Table.fingerprint"),
    "table.Table.fingerprint.self_s": ("s", "self:table.Table.fingerprint"),
    "table.resample_with_replacement.calls": ("count", "calls:table.resample_with_replacement"),
    "table.resample_with_replacement.self_s": ("s", "self:table.resample_with_replacement"),
    "metrics.serialize.calls": ("count", "calls:metrics.serialize"),
    "metrics.serialize.self_s": ("s", "self:metrics.serialize"),
    "compute.eval_leaf.calls": ("count", "calls:compute.eval_leaf"),
    "compute.eval_leaf.self_s": ("s", "self:compute.eval_leaf"),
    "compute.eval_composite.calls": ("count", "calls:compute.eval_composite"),
    "compute.eval_composite.self_s": ("s", "self:compute.eval_composite"),
    "compute.compute_on.calls": ("count", "calls:compute.compute_on"),
    "compute.compute_on.self_s": ("s", "self:compute.compute_on"),
    "compute.cache.hits": ("count", "count:compute.cache.hits"),
    "compute.cache.entries": ("count", "count:compute.cache.entries"),
    "compute.cache.hit_ratio": ("ratio", None),
    "compute.warnings": ("count", "count:compute.warnings"),
    "frames.ResultFrame.created": ("count", "count:frames.ResultFrame.created"),
    "frames.ResultFrame.rows": ("count", "count:frames.ResultFrame.rows"),
    "frames.ResultFrame.self_s": ("s", "self:frames.ResultFrame"),
    "frames.render.self_s": ("s", "self:frames.render"),
    "sqlgen.to_sql.calls": ("count", "calls:sqlgen.to_sql"),
    "sqlgen.to_sql.self_s": ("s", "self:sqlgen.to_sql"),
    "sqlgen.sql_bytes": ("bytes", "count:sqlgen.to_sql.sql_bytes"),
    "sqlite.execute.calls": ("count", "calls:sqlite.execute"),
    "sqlite.execute.self_s": ("s", "self:sqlite.execute"),
    "sqlite.temp_rows": ("count", "count:sqlite.temp_rows"),
    "dsl.parse.calls": ("count", "calls:dsl.parse"),
    "dsl.parse.self_s": ("s", "self:dsl.parse"),
    "cli.main.calls": ("count", "calls:cli.main"),
    "cli.main.self_s": ("s", "self:cli.main"),
    "trace.overhead_ratio": ("ratio", None),
}

# What the traced run should show at this commit: a layer fires on the
# workload where it has its main effect, stays at 0 where it is predicted
# not to run, and "small" bounds a layer's self time to a share of the
# round's operation time.
PREDICTIONS = {
    "slice-explore": {
        "fires": ["table.group_rows.calls", "compute.eval_leaf.calls",
                  "compute.eval_composite.calls", "compute.cache.hits",
                  "sqlgen.to_sql.calls", "sqlite.execute.calls"],
        "zero": ["table.read_csv.calls", "table.resample_with_replacement.calls",
                 "sqlite.temp_rows", "dsl.parse.calls", "cli.main.calls"],
        "small": {},
    },
    "resample-se": {
        "fires": ["table.Table.take.calls", "table.Table.fingerprint.calls",
                  "table.resample_with_replacement.calls", "metrics.serialize.calls",
                  "compute.compute_on.calls", "compute.cache.entries",
                  "frames.ResultFrame.created", "sqlite.execute.calls", "sqlite.temp_rows"],
        "zero": ["table.read_csv.calls", "dsl.parse.calls", "cli.main.calls"],
        "small": {},
    },
    "cli-oneshot": {
        "fires": ["table.read_csv.calls", "table.group_rows.calls",
                  "frames.ResultFrame.created", "frames.render.self_s",
                  "dsl.parse.calls", "cli.main.calls"],
        "zero": ["table.resample_with_replacement.calls", "sqlite.temp_rows"],
        # The SQL-mode call compiles one small tree per call.
        "small": {"sqlgen.to_sql.self_s": 0.01},
    },
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library():
    """Import slicemetrics from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import slicemetrics
    import slicemetrics.cli  # noqa: F401  (the CLI workload calls it)

    if not Path(slicemetrics.__file__).resolve().is_relative_to(src):
        raise ImportError(f"slicemetrics was imported from {slicemetrics.__file__}, not {src}")


def median_of_medians(samples: dict[str, list[float]]) -> float:
    """Median over a path's trees of each tree's median time.

    The pooled median of a rotation of trees with distinct costs sits in the
    gap between two trees' clusters and jumps with single outliers; the
    median of per-tree medians does not.
    """
    return statistics.median(statistics.median(times) for times in samples.values())


def p90(samples: dict[str, list[float]]) -> float:
    pooled = [t for times in samples.values() for t in times]
    return statistics.quantiles(pooled, n=10)[-1]


class Runner:
    """Runs a workload's rounds, timing and checking each operation."""

    def __init__(self, wl, clock):
        self.wl = wl
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.op_time = 0.0  # summed operation time of traced rounds

    def run_op(self, op, samples):
        tracer = self.wl.tracer
        self.attempted += 1
        result, ok = None, True
        started = time.perf_counter()
        try:
            with tracer.span(f"bench.{op.path}"):
                result = op.call()
        except Exception:  # a failed operation is counted, and the run goes on
            ok = False
            if self.failed < 5:
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - started
        if tracer.recording:
            self.op_time += elapsed
            self._harvest()
        elapsed = self.clock.scaled(elapsed)
        if op.temp_table:
            if tracer.recording:
                tracer.count("sqlite.temp_rows", self.wl.runner.temp_rows())
            self.wl.runner.drop_temp()
        with tracer.paused():
            if ok:
                try:
                    ok = bool(op.check(result))
                except Exception:  # a malformed result is a failed check
                    ok = False
                    traceback.print_exc(file=sys.stderr)
        if ok:
            samples[op.path].setdefault(op.label, []).append(elapsed)
        else:
            self.failed += 1

    def _harvest(self):
        tracer = self.wl.tracer
        for ctx in tracer.contexts:
            tracer.count("compute.cache.hits", getattr(ctx, "cache_hits", 0))
            tracer.count("compute.cache.entries", len(getattr(ctx, "cache", ())))
            tracer.count("compute.warnings", len(getattr(ctx, "warnings", ())))
        tracer.contexts.clear()

    def run_round(self, samples, traced=False, paths=("compute", "sql")):
        """Run the round's operations on the given paths, in the round's order."""
        tracer = self.wl.tracer
        if traced:
            tracer.install()
            tracer.recording = True
        try:
            for op in self.wl.ops:
                if op.path in paths:
                    self.run_op(op, samples)
        finally:
            if traced:
                tracer.recording = False
                tracer.uninstall()


def _settle():
    # The harness's own inputs and references are live for the whole run;
    # freezing them keeps the collector from rescanning them inside timed work.
    gc.collect()
    gc.freeze()


def measure(wl, clock, seconds: float, min_ops: int) -> tuple[Runner, dict]:
    runner = Runner(wl, clock)
    runner.run_round({"compute": {}, "sql": {}})  # warm-up: caches, lazy imports
    _settle()
    samples = {"compute": {}, "sql": {}}
    timed = {"compute": 0, "sql": 0}
    started = time.perf_counter()
    rounds = 0
    # A path whose operations are done (time is up and it has min_ops) drops
    # out of the rounds; the others go on, in whole rotations.
    while active := [path for path, n in timed.items()
                     if n < min_ops or time.perf_counter() - started < seconds]:
        if time.perf_counter() - started >= CAP_S:
            print(f"warning: {active} stopped short of {min_ops} operations at {CAP_S} s",
                  file=sys.stderr)
            break
        runner.run_round(samples, paths=active)
        for op in wl.ops:
            if op.path in active:
                timed[op.path] += 1
        rounds += 1
    metrics = {"setup_s": statistics.median(wl.setup_s)}
    for path, by_tree in samples.items():
        done = [t for times in by_tree.values() for t in times]
        if len(done) < 2:
            continue
        metrics[f"{path}_s_p50"] = median_of_medians(by_tree)
        metrics[f"{path}_s_p90"] = p90(by_tree)
        metrics[f"{path}_rows_per_s"] = wl.rows * len(done) / sum(done)
        trees = ", ".join(f"{label} {statistics.median(t) * 1e3:.2f}"
                          for label, t in by_tree.items())
        print(f"{path}: {len(done)} timed operations over {rounds} rounds;"
              f" median ms by tree: {trees}", file=sys.stderr)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return runner, {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END.items() if name in metrics}


def measure_traced(wl, clock, seconds: float) -> tuple[Runner, dict, list]:
    """Alternate untraced and traced rounds; per-layer metrics are per traced round."""
    runner = Runner(wl, clock)
    runner.run_round({"compute": {}, "sql": {}})
    _settle()
    plain = {"compute": {}, "sql": {}}
    wrapped = {"compute": {}, "sql": {}}
    started = time.perf_counter()
    rounds = 0
    while rounds < 2 or (time.perf_counter() - started < seconds
                         and time.perf_counter() - started < CAP_S):
        runner.run_round(plain)
        runner.run_round(wrapped, traced=True)
        rounds += 1
    tracer = wl.tracer
    values = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, key = source.split(":", 1)
        table = {"calls": tracer.calls, "self": tracer.self_s, "count": tracer.counts}[kind]
        values[name] = table.get(key, 0) / rounds
    hits, entries = values["compute.cache.hits"], values["compute.cache.entries"]
    values["compute.cache.hit_ratio"] = hits / (hits + entries) if hits + entries else 0.0
    values["trace.overhead_ratio"] = (median_of_medians(wrapped["compute"])
                                      / median_of_medians(plain["compute"]))
    checked = check_predictions(wl.name, values, runner.op_time / rounds)
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    return runner, metrics, checked


def check_predictions(workload: str, values: dict, op_s_per_round: float) -> list[dict]:
    rules = PREDICTIONS[workload]
    checked = [{"metric": n, "predicted": "> 0", "value": values[n], "ok": values[n] > 0}
               for n in rules["fires"]]
    checked += [{"metric": n, "predicted": "0", "value": values[n], "ok": values[n] == 0}
                for n in rules["zero"]]
    checked += [{"metric": n, "predicted": f"< {share:.0%} of operation time",
                 "value": values[n], "ok": values[n] < share * op_s_per_round}
                for n, share in rules["small"].items()]
    for item in checked:
        if not item["ok"]:
            print(f"prediction not met: {item['metric']} = {item['value']!r},"
                  f" predicted {item['predicted']}", file=sys.stderr)
    return checked


def main(argv=None, sizes=None, min_ops: int = MIN_OPS) -> int:
    args = parse_args(argv)
    try:
        import_library()
    except ImportError as err:
        print(f"error: cannot import the library: {err}", file=sys.stderr)
        return 2
    import workloads
    from clock import SpeedClock

    clock = SpeedClock()
    workdir = OUT / f"work-{os.getpid()}"
    wl = workloads.build(args.workload, args.seed, sizes or workloads.FULL, str(workdir), clock)
    try:
        if args.trace:
            runner, metrics, checked = measure_traced(wl, clock, args.seconds)
            OUT.mkdir(exist_ok=True)
            trace = {"workload": args.workload, "seed": args.seed,
                     "per_layer": {k: v["value"] for k, v in metrics.items()},
                     "predictions": checked, **wl.tracer.dump()}
            path = OUT / f"trace-{args.workload}-{args.seed}.json"
            path.write_text(json.dumps(trace))
        else:
            runner, metrics = measure(wl, clock, args.seconds, min_ops)
    finally:
        wl.close()
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

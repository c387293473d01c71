"""Self-test of the benchmark, at tiny input sizes:

    python3 bench/selftest.py

- smoke: each workload, untraced and traced, prints every metric that
  BENCHMARK.json names, with its unit, and no operation fails; the traced
  run meets every fire-count prediction;
- negative: one result changed by 1e-6 relative on each path is counted as a
  failed operation, so the checks cannot pass vacuously.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SEED = 20260
CORRUPTION = 1e-6


def _run(*argv: str) -> dict:
    import workloads

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv), sizes=workloads.TINY, min_ops=2)
    assert code == 0, f"{argv} exited {code}"
    return json.loads(out.getvalue().strip().splitlines()[-1])


def _expect_metrics(result: dict, declared: list[dict], argv):
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        f"{argv}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{argv}: {m['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{argv}: {m['name']} is not a number"


def smoke(spec: dict):
    for workload in run.WORKLOADS:
        argv = ("--workload", workload, "--seed", str(SEED), "--seconds", "0.2")
        plain = _run(*argv, "--trace", "0")
        _expect_metrics(plain, spec["end_to_end"], argv)
        assert plain["failed"] == 0 and plain["correct"], f"{workload}: {plain}"
        assert all(m["value"] > 0 for m in plain["metrics"].values()), plain
        traced = _run(*argv, "--trace", "1")
        _expect_metrics(traced, spec["per_layer"], argv)
        assert traced["failed"] == 0 and traced["correct"], f"{workload}: {traced}"
        trace = json.loads((run.OUT / f"trace-{workload}-{SEED}.json").read_text())
        missed = [p for p in trace["predictions"] if not p["ok"]]
        assert not missed, f"{workload}: predictions not met: {missed}"
        assert trace["spans"], f"{workload}: no spans recorded"
        print(f"smoke ok: {workload} ({plain['attempted']} + {traced['attempted']} operations)")


def _corrupt(rows):
    """Rows with their largest-magnitude numeric cell scaled by 1 + CORRUPTION."""
    best = None
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except (TypeError, ValueError):
                continue
            if best is None or abs(value) > abs(best[2]):
                best = (i, j, value)
    assert best is not None and best[2] != 0.0, "nothing to corrupt"
    i, j, value = best
    rows = [list(row) for row in rows]
    changed = value * (1.0 + CORRUPTION)
    rows[i][j] = repr(changed) if isinstance(rows[i][j], str) else changed
    return rows


@contextlib.contextmanager
def _corrupting(owner, attr: str, nth: int):
    """Corrupt the rows returned by the nth call of owner.attr."""
    original = getattr(owner, attr)
    calls = {"n": 0}

    def corrupted(*args, **kwargs):
        header, rows = original(*args, **kwargs)
        calls["n"] += 1
        if calls["n"] == nth:
            rows = _corrupt(rows)
        return header, rows

    setattr(owner, attr, corrupted)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


def negative():
    import sqlite_runner
    import workloads

    cases = [
        # (workload, owner, attribute, which call; the checks that see it)
        ("slice-explore", workloads, "parse_csv", 4),  # compute: reference
        ("slice-explore", sqlite_runner.SqliteRunner, "run", 7),  # sql: reference
        ("resample-se", workloads, "parse_csv", 3),  # compute jackknife: reference
        ("resample-se", sqlite_runner.SqliteRunner, "run", 4),  # sql bootstrap: repeat
        ("resample-se", workloads, "parse_csv", 5),  # compute bootstrap: repeat
        ("cli-oneshot", workloads, "parse_text_table", 2),  # CLI table output
        ("cli-oneshot", sqlite_runner.SqliteRunner, "run", 3),  # CLI SQL output
    ]
    for workload, owner, attr, nth in cases:
        with _corrupting(owner, attr, nth) as calls:
            result = _run("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                          "--trace", "0")
        assert calls["n"] >= nth, f"{workload}: only {calls['n']} calls to {attr}"
        assert result["failed"] == 1 and not result["correct"], (
            f"{workload}: corrupting call {nth} of {attr} gave {result['failed']} failures")
        print(f"negative ok: {workload}, {attr} call {nth} counted as failed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.import_library()
    smoke(spec)
    negative()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

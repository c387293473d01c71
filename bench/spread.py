"""Run-to-run spread of the end-to-end metrics, to show the benchmark is steady.

    python3 bench/spread.py --workloads slice-explore,resample-se --seeds 1-10

Runs ``bench/run.py`` once per workload and seed, one process at a time, with
the ``run_seconds`` of BENCHMARK.json. For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(Q3 - Q1) / median and the metric's bound. Raw results go to
``bench/out/spread-<first seed>-<last seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args(argv)
    runs = seeds(args.seeds)
    raw: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        raw[workload] = []
        for seed in runs:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            started = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            wall = time.perf_counter() - started
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            raw[workload].append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}"
                  f" wall={wall:.1f}s", flush=True)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{runs[0]}-{runs[-1]}.json").write_text(json.dumps(raw, indent=1))
    print("| workload | metric | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, results in raw.items():
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"| {workload} | {metric['name']} | {median:.6g} | {q1:.6g} | {q3:.6g}"
                  f" | {(q3 - q1) / median:.3f} | {metric['bound']} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())

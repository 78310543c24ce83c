#!/usr/bin/env python3
"""Run-to-run spread of the SSB repo benchmark.

    python3 perfbench/spread.py --workload ssb-small-solo --seeds 10

Run from the repository root. Runs the benchmark once per seed (1..N, or
--first-seed onwards) with --trace 0 at BENCHMARK.json's run_seconds and
prints, per end-to-end metric, the median and the spread: the distance between
the first and third quartiles (statistics.quantiles(values, n=4)) as a share of
the median, beside the metric's bound from BENCHMARK.json. A spread above a
third of the bound is flagged; the benchmark is steady when nothing is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", help="write every run's result line to this file")
    args = parser.parse_args()

    config = json.loads(Path("BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    results = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: incorrect result" % seed)
        results.append(result)
    if args.save:
        Path(args.save).write_text("".join(json.dumps(r) + "\n" for r in results))

    print("%-26s %14s %8s %7s" % ("metric", "median", "spread", "bound"))
    for m in config["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread <= m["bound"] / 3 else "  UNSTEADY"
        print("%-26s %14.6g %8.4f %7.3f%s" % (m["name"], med, spread, m["bound"], flag))


if __name__ == "__main__":
    main()

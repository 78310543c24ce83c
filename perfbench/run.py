#!/usr/bin/env python3
"""Entry point of the SSB repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the engine and the driver from source
into .bench_build/ (first run only; later runs rebuild what changed), runs one
workload for --seconds of host time, and prints as the last line of stdout one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The line before it is a JSON "detail" object: effective knobs, nproc, build
type, seed, which tail percentiles were reported with their sample counts, and
the base of every ratio. Build and driver logs go to stderr. Exits non-zero,
without a result line, when the build, the run or a check fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD_DIR = ROOT / ".bench_build" / "cmake"
RUNS_DIR = ROOT / ".bench_build" / "runs"
# Host seconds the driver may run after the build (the first run of a
# checkout also builds everything, which takes longer).
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 720
SLO_PATTERN = re.compile(r"modeled SLO (\d+(?:\.\d+)?) ms")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_DEADLINE_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_DEADLINE_S)
    return BUILD_DIR / "ssb_bench"


def load_config(workload):
    """The workload's SLO limit (stated in its BENCHMARK.json `why`) and the
    declared metric names and bounds."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    whys = {w["name"]: w["why"] for w in config["workloads"]}
    if workload not in whys:
        raise SystemExit("unknown workload %r (BENCHMARK.json has %s)"
                         % (workload, ", ".join(sorted(whys))))
    slo = SLO_PATTERN.search(whys[workload])
    if slo is None:
        raise SystemExit("BENCHMARK.json: %s states no 'modeled SLO <n> ms'" % workload)
    return float(slo.group(1)), config


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    slo_ms, config = load_config(args.workload)
    binary = build()

    RUNS_DIR.mkdir(parents=True, exist_ok=True)
    out = RUNS_DIR / ("%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    out.unlink(missing_ok=True)
    subprocess.run([str(binary), "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(out)],
                   check=True, stdout=sys.stderr, timeout=RUN_DEADLINE_S)
    record = json.loads(out.read_text())

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    if args.trace:
        values, details, attempted, failed, parity_ok = metrics.per_layer(
            record, bounds["modeled_sweep_ms"])
        declared = config["per_layer"]
    else:
        values, details, attempted, failed = metrics.end_to_end(record, slo_ms)
        parity_ok = True
        declared = config["end_to_end"]
    names = [m["name"] for m in declared]
    mismatched = sorted(set(names) ^ set(values)) + sorted(
        m["name"] for m in declared
        if m["name"] in values and values[m["name"]][1] != m["unit"])
    if mismatched:
        raise SystemExit("metrics differ from BENCHMARK.json: %s" % mismatched)

    details.update({k: record[k] for k in ("workload", "seed", "build_type", "nproc",
                                           "max_concurrent", "env_cleared", "knobs")})
    details["traced_parity_ok"] = parity_ok
    print(json.dumps({"detail": details}))
    print(json.dumps({
        "correct": failed == 0 and parity_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name][0], "unit": values[name][1]}
                    for name in names},
    }))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)

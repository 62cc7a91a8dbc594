#!/usr/bin/env python3
"""Simulator benchmark: build perfbench against the repository's
specsim libraries and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the checkout root. The first run configures and builds into
.bench_build/perfbench (Release); later runs rebuild incrementally.
Build output goes to stderr. Standard output carries one
"name value unit" line per metric and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"} holding exactly
the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names.

--seconds 0 runs the fewest passes (one untraced, two traced). Extra
flags: --reference FILE (check against another reference), --record
FILE (write the default seed's outputs as a new reference).

Exits 2 without printing a result when the simulator sources, the
build or a metric are missing.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "perfbench"
WORKLOADS = ("defense_suite", "attack_trials", "shared_contention",
             "sweep_replay")
# Longest a measured run may take once built (the contract allows 180 s).
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def check(cmd):
    r = subprocess.run([str(c) for c in cmd], stdout=sys.stderr,
                       stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"command failed ({r.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no simulator sources at {ROOT} (need CMakeLists.txt and src/)")
    if not (BUILD / "CMakeCache.txt").is_file():
        check(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    return BUILD / "perfbench"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference")
    p.add_argument("--record")
    return p.parse_args()


def main():
    args = parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    expected = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--reference",
           args.reference or HERE / "reference" / f"{args.workload}.ref",
           "--work-dir", OUT / "perfbench-work",
           "--trace-out",
           OUT / "traces" / f"{args.workload}-seed{args.seed}.json"]
    if args.record:
        cmd += ["--record", args.record]
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result line")
    metrics = {}
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the run")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {got['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = got
    result["metrics"] = metrics
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

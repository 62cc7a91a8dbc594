#!/usr/bin/env python3
"""Smoke-test the result cache end to end.

Runs one scenario twice through `specsim_bench --cache-dir` (cold,
then warm) and asserts the cache contract:

1. Byte identity: the warm CSV equals the cold CSV exactly — cached
   results must be indistinguishable from recomputed ones.
2. Hit accounting: the cold run misses and stores every point, the
   warm run hits every point (no misses, no corrupt entries), as
   reported by the driver's `[cache] ...` stderr line.
3. Optional speedup floor (--min-speedup): the warm run must be at
   least N times faster than the cold run. Only meaningful for
   scenarios whose cold run is long enough to time reliably (fig11);
   pass 0 to skip for fast scenarios (table1).

Exit status: 0 = pass, 1 = contract violation, 2 = usage error.
"""

import argparse
import re
import subprocess
import sys
import tempfile
import time

CACHE_LINE = re.compile(
    r"\[cache\] dir=\S+ hits=(\d+) misses=(\d+) stores=(\d+) "
    r"corrupt=(\d+)")


def run_once(bench, scenario, cache_dir, extra_args):
    cmd = [bench, scenario, "--csv", "--cache-dir", cache_dir]
    cmd += extra_args
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        print(f"error: {' '.join(cmd)} exited {proc.returncode}",
              file=sys.stderr)
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    m = CACHE_LINE.search(proc.stderr)
    if not m:
        print("error: no '[cache] ...' accounting line on stderr",
              file=sys.stderr)
        sys.stderr.write(proc.stderr)
        sys.exit(1)
    stats = dict(zip(("hits", "misses", "stores", "corrupt"),
                     map(int, m.groups())))
    return proc.stdout, stats, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", help="path to the specsim_bench binary")
    ap.add_argument("scenario", help="scenario to sweep (e.g. fig11)")
    ap.add_argument("--min-speedup", type=float, default=0.0,
                    help="required cold/warm wall-time ratio "
                         "(0 = don't check timing)")
    ap.add_argument("--arg", action="append", default=[],
                    dest="extra_args", metavar="FLAG",
                    help="extra specsim_bench flag (repeatable)")
    args = ap.parse_args()

    failures = []
    with tempfile.TemporaryDirectory(prefix="specsim_cache_") as d:
        cold_csv, cold, t_cold = run_once(
            args.bench, args.scenario, d, args.extra_args)
        warm_csv, warm, t_warm = run_once(
            args.bench, args.scenario, d, args.extra_args)

    points = cold["misses"]
    print(f"{args.scenario}: {points} points; "
          f"cold {t_cold * 1e3:.0f} ms "
          f"(hits={cold['hits']} misses={cold['misses']} "
          f"stores={cold['stores']}), "
          f"warm {t_warm * 1e3:.0f} ms "
          f"(hits={warm['hits']} misses={warm['misses']})")

    if warm_csv != cold_csv:
        failures.append("warm CSV differs from cold CSV "
                        "(cache hits must be byte-identical)")
    if cold["hits"] != 0 or cold["stores"] != points or points == 0:
        failures.append(f"cold-run accounting is off: {cold}")
    if warm["hits"] != points or warm["misses"] != 0:
        failures.append(
            f"warm run should hit all {points} points: {warm}")
    if cold["corrupt"] or warm["corrupt"]:
        failures.append("corrupt cache entries detected")
    if args.min_speedup > 0:
        speedup = t_cold / t_warm if t_warm > 0 else float("inf")
        print(f"warm speedup: {speedup:.1f}x "
              f"(required >= {args.min_speedup:.1f}x)")
        if speedup < args.min_speedup:
            failures.append(
                f"warm run only {speedup:.1f}x faster than cold "
                f"(need >= {args.min_speedup:.1f}x)")

    if failures:
        print("\ncache smoke FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("cache smoke passed")


if __name__ == "__main__":
    main()

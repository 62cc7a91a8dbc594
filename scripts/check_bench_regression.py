#!/usr/bin/env python3
"""Perf-regression gate over BENCH_microbench.json.

Compares a freshly measured microbench JSON against the committed
baseline (bench/baselines/BENCH_microbench.json) and fails when a
kernel's simulation throughput regressed.

CI runners differ wildly in absolute speed, so raw cycles-per-second
cannot be compared across machines. A machine-independent check is
applied instead: the median of the per-kernel current/baseline ratios
estimates the machine-speed factor between the two measurements; a
kernel whose own ratio falls more than --tolerance below that factor
got slower *relative to the rest of the suite* — a real per-kernel
regression, not a slow runner.

With --trajectory the run also appends its machine-normalized numbers
(the machine-speed factor and each kernel's ratio-over-factor) to a
BENCH_trajectory.json artifact. Those normalized medians are comparable
across runners, so the artifact accumulates a perf trajectory of the
repo over time that CI can upload alongside the gate result.

Exit status: 0 = pass, 1 = regression, 2 = usage/data error.
"""

import argparse
import json
import sys


def load_doc(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_rows(path):
    doc = load_doc(path)
    rows = {}
    for row in doc.get("rows", []):
        name = row.get("bench")
        cps = row.get("sim_cycles_per_sec")
        if name is None or not cps:
            continue
        rows[name] = float(cps)
    if not rows:
        print(f"error: no usable rows in {path}", file=sys.stderr)
        sys.exit(2)
    return rows


def median(values):
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else (s[mid - 1] + s[mid]) / 2.0


def append_trajectory(path, label, factor, ratios):
    """Append one normalized measurement to the trajectory artifact.

    Each entry carries only machine-independent numbers: the median
    current/baseline factor and each kernel's ratio normalized by that
    factor (1.0 = moved with the suite, >1 = outpaced it). A corrupt or
    missing artifact starts a fresh one rather than failing the gate.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc.get("entries"), list):
            raise ValueError("no entries list")
    except (OSError, ValueError):
        doc = {"schema": "specsim-bench-trajectory-v1", "entries": []}
    entry = {
        "label": label,
        "machine_factor": round(factor, 6),
        "normalized": {k: round(r / factor, 6)
                       for k, r in sorted(ratios.items())},
    }
    doc["entries"].append(entry)
    try:
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    except OSError as e:
        print(f"warning: cannot write trajectory {path}: {e}",
              file=sys.stderr)
        return
    print(f"trajectory: appended entry '{label}' to {path} "
          f"({len(doc['entries'])} total)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="freshly measured BENCH json")
    ap.add_argument("baseline", help="committed baseline BENCH json")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional regression (default 0.20)")
    ap.add_argument("--allow-missing", action="store_true",
                    help="warn (instead of error) when a measured kernel "
                         "has no baseline row")
    ap.add_argument("--trajectory", metavar="PATH",
                    help="append the normalized medians of this run to "
                         "the given BENCH_trajectory.json artifact")
    ap.add_argument("--label", default="local",
                    help="label for the trajectory entry (e.g. a commit "
                         "sha; default: local)")
    args = ap.parse_args()

    # A cache-warm measurement (specsim_bench --cache-dir replayed
    # memoized points instead of simulating) carries no timing signal:
    # annotate and skip the gate rather than comparing replay overhead
    # against real simulation throughput. (The microbench scenario is
    # marked non-cacheable, so this only fires if the pipeline wiring
    # changes — the annotation makes that visible instead of letting a
    # meaningless comparison pass or fail CI.)
    cache = load_doc(args.current).get("cache", {})
    if cache.get("hits", 0) > 0:
        print(f"note: current measurement is cache-warm "
              f"({cache['hits']} hit(s), {cache.get('misses', 0)} "
              f"miss(es)) — timings are replays, not measurements; "
              f"skipping the perf gate")
        sys.exit(0)

    cur = load_rows(args.current)
    base = load_rows(args.baseline)

    # A kernel measured now but absent from the baseline would silently
    # escape the check below — surface it instead of skipping it, so a
    # new kernel cannot ship ungated by accident. The fix is to refresh
    # bench/baselines/BENCH_microbench.json (or pass --allow-missing for
    # a local run against an older baseline).
    missing = sorted(set(cur) - set(base))
    if missing:
        verb = "warning" if args.allow_missing else "error"
        print(f"{verb}: kernel(s) measured but missing from baseline "
              f"{args.baseline}: {', '.join(missing)}", file=sys.stderr)
        if not args.allow_missing:
            print("  refresh the baseline to gate them, or pass "
                  "--allow-missing to proceed without", file=sys.stderr)
            sys.exit(2)

    common = sorted(set(cur) & set(base))
    if not common:
        print("error: no kernels in common between current and baseline",
              file=sys.stderr)
        sys.exit(2)

    failures = []

    # Per-kernel ratio vs the machine-speed factor.
    ratios = {k: cur[k] / base[k] for k in common}
    factor = median(ratios.values())
    floor = factor * (1.0 - args.tolerance)
    print(f"machine-speed factor (median current/baseline): {factor:.3f}")
    for k in common:
        status = "ok"
        if ratios[k] < floor:
            status = "REGRESSED"
            failures.append(
                f"{k}: {ratios[k]:.3f}x vs factor {factor:.3f} "
                f"(floor {floor:.3f})")
        print(f"  {k}: cur={cur[k]:.3g} base={base[k]:.3g} "
              f"ratio={ratios[k]:.3f} [{status}]")

    # The trajectory records regressing runs too — a dip in the artifact
    # is exactly the signal it exists to preserve.
    if args.trajectory:
        append_trajectory(args.trajectory, args.label, factor, ratios)

    if failures:
        print("\nperf regression detected:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print("\nno perf regression (tolerance "
          f"{args.tolerance:.0%})")


if __name__ == "__main__":
    main()

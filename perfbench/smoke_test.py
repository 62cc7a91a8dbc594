#!/usr/bin/env python3
"""Smoke test for the simulator benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at minimal size (--seconds 0: one pass, two when
traced) through run.py, untraced and traced, and checks that:

- every metric BENCHMARK.json names is in the result line, with its
  unit, and no other; end-to-end values are non-zero;
- every end-to-end metric (wall_s ... failed_frac) is printed with its
  unit, and failed_frac is 0; sim_mcycles_per_s reads n/a on
  sweep_replay, whose passes simulate nothing;
- the traced run writes a trace that scripts/validate_trace.py accepts;
- a deliberately perturbed reference is reported as a failed unit
  (exit 0, "correct": false), not as a crash;
- without the simulator sources next to it, run.py exits non-zero and
  prints no result.

Scratch files go under .bench_build/. Exit status 0 = all checks held.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
MINIMAL = ["--seconds", "0"]
# Every end-to-end metric a run prints, bound-checked in BENCHMARK.json
# or not.
PRINTED = {"wall_s": "s", "sim_mcycles_per_s": "Mcycles/s",
           "unit_ms_p50": "ms", "unit_ms_p90": "ms", "setup_s": "s",
           "peak_rss_mb": "MB", "failed_frac": "ratio"}

failures = []


def expect(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL: {msg}")


def run(workload, trace, *extra, root=ROOT):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--trace", str(trace),
           *MINIMAL, *extra]
    return subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def result_of(proc, what):
    expect(proc.returncode == 0, f"{what}: exit {proc.returncode}: "
           f"{proc.stderr[-500:]}")
    if proc.returncode != 0:
        return None, []
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


def check_workload(w):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        what = f"{w} --trace {trace}"
        res, lines = result_of(run(w, trace), what)
        if res is None:
            continue
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        expect(set(res["metrics"]) == set(want),
               f"{what}: metrics differ from BENCHMARK.json")
        for name, unit in want.items():
            got = res["metrics"].get(name, {})
            expect(got.get("unit") == unit, f"{what}: {name} unit")
            if trace == 0:
                expect(got.get("value", 0) > 0, f"{what}: {name} is 0")
        expect(res["correct"] and res["failed"] == 0
               and res["attempted"] >= 1, f"{what}: outputs not correct")
        if trace == 0:
            printed = {}
            for l in lines:
                parts = l.split()
                if len(parts) == 3:
                    printed[parts[0]] = (parts[1], parts[2])
            for name, unit in PRINTED.items():
                expect(printed.get(name, ("", ""))[1] == unit,
                       f"{what}: {name} not printed with unit {unit}")
            mcycles = printed.get("sim_mcycles_per_s", ("",))[0]
            if w == "sweep_replay":
                expect(mcycles == "n/a",
                       f"{what}: sim_mcycles_per_s {mcycles}, want n/a")
            else:
                expect(mcycles not in ("", "n/a") and float(mcycles) > 0,
                       f"{what}: sim_mcycles_per_s {mcycles}")
            expect(printed.get("failed_frac", ("",))[0] == "0",
                   f"{what}: failed_frac {printed.get('failed_frac')}")
        else:
            trace_file = OUT / "traces" / f"{w}-seed1.json"
            validator = ROOT / "scripts" / "validate_trace.py"
            if validator.is_file():
                v = subprocess.run([sys.executable, str(validator),
                                    str(trace_file)],
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True)
                expect(v.returncode == 0,
                       f"{what}: invalid trace {v.stderr.strip()}")


def check_perturbed_reference(scratch):
    ref = (HERE / "reference" / "attack_trials.ref").read_text()
    lines = ref.split("\n")
    i = next(k for k, l in enumerate(lines) if l and not l.startswith("#"))
    lines[i] += " perturbed"
    bad = scratch / "perturbed.ref"
    bad.write_text("\n".join(lines))
    res, _ = result_of(run("attack_trials", 0, "--reference", str(bad)),
                       "perturbed reference")
    if res is not None:
        expect(not res["correct"] and res["failed"] == 1,
               f"perturbed reference: want 1 failed unit, got {res}")


def check_without_sources(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run("attack_trials", 0, root=bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources: want a non-zero exit and no result")


def main():
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="smoke-"))
    try:
        for m in SPEC["workloads"]:
            check_workload(m["name"])
        check_perturbed_reference(scratch)
        check_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke test: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

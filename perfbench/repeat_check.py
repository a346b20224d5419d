#!/usr/bin/env python3
"""Checks that the benchmark agrees with itself within its own bounds.

Run from the root of a checkout:

  python3 perfbench/repeat_check.py

It makes two sets of ten untraced runs of every workload in BENCHMARK.json,
the first with seeds 1-10 and the second with seeds 11-20, alternating
workloads within a set. For every end-to-end metric it prints each set's
median, each set's spread (the distance between the first and third
quartile, from statistics.quantiles(values, n=4), over the median), and how
much worse the second median is than the first, as a share of the metric's
bound. It exits 1 when a run fails, when the second median is worse than
the first by more than the bound, or when a spread other than that of
setup_s exceeds a third of the bound, the margin the benchmark aims for.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not result or not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        sys.stderr.write("%s seed %d failed (exit %d)\n"
                         % (workload, seed, proc.returncode))
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    values = {w: [{} for _ in range(SETS)] for w in workloads}
    bad = 0
    for s in range(SETS):
        for r in range(RUNS):
            seed = s * RUNS + r + 1
            for workload in workloads:
                metrics = run_once(workload, seed, seconds)
                bad += metrics is None
                for name, v in (metrics or {}).items():
                    values[workload][s].setdefault(name, []).append(v)
            sys.stderr.write("set %d run %d done\n" % (s + 1, r + 1))

    print("%-12s %-16s %6s  %s  %s  %s" % (
        "workload", "metric", "bound", "medians", "spreads",
        "worse/bound"))
    for workload in workloads:
        sets = values[workload]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if not all(st.get(name) for st in sets):
                continue
            medians = [statistics.median(st[name]) for st in sets]
            spreads = [spread(st[name]) for st in sets]
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            flags = []
            if worse > bound:
                flags.append("MEDIAN-DISAGREES")
            if name != "setup_s" and any(sp > bound / 3 for sp in spreads):
                flags.append("SPREAD")
            bad += bool(flags)
            print("%-12s %-16s %6.3f  %s  %s  %+.2f %s" % (
                workload, name, bound,
                " ".join("%.6g" % m for m in medians),
                " ".join("%.4f" % sp for sp in spreads),
                worse / bound, " ".join(flags)))
    print("repeat_check: %s" % ("PASS" if bad == 0 else "FAIL"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

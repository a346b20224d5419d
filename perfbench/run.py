#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload of it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload lookup-l2 --seed 1 --seconds 10 --trace 0

The first run configures and builds `bench_suite` into .bench_build/perfbench
(build output goes to stderr); later runs only rebuild what changed. The
benchmark's own output, ending in one JSON line, goes to stdout. A traced run
(--trace 1) also writes a Chrome trace to .bench_build/traces/.

  python3 perfbench/run.py --smoke [--binary PATH]

runs every workload of BENCHMARK.json for a second on small tables, in both
modes, and checks that each prints exactly the metrics BENCHMARK.json names
and that no operation failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def build():
    """Configures (once) and builds bench_suite; returns its path or None."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "bench_suite", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "bench_suite")


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
    }
    os.makedirs(TRACES, exist_ok=True)
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            trace_out = os.path.join(TRACES, workload + "-smoke.json")
            cmd = [binary, "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", trace, "--smoke",
                   "--trace-out", trace_out]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=120)
            problems = []
            if proc.returncode != 0:
                problems.append("exit code %d" % proc.returncode)
            try:
                result = last_json(proc.stdout)
            except ValueError:
                result = None
            if not result:
                problems.append("no JSON result line")
            else:
                names = list(result["metrics"])
                if names != expected[trace]:
                    problems.append("metrics %s, expected %s"
                                    % (names, expected[trace]))
                if not result["correct"] or result["failed"] != 0:
                    problems.append("failed %d of %d"
                                    % (result["failed"], result["attempted"]))
            status = "FAIL: " + "; ".join(problems) if problems else "ok"
            print("smoke %-12s trace=%s %s" % (workload, trace, status))
            if problems:
                failures += 1
                sys.stderr.write(proc.stdout + proc.stderr)
    print("smoke: %s" % ("PASS" if failures == 0 else "FAIL"))
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this bench_suite, do not build")
    args = parser.parse_args()

    binary = args.binary or build()
    if binary is None:
        sys.stderr.write("run.py: building bench_suite failed\n")
        return 2
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")

    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%s.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the PerfSight benchmark harness from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <sim_diagnose|fleet_pull|fleet_push>
                             --seed <n> --seconds <s> --trace <0|1>

The harness is built with CMake into $CARGO_TARGET_DIR (default
.bench_build) before every run; an up-to-date build is a no-op.  The last
line of standard output is the harness's JSON result.  The run fails (exit
code other than 0, no result printed) when the sources are missing, the
build fails, or the harness's output does not carry exactly the metrics
BENCHMARK.json declares.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_diagnose", "fleet_pull", "fleet_push")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: PerfSight sources (src/) not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench_harness",
         "-j", jobs],
    ]
    if os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_harness")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: harness timed out")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: harness exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    if sorted(result["metrics"]) != sorted(want):
        sys.stderr.write(done.stdout)
        sys.exit("perfbench: harness metrics do not match BENCHMARK.json")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()

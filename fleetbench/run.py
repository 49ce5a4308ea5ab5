#!/usr/bin/env python3
"""Builds the fleet benchmark from this checkout's sources and runs it.

    python3 fleetbench/run.py --workload walk_light --seed 1 --seconds 15 --trace 0

Run from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench); broker data
directories and the --trace 1 span log (JSONL) are written beside it. Build
output goes to stderr; the benchmark's own stdout is passed through, and its
last line is the JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("walk_light", "fanout_heavy", "churn_mix")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if shutil.which("cmake") is None:
        sys.exit("fleetbench: cmake not found")
    steps = [["cmake", "--build", build_dir, "--target", "fleetbench", "-j", "4"]]
    # Once configured (a build file exists), the build step re-runs
    # configuration itself when a CMakeLists.txt changes.
    if not any(os.path.exists(os.path.join(build_dir, f)) for f in ("Makefile", "build.ninja")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("fleetbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "fleetbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "fleetbench"))
    binary = build(build_dir)
    tag = "%s-seed%d" % (args.workload, args.seed)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--data-dir", os.path.join(build_dir, "data-" + tag),
        "--trace-out", os.path.join(build_dir, "trace-" + tag + ".jsonl"),
    ]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("fleetbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(rc)


if __name__ == "__main__":
    main()

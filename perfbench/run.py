#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the cstore library from src/ plus the driver) in
.bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the driver's JSON result stays the last line of stdout. Data
directories and span files go under .bench_build/run/. The exit code is the
driver's: non-zero when the build failed, an answer check failed, or the
run exceeded its time limit.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_DIR = os.path.join(BUILD, "run")
DRIVER = os.path.join(BUILD, "cmake", "perfbench_driver")
WORKLOADS = ("analytic_embedded", "lookup_rw_http")
RUN_TIMEOUT_S = 170


def build():
    cmake_dir = os.path.join(BUILD, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.exists(DRIVER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(RUN_DIR, exist_ok=True)
    # Data directories a killed run left behind.
    for stale in glob.glob(os.path.join(RUN_DIR, "data-*")):
        shutil.rmtree(stale, ignore_errors=True)
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", RUN_DIR]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

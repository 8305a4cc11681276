#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload campus|city|stream \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout. The first run configures and builds the
rdbsc library and the perfbench program in Release mode under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
program's JSON result. Every workload is serial, and the program runs
pinned to one CPU, which removes migration noise between otherwise idle
cores.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("campus", "city", "stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the program; returns its path."""
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no rdbsc source tree (src/CMakeLists.txt) next to perfbench/; "
             "run from the root of a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", source, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", "4"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def pinned_cpu():
    """The last CPU this process may run on."""
    return {max(os.sched_getaffinity(0))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: the self-test of every workload")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_dir, "perfbench")
    binary = build(root, build_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--trace-dir", trace_dir]
    if args.smoke:
        command.append("--smoke")
    cpus = pinned_cpu()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload pagerank_live --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (and the Tornado libraries
it links) in .bench_build/perfbench with CMake; later calls rebuild only
what changed. Build output goes to stderr. The benchmark's own output goes
to stdout, and its last line is one JSON object (see perfbench/README.md).
The exit code is the benchmark's: non-zero on a failed answer check, a
determinism mismatch, a build failure or a timeout.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Tornado sources next to perfbench/ "
                 "(expected src/CMakeLists.txt)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S, check=False)
        if result.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it.
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build("perfbench_test" if args.self_test else "perfbench")

    if args.self_test:
        return run([os.path.join(BUILD, "perfbench_test")])
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out", os.path.join(
            BUILD, "spans-%s-%d.json" % (args.workload, args.seed))]
    return run(command)


if __name__ == "__main__":
    sys.exit(main())

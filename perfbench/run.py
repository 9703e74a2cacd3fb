#!/usr/bin/env python3
"""Build the NoK end-to-end benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table2_paged --seed 42 \
        --seconds 10 --trace 0

Workloads: table2_paged, table2_bp, update_wal (see perfbench/README.md).
The first call configures and builds perfbench/ (and the library in src/)
into .bench_build/cmake; later calls rebuild incrementally.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Stores are made under .bench_build/work and
removed at the end of the run; traced runs leave spans and per-query detail
in .bench_build/out.  The exit code is 0 only when the build succeeded and
every answer was correct.
"""

import argparse
import os
import subprocess
import sys
import time

WORKLOADS = ("table2_paged", "table2_bp", "update_wal")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds nok_e2e; returns its path, or None on failure."""
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", cmake_dir, "-j", jobs, "--target", "nok_e2e"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build failed: {e}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(cmake_dir, "nok_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    exe = build()
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(BUILD, "work"),
           "--out-dir", os.path.join(BUILD, "out")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

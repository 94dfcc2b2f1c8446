#!/usr/bin/env python3
"""Builds drivebench from this checkout's sources, then runs one workload.

    python3 drivebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the checkout.  The build goes to
.bench_build/drivebench (rebuilt incrementally) and
build output goes to stderr, so the last line of stdout is the
benchmark's JSON result.  Any build failure exits 2 without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "drivebench")
WORK = os.path.join(ROOT, ".bench_build", "drivebench-work")


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release",
         "-DBUILD_TESTING=OFF"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "drivebench", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "drivebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"drivebench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    # Replace this process, so the benchmark is the only process running.
    os.execv(binary, [binary, *sys.argv[1:], "--work-dir", WORK])


if __name__ == "__main__":
    sys.exit(main())

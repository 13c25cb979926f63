#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout's sources and runs it.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload spb-read --seed 1 --seconds 5 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the first run configures and compiles the engine, later
runs rebuild incrementally. Build output goes to stderr; stdout carries only
the benchmark's own output, whose last line is the JSON result.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j",
                      str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
                return False
    return True


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "e2ebench")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "work")
    cmd = [os.path.join(build_dir, "e2ebench")] + sys.argv[1:] + [
        "--workdir", workdir]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the mine/serve benchmark from this checkout and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload mine_paper --seed 42 \
        --seconds 32 --trace 0

The benchmark binary and the library it links are built with CMake
(Release) into .bench_build/perfbench; build progress goes to stderr. The
binary's stdout is passed through: a provenance line, then the result JSON
as the last line. Extra flags (--smoke, --tamper) are passed on unchanged.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".bench_build"  # relative to ROOT: socket paths must stay short
BUILD = os.path.join(WORK, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources beside perfbench/; "
                 "run it from a full checkout")
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(ROOT, WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr)
            if done.returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(step))


def seconds_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                return float(value)
            except ValueError:
                return 0.0
    return 10.0


def main():
    argv = sys.argv[1:]
    build()
    try:
        done = subprocess.run([BINARY, "--work-root", WORK] + argv, cwd=ROOT,
                              timeout=2 * seconds_arg(argv) + 90)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

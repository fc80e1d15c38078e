#!/usr/bin/env python3
"""Build the perfbench binary (Release) and run one benchmark workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload vcausal_scale96 --seed 1 --seconds 20 --trace 0

Every argument is passed to the perfbench binary (see src/main.cpp). The
build tree is .bench_build/perfbench under the repository root; the first
run configures and compiles it, later runs only check it is up to date.
Build output goes to stderr, so the last stdout line is the binary's JSON
result. The exit status is the binary's (non-zero on any failed run), or
non-zero when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    # The Makefile appears only once a configure has succeeded.
    if os.path.exists(os.path.join(BUILD, "Makefile")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

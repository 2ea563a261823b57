#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
`perfbench` program and the `oasys` CLI (Release) in .bench_build; later
calls only rebuild what changed.  The benchmark program then replaces this
process, so its exit code and output are the run's.  `--selftest` builds
and runs the benchmark's own unit tests instead.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"


def build(*targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources are missing; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    os.chdir(ROOT)
    if sys.argv[1:] == ["--selftest"]:
        build("perfbench_tests")
        tests = os.path.join(BUILD, "perfbench_tests")
        os.execv(tests, [tests])
    build("perfbench", "oasys")
    program = os.path.join(BUILD, "perfbench")
    oasys = os.path.join(BUILD, "oasys", "tools", "oasys")
    sys.stdout.flush()
    os.execv(program, [program, *sys.argv[1:], "--oasys", oasys])


if __name__ == "__main__":
    main()

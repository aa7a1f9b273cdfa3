#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--threads <n>]

Configures a Release build of perfbench/ (the library sources one
directory up plus the harness) under .bench_build/perfbench, builds it
(a no-op when nothing changed), runs the harness self-tests, then runs
the benchmark binary with the given arguments. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.
Exits non-zero, printing no result, when the build or the self-tests
fail.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_quiet(cmd):
    """Run a build step with its output on stderr; True on success."""
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def build():
    if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"]):
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_quiet(["cmake", "--build", BUILD, "-j", jobs])


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    if not run_quiet([os.path.join(BUILD, "perfbench_selftest")]):
        print("perfbench: harness self-tests failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    done = subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                          cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

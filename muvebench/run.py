#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 muvebench/run.py --workload paper-explore --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds `muved` and the benchmark from source
into .bench_build/muvebench (the first run pays the build), runs the
benchmark's self-tests, then runs one workload.  The last line of
standard output is the result object; build logs and the human-readable
report go to standard error.  Exits nonzero on a build failure, a failed
self-test, or a wrong answer.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "muvebench")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "muved", "muvebench", "muvebench_selftest"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
        subprocess.run([os.path.join(BUILD, "muvebench_selftest")],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print("muvebench: " + str(err), file=sys.stderr)
        return 1
    bench = [os.path.join(BUILD, "muvebench"),
             "--muved=" + os.path.join(BUILD, "muved"),
             "--out-dir=" + BUILD] + sys.argv[1:]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())

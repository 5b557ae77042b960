#!/usr/bin/env python3
"""Build the layer benchmark with dune, then run it.

Run from the repository root:

    python3 bench/perf/run.py --workload scan-campaign --seed 1 --seconds 15 --trace 0

Every argument is passed to bench/perf/perf.exe (see README.md).  Build
output goes to stderr; the last line of stdout is the result object.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "bench", "perf", "perf.exe")


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./bench/perf/perf.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()

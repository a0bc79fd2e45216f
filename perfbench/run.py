#!/usr/bin/env python3
"""Build the benchmark from source with dune, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The arguments go to perfbench/main.exe
unchanged; see perfbench/NOTES.md for the workloads and metrics. Build
output goes to standard error; a failed build exits non-zero.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit(build.returncode)
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
    os.chdir(ROOT)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    main()

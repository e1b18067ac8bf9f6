#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload route-hard --seed 1 --seconds 50 --trace 0

The build uses dune with its shared cache disabled, so it reads and
writes only inside the checkout (under _build/).  The benchmark's last
line of output is one JSON object; see perfbench/bench.ml.  Exits
non-zero without printing a result when the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.stderr.write("run.py: run from the root of a checkout (no dune-project here)\n")
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/bench.exe"],
        stdout=subprocess.DEVNULL,
    )
    if build.returncode != 0:
        sys.stderr.write("run.py: build failed\n")
        return build.returncode or 1
    bench = subprocess.run([EXE] + sys.argv[1:])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())

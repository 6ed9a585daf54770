#!/usr/bin/env python3
"""Build the simulator benchmark from source, then run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload macro-closed --seed 42 --seconds 10 --trace 0

All arguments go to the benchmark executable (see perfbench/README.md).
The build's progress goes to standard error, so the last line of
standard output is the benchmark's JSON result.  Outside a source
checkout (no dune-project and lib/ beside perfbench/) it exits 2
without printing a result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a source checkout "
              "(dune-project and lib/ not found here)", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout: no shared cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe
    python3 perfbench/run.py --manifest > BENCHMARK.json

Run it from the root of a checkout.  It builds perfbench/perfbench.exe with
dune (into _build/, with dune's shared cache off so nothing is written
outside the checkout), then runs it with the same arguments.  The last line
of standard output is the run's JSON result; build output goes to standard
error.  `--describe` lists the workloads and every metric with its unit,
layer and the end-to-end metric it is meant to move.

Exit status: 0 when the run's outputs matched their references, 1 when a
check failed or the build or run broke, 2 on bad arguments or when the
current directory is not a checkout of the repository.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
REQUIRED = ["dune-project", "lib", os.path.join("perfbench", "perfbench.ml")]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    missing = [path for path in REQUIRED if not os.path.exists(path)]
    if missing:
        print("perfbench: run from the root of a checkout (missing: %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/perfbench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    try:
        run = subprocess.run([EXE] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

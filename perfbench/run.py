#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload compile|tables|serve \
        --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result.  Build output goes
to standard error.  See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("compile", "tables", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TARGETS = ("./perfbench/main.exe", "./bin/serve.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [f for f in ("dune-project", "lib", "bin") if not os.path.exists(f)]
    if missing:
        print("perfbench: %s not found; run from the repository root"
              % ", ".join(missing), file=sys.stderr)
        return 2

    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled", *TARGETS],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join("_build", "default", "perfbench", "main.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

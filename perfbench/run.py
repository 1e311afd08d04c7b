#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds libmif from ../src together with the benchmark program
(mif_perfbench) into .bench_build/ at the repository root (configured once,
then rebuilt incrementally), then runs it on one workload, or on every
workload in turn with --workload all.  Its report goes to stdout and the
last line of each workload's report is the JSON result; build output goes
to stderr.  The exit code is the program's (non-zero when a correctness or
determinism check fails), or 3 when the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mif_perfbench")
WORKLOADS = ["shared_ckpt", "smallfile_churn", "aged_meta"]


def build():
    """Configure (first time only) and build; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3
    names = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        sys.stdout.flush()
        rc = subprocess.run([BINARY, "--workload", name,
                             "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode
        status = status or rc
    return status


if __name__ == "__main__":
    sys.exit(main())

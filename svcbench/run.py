#!/usr/bin/env python3
"""Builds the service benchmark from source and runs one workload.

Run from the repository root:

    python3 svcbench/run.py --workload rush-1m --seed 1 --seconds 50 --trace 0

The first run configures and compiles the SCGuard libraries and the
svcbench binary into .bench_build/ (Release); later runs only re-check
the build. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Extra arguments (--workers N, --trace-out PATH) are
passed through to the binary; a traced run writes its Chrome trace to
.bench_build/trace-<workload>.json unless --trace-out is given.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "svcbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("svcbench: the SCGuard sources (src/) are missing", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "svcbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("svcbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()
    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1" and "--trace-out" not in extra:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd + extra).returncode


if __name__ == "__main__":
    sys.exit(main())

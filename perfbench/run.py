#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
benchmark (perfbench/CMakeLists.txt, which pulls in the repository's
libraries) under .bench_build/; later calls only rebuild what changed.
Build output is shown (on standard error) only when the build fails, so
the last line of standard output is the JSON result. Generated inputs and
trace files are written under .bench_build/out/; each input is deleted
once loaded.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.exit(f"perfbench: {needed} is missing from {ROOT}; the benchmark "
                     "builds the repository's sources and cannot run without them")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    steps = [["cmake", "--build", BUILD, "-j", jobs, "--target", "sjbench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode:
            sys.stderr.write(proc.stdout)
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "sjbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out-dir", OUT]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

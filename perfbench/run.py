#!/usr/bin/env python3
"""Build the perfbench binary from this checkout and run one workload.

    python3 perfbench/run.py --workload bank-audit --seed 1 --seconds 30 --trace 0

Run from the root of the checkout. --seconds defaults to run_seconds in
the checkout's BENCHMARK.json, the run length the bounds there were set
for. The binary is built (CMake, Release)
under .bench_build/perfbench on first use and rebuilt when sources change;
build output goes to stderr. With --trace 1 the spans of the traced rounds
are written to .bench_build/traces/. The last line of stdout is the
binary's JSON result; the exit status is the binary's (1 when a
correctness gate tripped).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("bank-audit", "hot-withdraw", "dist-transfer")


def run_seconds():
    """run_seconds from BENCHMARK.json, the one place the run length is set."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        sys.exit(f"perfbench: cannot read run_seconds from BENCHMARK.json: {e}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to perfbench/; "
                 "run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "3"], check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int,
                   help="how long rounds keep starting "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--chaos", action="store_true",
                   help="negative control: hot-withdraw on chaos admission; "
                        "must fail a correctness gate")
    args = p.parse_args()
    if args.seconds is None:
        args.seconds = run_seconds()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.csv")]
    if args.chaos:
        cmd.append("--chaos")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Tebis RPC serving path.

From the root of a checkout:

    python3 perfbench/run.py --workload load_a --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --mode paper_shape --seed 1

The benchmark program (perfbench/e2e_bench.cc) is built from the checkout's sources into
$CARGO_TARGET_DIR, or .bench_build when that is unset. The last line of
standard output is the result object; build logs go to standard error.
See perfbench/README.md for the workloads and metrics.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: the repository's src/ is not beside perfbench/")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "tebis_e2e", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")
    return os.path.join(build_dir, "tebis_e2e")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    args = sys.argv[1:]
    binary = build()
    try:
        run = subprocess.run([binary] + args + ["--commit", commit()], stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    if "--mode" not in args:
        lines = run.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if set(result) != RESULT_KEYS:
            sys.exit("perfbench: the run printed no result line")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see NOTES.md).

    python3 perfbench/run.py --workload dup-1m --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the
perfbench binary from ../src into .bench_build/perfbench; later calls
rebuild incrementally. The last line of stdout is the benchmark's JSON
result; a missing source tree, a failed build, a crash or a failed output
check gives a nonzero exit code.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("dup-1m", "mixed-4k", "wire-loopback")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src", code=2)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target",
                   "perfbench"]
    remaining = max(1.0, deadline - time.monotonic())
    if subprocess.run(compile_cmd, stdout=sys.stderr,
                      timeout=remaining).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be nonnegative", code=2)
    if not 1 <= args.seconds <= 3600:
        fail("--seconds must be 1..3600", code=2)

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(run.stdout)
        fail(f"benchmark exited {run.returncode} without a result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    if run.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

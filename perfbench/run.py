#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload web_paper|av_paper|fleet_web \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call compiles the simulator's
libraries and the benchmark into .bench_build/perfbench (CMake, Release);
later calls rebuild only what changed. The benchmark's report goes to
stdout, ending with one JSON line; build output goes to stderr. The exit
code is non-zero when the build fails, the run fails, or any correctness
check fails. See perfbench/METRICS.md for the workloads and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("web_paper", "av_paper", "fleet_web")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"perfbench: no simulator sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        if args.selftest:
            return subprocess.run([build("perfbench_test")]).returncode
        binary = build("thinc_perfbench")
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: {e}")
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    print("\n".join(lines[:-1]))
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.exit(f"perfbench: no result line (exit code {proc.returncode})")
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        sys.exit("perfbench: metrics differ from BENCHMARK.json: "
                 f"{sorted(expected ^ set(result['metrics']))}")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

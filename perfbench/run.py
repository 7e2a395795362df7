#!/usr/bin/env python3
"""Runs one workload of the Sinew repo benchmark and prints its result.

Usage (from the repository root):

    python3 perfbench/run.py --workload nobench_scan --seed 7 \
        --seconds 10 --trace 0

Builds the engine from src/ plus the workload binary into .bench_build/
(incremental after the first run), runs the workload in a scratch directory
under .bench_run/, and prints a human-readable table followed, as the last
line of stdout, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. A traced run also writes its span file and checks it with
bench/validate_trace.py. `--workload all` runs the three workloads in turn;
its last line sums the outcomes and names each metric <workload>.<metric>.
See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "sinew_perfbench")
WORKLOADS = ("nobench_scan", "nobench_select", "ingest_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; compiler output goes to
    stderr so stdout carries only the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no engine sources (src/CMakeLists.txt) next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sinew_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    """Runs one workload, prints its table, and returns its result object."""
    work_dir = os.path.join(RUN_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    trace_file = os.path.join(RUN_DIR, f"trace-{workload}.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", work_dir]
    if trace:
        cmd += ["--trace-out", trace_file]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"workload binary exited with status {done.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    correct = result["correct"]
    expected = expected_metrics(trace)
    if sorted(expected) != sorted(result["metrics"]):
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(expected) ^ set(result['metrics']))}")
    if trace:
        # The span file must pass the repo's trace validator unchanged.
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "validate_trace.py"),
             trace_file], stdout=subprocess.PIPE, text=True)
        print(f"# trace check: {check.stdout.strip()}")
        correct = correct and check.returncode == 0
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": result["metrics"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2 ** 64  # the workload binary takes the seed as uint64

    build()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                      args.trace)))
        return
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        print(f"## {workload}")
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(total))


if __name__ == "__main__":
    main()

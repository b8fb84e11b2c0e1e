#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The first form prints the benchmark binary's report; its last line is one
JSON object {"correct", "attempted", "failed", "metrics"}. NAME may be any
workload the binary knows (it rejects others). `all` runs every workload
of BENCHMARK.json in turn and fails if any output check failed.
The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root, is incremental, and is started on every call.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT)
            if result.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.exists(binary):
        fail(f"build produced no {binary}")
    return binary


def run_one(binary, work_dir, args, workload, spec):
    """Runs one workload; returns its parsed result line."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.detect_delay:
        cmd += ["--detect-delay", str(args.detect_delay)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(result.stdout)
        fail(f"{workload} printed no result (exit code {result.returncode})")
    # The binary's metric list must match BENCHMARK.json.
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in report["metrics"].items()}
    if got != expected:
        sys.stdout.write(result.stdout)
        fail(f"{workload} reported metrics {sorted(got.items())}, "
             f"BENCHMARK.json lists {sorted(expected.items())}")
    return result.returncode, result.stdout, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--detect-delay", type=float, default=0.0,
                        metavar="FRACTION",
                        help="sensitivity self-check only")
    args = parser.parse_args()
    if args.seed < 0 or args.seed >= 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "run")

    if args.workload != "all":
        code, stdout, _ = run_one(binary, work_dir, args, args.workload, spec)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        sys.exit(code)

    all_correct = True
    for workload in names:
        code, stdout, report = run_one(binary, work_dir, args, workload, spec)
        sys.stdout.write(stdout)
        all_correct = all_correct and code == 0 and report["correct"]
    print("all workloads correct" if all_correct else
          "FAILED: an output check failed (see DEFECT lines above)")
    sys.exit(0 if all_correct else 1)


if __name__ == "__main__":
    main()

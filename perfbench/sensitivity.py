#!/usr/bin/env python3
"""Sensitivity self-check of the benchmark's layer attribution.

    python3 perfbench/sensitivity.py

Injects a delay of 20% of each call's own duration into the `detect`
wrapper and checks, over three seeds, that:

  1. the delay shows up in `detect.busy_ms` on the workload where the
     layer works (grid_batch): ratio within [1.1, 1.4];
  2. the end-to-end metric the layer table predicts moves there
     (grid_batch cpu_ms_per_op grows on every seed);
  3. the bypass workload (serve_warm, where every score is a cache hit)
     stays flat: its cpu_ms_per_op median moves by less than its
     BENCHMARK.json bound, and the layer does no work there.

Exits 0 when every check holds. Each run is a normal perfbench/run.py run
with --detect-delay added, so it builds first if needed.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FRACTION = 0.2
SEEDS = [1000, 1017, 1034]
SECONDS = 10
WORKS, METRIC, BYPASS = "grid_batch", "cpu_ms_per_op", "serve_warm"


def run(workload, seed, trace, delay):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace), "--detect-delay", str(delay)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    report = json.loads(out.stdout.strip().split("\n")[-1])
    if out.returncode != 0 or not report["correct"]:
        sys.exit(f"{workload} seed {seed} failed its output checks")
    return {k: v["value"] for k, v in report["metrics"].items()}


def median_ratio(with_delay, without, key):
    return statistics.median(w[key] / max(o[key], 1e-12)
                             for w, o in zip(with_delay, without))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}

    # Runs with and without the delay alternate, first one and then the
    # other, so a drift in the host's speed falls on both sides alike.
    results = {}
    for workload in (WORKS, BYPASS):
        for trace in (0, 1):
            for d in (0, FRACTION):
                results[workload, trace, d] = []
            for k, s in enumerate(SEEDS):
                for d in ((0, FRACTION) if k % 2 == 0 else (FRACTION, 0)):
                    results[workload, trace, d].append(
                        run(workload, s, trace, d))

    failures = []
    r = median_ratio(results[WORKS, 1, FRACTION], results[WORKS, 1, 0],
                     "detect.busy_ms")
    print(f"{WORKS}: detect.busy_ms with/without delay = {r:.3f} "
          f"(expected about {1 + FRACTION:.2f})")
    if not 1 + FRACTION / 2 <= r <= 1 + 2 * FRACTION:
        failures.append(f"detect.busy_ms on {WORKS} did not absorb the delay")

    pairs = list(zip(results[WORKS, 0, FRACTION], results[WORKS, 0, 0]))
    grew = sum(1 for w, o in pairs if w[METRIC] > o[METRIC])
    r = median_ratio(results[WORKS, 0, FRACTION], results[WORKS, 0, 0], METRIC)
    print(f"{WORKS}: {METRIC} with/without delay = {r:.3f}, larger on "
          f"{grew}/{len(pairs)} seeds")
    if grew != len(pairs):
        failures.append(f"{METRIC} on {WORKS} did not move on every seed")

    calls = [m["detect.calls"] for m in results[BYPASS, 1, FRACTION]]
    print(f"{BYPASS}: detect.calls with the delay = {calls}")
    if any(calls):
        failures.append(f"detect does work on the bypass {BYPASS}")
    r = median_ratio(results[BYPASS, 0, FRACTION], results[BYPASS, 0, 0],
                     METRIC)
    print(f"{BYPASS}: {METRIC} with/without delay = {r:.3f} "
          f"(bound {bounds[METRIC]})")
    if abs(r - 1) > bounds[METRIC]:
        failures.append(f"{METRIC} on the bypass {BYPASS} moved")

    for f in failures:
        print("FAILED:", f)
    print("sensitivity self-check", "FAILED" if failures else "passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

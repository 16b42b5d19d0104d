#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (the seqdl
library from src/ plus the workload runner) in Release mode into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in its own
process and prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The runner plays the workload in rounds, each on a freshly set-up node,
for --seconds seconds, and reports medians over the rounds. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 its per_layer metrics (a layer the workload does not load
reads 0; the info line before the result names the spans recorded). The
info line also carries the build and host facts and the stationarity
check: the first and the second half of the rounds compared against the
bounds in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configures once, then builds the runner; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, BENCH_DIR), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def stationarity(info, bounds):
    """Compares the two halves of the measured rounds.

    A latency median may drift by the bound of read_p50_us; live facts,
    segments and cached views by the tightest bound of the benchmark.
    """
    state_bound = min(bounds.values())
    flags = []
    for key, first in list(info.items()):
        if not key.startswith("half1_"):
            continue
        name = key[len("half1_"):]
        second = info.get("half2_" + name)
        if second is None:
            continue
        a, b = float(first), float(second)
        bound = bounds["read_p50_us"] if name.endswith("_us") else state_bound
        if abs(b - a) > bound * max(a, 1e-9):
            flags.append("%s %.4g -> %.4g" % (name, a, b))
    return flags


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "server", "service.h")):
        log("no seqdl sources under ./src; run from the root of a checkout")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log("workload %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
        return 4
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        log("runner exited with code %d and no result" % proc.returncode)
        return proc.returncode or 5
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log("workload %s did not report %s" % (args.workload, m["name"]))
                return 6
            got = {"value": 0, "unit": m["unit"]}
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    flags = stationarity(info, bounds)
    info["stationary"] = "yes" if not flags else "no: " + "; ".join(flags)
    info["wall_s"] = "%.3f" % (time.monotonic() - started)
    for name in sorted(result["metrics"]):
        if name not in metrics:
            info["extra." + name] = repr(result["metrics"][name]["value"])
    if flags:
        log("stationarity drift: " + "; ".join(flags))
    if not result["correct"]:
        log("wrong answers: " + info.get("wrong_answers", "?"))

    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

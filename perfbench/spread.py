#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage, from the root of a checkout:

  python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                              [--trace 0|1]

For every workload (default: all of BENCHMARK.json) it runs
perfbench/run.py once per seed, then prints per metric the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json. A benchmark is steady when every
spread except setup_s stays well below its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed,
                                                        proc.returncode))
    return result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        started = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        elapsed = time.monotonic() - started
        print("%s (%d seeds, %.0f s per run)"
              % (workload, args.seeds, elapsed / args.seeds))
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else (
                    "WIDE" if spread < bound else "OVER")
            print("  %-26s median %14.6g  spread %7.4f  bound %-6s %s"
                  % (name, med, spread, bound if bound is not None else "-",
                     flag))
        sys.stdout.flush()


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/main.cc).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload <server_mapped|fleet_short>
                           --seed N --seconds S --trace <0|1>
  python3 perfbench/run.py --self-test

The benchmark is built from source (the kqr library from src/, the shard
daemon from examples/kqr_shardd.cpp and the benchmark binary) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, as a Release build;
later runs rebuild incrementally. Build output goes to stderr only when the
build fails. The benchmark's stdout is passed
through: its last line is the result JSON. The exit code is the
benchmark's (non-zero on any wrong answer, failed build or timeout).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# Every run after the first must finish within this many seconds.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_quiet(cmd):
    """Runs a build step; echoes its output to stderr only on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
    return proc.returncode == 0


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", SOURCE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", out, "--target", target, "-j", jobs]):
        return None
    return os.path.join(out, target)


def default_seconds():
    """BENCHMARK.json's run_seconds: the run length its bounds describe."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds(),
                        help="timed seconds (default: BENCHMARK.json's "
                        "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_tests")
        return 1 if binary is None else subprocess.run([binary]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if args.seconds is None:
        parser.error("--seconds is required (no BENCHMARK.json run_seconds)")

    binary = build("kqr_perfbench")
    if binary is None:
        return 1
    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir(), "work-" + tag)]
    if args.trace:
        # The latest traced run's spans, one file per workload.
        cmd += ["--spans-out",
                os.path.join(build_dir(), "spans-%s.tsv" % args.workload)]
    sys.stdout.flush()
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s (%.0f s)\n"
                         % (RUN_TIMEOUT_S, time.monotonic() - started))
        return 1


if __name__ == "__main__":
    sys.exit(main())

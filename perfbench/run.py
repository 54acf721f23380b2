#!/usr/bin/env python3
"""Builds the engine benchmark from source and runs one workload.

    python3 perfbench/run.py --workload cjoin_mem_n128 --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; the traced run (--trace 1)
writes its spans and samples to <build dir>/traces/. The last line of
stdout is the benchmark's JSON result; build output goes to stderr.
Exits non-zero without a result when the build fails, when the run
fails, or when any query result differs from the reference evaluator.

    python3 perfbench/run.py --self-test

builds and runs the result checker's self-test instead.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    out = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        out = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    if args.self_test:
        return subprocess.run([os.path.join(out, "perfbench_selftest")],
                              timeout=RUN_TIMEOUT_S).returncode
    if not args.workload:
        ap.error("--workload is required")

    cmd = [os.path.join(out, "cjoin_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ingest|scan|serve_live \
        --seed N --seconds S --trace 0|1

Run from the root of a recomp checkout. The first call configures and
builds the library and the harness under $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls rebuild only what changed.
Every call runs the harness's self-tests, then the harness itself, whose
stdout passes through unchanged: its last line is the JSON result. Build
output goes to stderr. The exit code is the harness's, or non-zero without
a result when the build, the self-tests or the run fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_build_step(cmd, cwd):
    print("+ " + " ".join(cmd), file=sys.stderr, flush=True)
    try:
        done = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, root)
    run_build_step(["cmake", "--build", build_dir, "--parallel",
                    str(os.cpu_count() or 1), "--target", "perfbench_harness",
                    "perfbench_selftest"], root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "scan", "serve_live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.exists(os.path.join(root, "CMakeLists.txt")):
        fail(f"{root} is not a recomp checkout (no CMakeLists.txt)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              cwd=root, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=60)
    if selftest.returncode != 0:
        fail("the benchmark's self-tests failed", 1)

    cmd = [os.path.join(build_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", build_dir]
    try:
        harness = subprocess.run(cmd, cwd=root, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the harness did not finish within {HARNESS_TIMEOUT_S} s")
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()

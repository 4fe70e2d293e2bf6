#!/usr/bin/env python3
"""Builds spqbench from this checkout's sources and runs one workload.

    python3 spqbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine library and the benchmark are built with CMake under
$CARGO_TARGET_DIR/spqbench (default .bench_build/spqbench, relative to the
checkout root); the first call configures and builds, later calls rebuild
only what changed. Build output goes to stderr, so the benchmark's last
stdout line stays its JSON result. Exits non-zero, without a result, when
the build or the run fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "spqbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "spqbench")


def build(out):
    jobs = str(min(os.cpu_count() or 1, 4))
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", SOURCE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "spqbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            return False
    return True


def main():
    out = build_dir()
    try:
        if not build(out):
            print("spqbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("spqbench: build timed out", file=sys.stderr)
        return 1
    binary = os.path.join(out, "spqbench")
    try:
        proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("spqbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("spqbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

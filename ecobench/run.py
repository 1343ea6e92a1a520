#!/usr/bin/env python3
"""Builds and runs the EcoDB benchmark (see ecobench/NOTES.md).

Run from the repository root:

    python3 ecobench/run.py --workload tpch_joins --seed 1 --seconds 30 \
        --trace 0

The first run configures and builds the engine libraries and the benchmark
program into $CARGO_TARGET_DIR/ecobench (default .bench_build/ecobench);
later runs rebuild only what changed. The program's last line of standard
output is the JSON result. The exit code is the program's: non-zero when a
correctness check failed, or when the engine sources are missing or do not
build (then no result is printed). With --trace 1 the spans are written to
<build dir>/spans-<workload>-<seed>.jsonl unless --spans is given.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"ecobench/run.py: {msg}", file=sys.stderr, flush=True)


def flag_value(args, flag, default):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return default


def build(build_dir):
    """Configures (once) and builds the program; returns its path or None."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            log(f"build step timed out: {' '.join(cmd)}")
            return None
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return None
    return os.path.join(build_dir, "ecobench")


def main():
    args = sys.argv[1:]
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"engine sources not found under {ROOT}/src; nothing to build")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "ecobench")
    binary = build(build_dir)
    if binary is None:
        return 2

    if flag_value(args, "--trace", "0") == "1" and "--spans" not in args:
        workload = flag_value(args, "--workload", "unknown")
        seed = flag_value(args, "--seed", "default")
        args += ["--spans",
                 os.path.join(build_dir, f"spans-{workload}-{seed}.jsonl")]
    try:
        done = subprocess.run([binary] + args, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())

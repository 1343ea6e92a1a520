#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 ecobench/test_ecobench.py

They build the benchmark through run.py (first run: a few minutes) and then
check that
  * every metric BENCHMARK.json names is printed, with its unit, in the mode
    it belongs to (end-to-end untraced, per-layer traced);
  * the modeled metrics are bit-identical across two runs of one seed;
  * a deliberately corrupted row (or admission) fingerprint trips the
    correctness check: correct is false, the op counts as failed and the
    exit code is 1;
  * without the engine sources the command fails without printing a result.
Runs are short (--seconds 1); each workload still completes its fixed op
list once, so the whole file takes about three minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = "7"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODELED = [m["name"] for m in SPEC["end_to_end"]
           if m["name"].startswith("modeled_")]

_cache = {}


def run(workload, trace, *extra, cwd=ROOT, script=RUN):
    """Runs the benchmark once; returns (exit code, parsed last line)."""
    key = (workload, trace, extra, cwd)
    if key in _cache:
        return _cache[key]
    cmd = [sys.executable, script, "--workload", workload, "--seed", SEED,
           "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    _cache[key] = (done.returncode, result)
    return _cache[key]


class MetricsPrintedWithUnits(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                code, result = run(workload, trace)
                self.assertEqual(code, 0)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                metrics = result["metrics"]
                self.assertEqual(set(metrics), set(expected))
                for name, unit in expected.items():
                    self.assertEqual(metrics[name]["unit"], unit, name)
                    self.assertIsInstance(metrics[name]["value"], (int, float))

    def test_end_to_end_untraced(self):
        self.check(0, "end_to_end")

    def test_per_layer_traced(self):
        self.check(1, "per_layer")


class ModeledMetricsAreDeterministic(unittest.TestCase):
    def test_two_runs_bit_identical(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, 0)
                _, second = run(workload, 0, "--seconds", "2")
                for name in MODELED:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)


class CorruptedFingerprintTripsCheck(unittest.TestCase):
    def test_mismatch_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, 0, "--corrupt-fingerprint")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class NoSourcesNoResult(unittest.TestCase):
    def test_fails_without_engine_sources(self):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        isolated = os.path.join(ROOT, target, "isolated")
        shutil.rmtree(isolated, ignore_errors=True)
        os.makedirs(isolated)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), isolated)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(isolated, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            code, result = run(WORKLOADS[0], 0, cwd=isolated,
                               script=os.path.join(isolated, "ecobench",
                                                   "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(isolated, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)

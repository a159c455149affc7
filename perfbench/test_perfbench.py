#!/usr/bin/env python3
"""Tests of the benchmark's own code.

Runs the C++ unit tests (exact percentiles, span self time, the result
line), then a one-second run of every workload run.py knows (the gated
ones in BENCHMARK.json and `commits`) in both modes, checking that
the result line carries exactly the metrics BENCHMARK.json declares, each
with its declared unit, and that the run's correctness checks passed.

Usage (from the root of a checkout): python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_unit_tests(self):
        subprocess.run([str(run.build("perfbench_test"))], check=True)

    def test_every_declared_metric_is_printed(self):
        for w in self.spec["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.spec[group]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, str(BENCH_DIR / "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, stdout=subprocess.PIPE, text=True,
                        check=True)
                    result = json.loads(proc.stdout.strip().split("\n")[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()

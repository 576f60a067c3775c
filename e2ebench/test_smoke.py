#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 e2ebench/test_smoke.py

Runs every workload once in --smoke mode (tiny graphs, one set-up), untraced
and traced, and checks that the result line carries exactly the metrics
BENCHMARK.json names, with their units, that every output check passed, and
that the report line carries the run record and every per-workload metric.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-workload metrics printed in the report line (not gated).
REPORTED = {
    "serve-mixed": {
        "solve_exact_p95_ms": "ms", "solve_fast_p50_ms": "ms",
        "solve_fast_p95_ms": "ms", "embed_p50_ms": "ms",
        "failed_ratio": "ratio",
    },
    "ingest-stream": {
        "solve_exact_p95_ms": "ms", "solve_fast_p50_ms": "ms",
        "solve_fast_p95_ms": "ms", "update_p50_ms": "ms",
        "update_p95_ms": "ms", "fresh_solve_p50_ms": "ms",
        "recovery_s": "s", "failed_ratio": "ratio",
    },
    "serve-skewed": {
        "solve_exact_p95_ms": "ms", "small_solve_p95_ms": "ms",
        "large_solve_p50_ms": "ms", "failed_ratio": "ratio",
    },
}
RUN_RECORD = ("seed", "nproc", "pool_threads", "sgla_threads", "isa",
              "build_type", "sanitizer", "commit", "phases")


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError("run.py failed:\n" + out.stderr[-4000:])
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-2][len("e2ebench report "):])
    return report, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check(self, workload, trace):
        report, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], report["check_failures"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = self.bench["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
        for spec in expected:
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            if not trace:
                self.assertGreater(metric["value"], 0, spec["name"])
        for key in RUN_RECORD:
            self.assertIn(key, report)
        self.assertEqual(report["build_type"], "Release")
        if not trace:
            for name, unit in REPORTED[workload].items():
                self.assertEqual(report["metrics"][name]["unit"], unit, name)
            self.assertEqual(report["metrics"]["failed_ratio"]["value"], 0)

    def test_workloads(self):
        # Every workload the binary runs, gated in BENCHMARK.json or not.
        for workload in REPORTED:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    self.check(workload, trace)


if __name__ == "__main__":
    unittest.main()

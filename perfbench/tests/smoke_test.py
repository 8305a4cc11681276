#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload in smoke mode (tiny sizes, a one-second pass) with
tracing off and on, from the root of a checkout:

    python3 perfbench/tests/smoke_test.py

Each run executes all of the benchmark's output checks (valid assignments,
brute-force edges, recomputed objectives, traced digest == untraced
digest); a failed check exits non-zero. The test also
checks the shape of the JSON result line against BENCHMARK.json.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return done


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
        if not trace:
            for metric in wanted:
                self.assertGreater(result["metrics"][metric["name"]]["value"],
                                   0, metric["name"])
        digests = [l for l in lines if l.startswith("digest ")]
        self.assertEqual(len(digests), 1)
        return digests[0]

    def test_workloads(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            with self.subTest(workload=workload):
                untraced = self.check(workload, 0)
                traced = self.check(workload, 1)
                self.assertEqual(untraced, traced)

    def test_rejects_bad_arguments(self):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "nope",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()

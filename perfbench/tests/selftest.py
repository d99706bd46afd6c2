#!/usr/bin/env python3
"""Self-test of the repository benchmark, at a reduced size.

Run from the root of a checkout (it builds the benchmark on first use):

    python3 perfbench/tests/selftest.py

For every workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json, by
    name and with its unit, both in the summary and in the result line;
  * a traced run does the same for every per-layer metric;
  * both runs pass every output check (failed_frac is 0, exit code 0);
  * a run with one deliberately corrupted reference value is caught:
    failed_frac > 0, "correct" is false and the exit code is not 0.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace, *extra):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--reduced"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


class BenchmarkSelfTest(unittest.TestCase):
    def check_metrics(self, workload, trace, spec):
        proc, lines, result = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)  # failed_frac == 0
        summary = "\n".join(lines[:-1])
        self.assertRegex(summary, r"failed_frac\s+0\.0+ fraction")
        names = {m["name"] for m in spec}
        self.assertEqual(set(result["metrics"]), names)
        for m in spec:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertRegex(summary, r"\b%s\s+\S+ %s\b" % (
                m["name"].replace(".", r"\."), m["unit"].replace(".", r"\.")))

    def check_corrupted(self, workload):
        proc, _, result = run(workload, 0, "--corrupt-reference")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)


def add_tests():
    for w in SPEC["workloads"]:
        name = w["name"].replace("-", "_")

        def untraced(self, w=w["name"]):
            self.check_metrics(w, 0, SPEC["end_to_end"])

        def traced(self, w=w["name"]):
            self.check_metrics(w, 1, SPEC["per_layer"])

        def corrupted(self, w=w["name"]):
            self.check_corrupted(w)

        setattr(BenchmarkSelfTest, "test_%s_end_to_end" % name, untraced)
        setattr(BenchmarkSelfTest, "test_%s_per_layer" % name, traced)
        setattr(BenchmarkSelfTest, "test_%s_corrupted_reference" % name,
                corrupted)


add_tests()

if __name__ == "__main__":
    sys.exit(unittest.main())

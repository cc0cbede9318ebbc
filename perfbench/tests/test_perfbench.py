# Copyright (c) hyperdom authors. Licensed under the MIT license.
"""The benchmark's own tests: a short smoke run of every workload (both the
end-to-end and the traced run), the flag checks, and a compare-mode
self-test on synthetic result sets.

    python3 -m unittest discover -s perfbench/tests -v

The smoke runs build the benchmark on first use (a few minutes).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_py(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=900)


class FlagTest(unittest.TestCase):
    def test_unknown_flag_exits_2(self):
        out = run_py("--workload", WORKLOADS[0], "--seed", "1", "--shards", "4")
        self.assertEqual(out.returncode, 2, out.stderr)
        self.assertEqual(out.stdout, "")

    def test_unknown_workload_exits_2(self):
        out = run_py("--workload", "no_such_workload", "--seed", "1")
        self.assertEqual(out.returncode, 2, out.stderr)

    def test_abbreviated_flag_exits_2(self):
        out = run_py("--work", WORKLOADS[0], "--seed", "1")
        self.assertEqual(out.returncode, 2, out.stderr)

    def test_without_the_repository_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, os.path.join(tmp, "perfbench", "run.py"), "--workload",
                 WORKLOADS[0], "--seed", "1"], cwd=tmp, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


class SmokeTest(unittest.TestCase):
    """Two-second runs: every workload answers correctly and prints exactly
    the metrics BENCHMARK.json declares, with their units."""

    @classmethod
    def setUpClass(cls):
        cls.out = tempfile.mkdtemp(prefix="perfbench-smoke-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def check(self, workload, trace, declared):
        out = run_py("--workload", workload, "--seed", "7", "--seconds", "2", "--trace",
                     str(trace), "--out", self.out)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        result = json.loads(out.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for metric in declared:
            entry = result["metrics"][metric["name"]]
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(entry["value"], (int, float), metric["name"])

    def test_end_to_end(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0, BENCH["end_to_end"])

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, BENCH["per_layer"])


class CompareSelfTest(unittest.TestCase):
    """compare on synthetic record sets: a set against itself is never
    worse, a regression past the bound is worse, a clear gain is better."""

    def write_set(self, directory, scale):
        os.makedirs(directory)
        for seed in range(1, 11):
            metrics = {}
            for i, metric in enumerate(BENCH["end_to_end"]):
                base = (10.0 + i) * (1.0 + 0.001 * seed)
                factor = scale if metric["better"] == "lower" else 1.0 / scale
                metrics[metric["name"]] = {"value": base * factor, "unit": metric["unit"]}
            for workload in WORKLOADS:
                record = {"schema": "perfbench-result-v1", "workload": workload,
                          "seed": seed, "trace": 0, "metrics": metrics}
                name = "%s-seed%d-trace0.json" % (workload, seed)
                with open(os.path.join(directory, name), "w") as f:
                    json.dump(record, f)

    def compare(self, base_scale, change_scale):
        with tempfile.TemporaryDirectory() as tmp:
            base, change = os.path.join(tmp, "base"), os.path.join(tmp, "change")
            self.write_set(base, base_scale)
            self.write_set(change, change_scale)
            out = run_py("compare", base, change)
        rows = [line.split() for line in out.stdout.splitlines()[1:]]
        self.assertEqual(len(rows), len(WORKLOADS) * len(BENCH["end_to_end"]))
        return out.returncode, {row[-1] for row in rows}

    def test_same_code_is_unresolved(self):
        self.assertEqual(self.compare(1.0, 1.0), (0, {"unresolved"}))

    def test_regression_beyond_bound_is_worse(self):
        self.assertEqual(self.compare(1.0, 1.5), (1, {"worse"}))

    def test_clear_gain_is_better(self):
        self.assertEqual(self.compare(1.0, 0.5), (0, {"better"}))


if __name__ == "__main__":
    unittest.main()

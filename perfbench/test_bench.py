#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, on a tiny configuration of every
workload (--tiny: small matrices, a few requests).

    python3 perfbench/test_bench.py

Checks that every run prints the one-line JSON result with exactly the keys
correct/attempted/failed/metrics; that the metrics are exactly the ones
BENCHMARK.json declares (end_to_end untraced, per_layer traced), each with
its declared unit; that a fixed seed reproduces the same RHS and request
lists (the "inputs digest" line) while another seed changes them; and that
the benchmark fails without printing a result when the library sources are
absent.
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
BARE = os.path.join(ROOT, ".bench_build", "selftest_bare")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


_cache = {}


def run_tiny(workload, seed, trace):
    """(result dict, inputs digest) of one tiny run, cached per arguments."""
    key = (workload, seed, trace)
    if key not in _cache:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise AssertionError("%s exited %d:\n%s" % (key, proc.returncode, proc.stdout))
        lines = proc.stdout.splitlines()
        digest = [l for l in lines if l.startswith("inputs digest:")]
        _cache[key] = (json.loads(lines[-1]), digest[0] if digest else None)
    return _cache[key]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in declared}
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(want))
        for name, unit in want.items():
            self.assertEqual(got[name]["unit"], unit, name)
            self.assertIsInstance(got[name]["value"], (int, float), name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.check_result(run_tiny(w, 7, 0)[0], self.bench["end_to_end"])

    def test_traced_run_prints_every_per_layer_metric(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                self.check_result(run_tiny(w, 7, 1)[0], self.bench["per_layer"])

    def test_seed_fixes_the_inputs(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                first = run_tiny(w, 7, 0)[1]
                self.assertIsNotNone(first)
                # The traced run is a separate process drawing the same inputs.
                self.assertEqual(first, run_tiny(w, 7, 1)[1])
                self.assertNotEqual(first, run_tiny(w, 8, 0)[1])

    def test_fails_without_the_library_sources(self):
        shutil.rmtree(BARE, ignore_errors=True)
        os.makedirs(BARE)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), BARE)
        for path in self.bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(BARE, path))
        try:
            cmd = self.bench["command"] + ["--workload", self.workloads[0], "--seed", "1",
                                           "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=BARE, stdout=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(BARE, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

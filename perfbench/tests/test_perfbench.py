"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench/tests -v

The first tests are pure Python. The others build the benchmark (as a run
does, into .bench_build/) and then check the generator's determinism, run
the C++ wire-checker tests, and run the benchmark briefly to check its
output against BENCHMARK.json.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Percentile(unittest.TestCase):
    def test_nearest_rank_on_fixed_vectors(self):
        hundred = list(range(1, 101))
        self.assertEqual(run.percentile(hundred, 50), 50)
        self.assertEqual(run.percentile(hundred, 99), 99)
        self.assertEqual(run.percentile(hundred, 100), 100)
        self.assertEqual(run.percentile(list(reversed(hundred)), 1), 1)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(run.percentile([7.5], 99), 7.5)
        self.assertEqual(run.percentile([10, 20], 0.1), 10)
        with self.assertRaises(run.BenchError):
            run.percentile([], 50)


class MetricNames(unittest.TestCase):
    def test_names_match_the_declaration(self):
        bench = declared()
        e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        for name in list(e2e) + list(layers) + list(run.WORKLOADS):
            self.assertRegex(name, NAME)


class Built(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tcsactl, cls.client = run.build()

    def gen(self, workload, seed):
        out = tempfile.mkdtemp(dir=run.BUILD)
        subprocess.run([self.client, "gen", "--workload", workload,
                        "--seed", str(seed), "--seconds", "3", "--dir", out],
                       check=True)
        files = {}
        for name in ("catalog.tcsa", "partner.tcsa", "arrivals.txt"):
            with open(os.path.join(out, name), "rb") as f:
                files[name] = f.read()
        return files

    def test_generator_output_is_byte_identical_per_seed(self):
        for workload in run.WORKLOADS:
            first, again = self.gen(workload, 5), self.gen(workload, 5)
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first["arrivals.txt"],
                                self.gen(workload, 6)["arrivals.txt"])

    def test_wire_checker_rejects_bad_frames(self):
        selftest = os.path.join(os.path.dirname(self.client),
                                "perfbench_selftest")
        proc = subprocess.run([selftest], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])


class OutputSchema(unittest.TestCase):
    def check_output(self, trace, units):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
             "hybrid-pull", "--seed", "3", "--seconds", "2", "--trace",
             str(trace)], capture_output=True, text=True, cwd=ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], units[name])
            self.assertIsInstance(metric["value"], (int, float))
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_untraced_output_has_every_end_to_end_metric(self):
        bench = declared()
        self.check_output(0, {m["name"]: m["unit"]
                              for m in bench["end_to_end"]})

    def test_traced_output_has_every_per_layer_metric(self):
        bench = declared()
        self.check_output(1, {m["name"]: m["unit"]
                              for m in bench["per_layer"]})


if __name__ == "__main__":
    unittest.main()

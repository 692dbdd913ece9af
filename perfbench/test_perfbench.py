#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the repository root. The JVM-side checks (timing decorator,
sliced reference, benchmark sink) build the package and run SelfTest.
"""
import copy
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402
import run  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def scala_workload_names():
    with open(os.path.join(HERE, "src", "repro", "perfbench", "Workloads.scala")) as fh:
        return re.findall(r'Spec\("([^"]+)"', fh.read())


class NamesTest(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        spec = run.load_spec(ROOT)
        names = ([w["name"] for w in spec["workloads"]]
                 + [m["name"] for m in spec["end_to_end"]]
                 + [m["name"] for m in spec["per_layer"]])
        for n in names:
            self.assertRegex(n, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_declared_workloads_are_the_ones_the_jvm_runs(self):
        spec = run.load_spec(ROOT)
        self.assertEqual([w["name"] for w in spec["workloads"]], scala_workload_names())

    def test_setup_metric_is_declared(self):
        e2e = {m["name"]: m for m in run.load_spec(ROOT)["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))


class GateTest(unittest.TestCase):
    REPORT = {
        "rounds": [{"count": 10, "checksum": 77}, {"count": 10, "checksum": 77}],
        "reference": {"count": 10, "checksum": 77},
        "errors": [],
        "checks": [{"stream": True}],
    }

    def test_clean_report_passes(self):
        self.assertEqual(run.gate(self.REPORT)[:2], (3, 0))

    def test_corrupted_checksum_fails(self):
        bad = copy.deepcopy(self.REPORT)
        bad["rounds"][1]["checksum"] += 1
        attempted, failed, problems = run.gate(bad)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("round 1", problems[0])

    def test_corrupted_reference_fails_every_round(self):
        bad = copy.deepcopy(self.REPORT)
        bad["reference"]["checksum"] ^= 1 << 40
        self.assertEqual(run.gate(bad)[1], 2)

    def test_deadline_or_exception_fails(self):
        hung = {"rounds": [{"count": 10, "checksum": 77}], "reference": None,
                "errors": ["round 1: deadline of 60000 ms overrun"]}
        attempted, failed, _ = run.gate(hung)
        self.assertEqual((attempted, failed), (2, 2))

    def test_failed_stream_check_fails(self):
        bad = copy.deepcopy(self.REPORT)
        bad["checks"] = [{"stream": False}]
        self.assertEqual(run.gate(bad)[1], 1)


class JvmSelfTest(unittest.TestCase):
    def test_decorator_reference_and_sink(self):
        classes, _ = build.build(ROOT)
        done = subprocess.run(["java", "-Xmx1g", "-XX:-UsePerfData", "-cp", build.classpath(classes),
                               "repro.perfbench.SelfTest"], capture_output=True, text=True, timeout=300)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("ok   timing decorator keeps (count, checksum)", done.stdout)


class EmptyCheckoutTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        scratch = os.path.join(ROOT, build.BUILD_DIR)
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "single_pim",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=d, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Tests of the benchmark itself, in its seconds-long smoke setting.

    python3 perfbench/test_perfbench.py

They check BENCHMARK.json against the benchmark contract, run every
workload through run.py with --smoke (untraced and traced) and check the
printed metric names and units, the output checks and the result-file
schema, check compare.py's verdict rule on synthetic results, and check
that the command fails cleanly without the program's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FACTS = ("git_sha", "source_digest", "nproc", "compiler", "build_type",
         "work_limit", "executor_width", "clients", "seed",
         "steal_ticks_delta", "samples", "setup_samples")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class SpecTest(unittest.TestCase):
    def test_contract(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        names = []
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
            names.append(m["name"])
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            names.append(m["name"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = tempfile.mkdtemp(prefix="perfbench-smoke-")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.out, ignore_errors=True)

    def check(self, workload, trace):
        spec = load_spec()
        proc = run_bench(["--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace),
                          "--smoke", "--out", self.out])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(line),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreaterEqual(line["attempted"], 1)
        section = spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(line["metrics"]), {m["name"] for m in section})
        for m in section:
            got = line["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"])
            self.assertIsInstance(got["value"], (int, float))
        if not trace:
            for name, got in line["metrics"].items():
                self.assertGreater(got["value"], 0, name)

        stem = "%s-seed7-trace%d" % (workload, trace)
        with open(os.path.join(self.out, stem + ".json")) as f:
            result = json.load(f)
        self.assertEqual(result["schema"], 1)
        self.assertEqual(result["metrics"], line["metrics"])
        for fact in FACTS:
            self.assertIn(fact, result["facts"])
        checks = result["checks"]
        self.assertEqual(checks["a_invalid_schedules"], 0)
        if workload.startswith("serve_"):
            self.assertEqual(checks["c_wire_mismatches"], 0)
            self.assertEqual(checks["d_store_misses"],
                             checks["d_expected_misses"])
            self.assertEqual(checks["connect_failures"], 0)
        if trace:
            self.assertTrue(os.path.isfile(
                os.path.join(self.out, stem + ".trace.json")))
            root = "replay.layer" if workload == "resnet50_cold" else "request"
            self.assertIn("unattributed_share",
                          result["findings"]["stage_budget"][root])
            self.assertEqual(result["metrics"]["mapping.invalid"]["value"], 0)
        if trace and workload == "resnet50_cold":
            findings = result["findings"]
            self.assertEqual(findings["replay_lp_iterations"],
                             findings["query_lp_iterations"])
            self.assertEqual(len(result["layer_rows"]), 23)
        if trace and workload == "serve_novel_mix":
            findings = result["findings"]
            self.assertGreaterEqual(findings["novel_replayed"], 1)
            self.assertEqual(findings["replay_lp_mismatches"], 0)
            self.assertEqual(findings["replay_lp_iterations"],
                             findings["wire_lp_iterations"])

    def test_resnet50_cold(self):
        self.check("resnet50_cold", 0)
        self.check("resnet50_cold", 1)

    def test_serve_warm_hits(self):
        self.check("serve_warm_hits", 0)
        self.check("serve_warm_hits", 1)

    def test_serve_novel_mix(self):
        self.check("serve_novel_mix", 0)
        self.check("serve_novel_mix", 1)


class CompareTest(unittest.TestCase):
    def test_verdicts(self):
        seeds = range(10)
        base = {s: 100.0 + s % 3 for s in seeds}
        self.assertEqual(compare.verdict(base, {s: 80.0 for s in seeds},
                                         "lower", 0.1), "better")
        self.assertEqual(compare.verdict(base, {s: 120.0 for s in seeds},
                                         "lower", 0.1), "worse")
        self.assertEqual(compare.verdict(base, dict(base), "lower", 0.1),
                         "within bound")
        noisy = {s: 100.0 + 40 * (s % 2) for s in seeds}
        self.assertEqual(compare.verdict(noisy, dict(noisy), "lower", 0.1),
                         "unresolved")
        self.assertEqual(compare.verdict(base, {s: 80.0 for s in seeds},
                                         "higher", 0.1), "worse")


class MissingSourcesTest(unittest.TestCase):
    def test_fails_without_sources(self):
        tmp = tempfile.mkdtemp(prefix="perfbench-bare-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(["--workload", "resnet50_cold", "--seed", "1",
                              "--seconds", "1", "--trace", "0"], cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

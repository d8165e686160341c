"""The benchmark's own tests.

Run from the repository root (about a minute on two CPUs)::

    python3 perfbench/selftest.py

They check that ``BENCHMARK.json`` is well formed, that a smoke-sized run
of every workload prints exactly the metric names it lists (and the
traced run exactly the per-layer names, plus its span file), that a
deliberately corrupted reference shows up as failed operations, and that
the benchmark refuses to run where the system under test is missing.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SpecTest(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()), 64 * 1024)

    def test_names_units_and_bounds(self):
        names = []
        for entry in SPEC["workloads"]:
            self.assertEqual(set(entry), {"name", "why"})
            self.assertLessEqual(len(entry["why"]), 200)
            self.assertNotIn("\n", entry["why"])
            names.append(entry["name"])
        for entry in SPEC["end_to_end"]:
            self.assertEqual(set(entry), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < entry["bound"] <= 0.25)
            names.append(entry["name"])
        for entry in SPEC["per_layer"]:
            self.assertEqual(set(entry), {"name", "unit", "better"})
            names.append(entry["name"])
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(entry["unit"], UNIT)
            self.assertIn(entry["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")
        setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(e["bound"] for e in SPEC["end_to_end"]))


class SmokeRunTest(unittest.TestCase):
    def _check_result(self, result: dict, spec_metrics, nonzero: bool):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {entry["name"]: entry["unit"] for entry in spec_metrics}
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"})
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            if nonzero:
                self.assertGreater(metric["value"], 0, name)

    def test_every_workload_prints_exactly_the_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", "0", "--smoke")
                self.assertEqual(done.returncode, 0, done.stderr)
                self._check_result(last_json(done.stdout), SPEC["end_to_end"], nonzero=True)

    def test_traced_run_prints_exactly_the_per_layer_metrics_and_spans(self):
        done = bench("--workload", WORKLOADS[0], "--seed", "7", "--seconds", "1",
                     "--trace", "1", "--smoke")
        self.assertEqual(done.returncode, 0, done.stderr)
        self._check_result(last_json(done.stdout), SPEC["per_layer"], nonzero=False)
        spans = HERE / "out" / f"spans-{WORKLOADS[0]}-7.jsonl"
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        self.assertTrue(records)
        ids = {record["id"] for record in records}
        for record in records:
            self.assertLessEqual(record["start"], record["end"])
            self.assertTrue(record["parent"] is None or record["parent"] in ids)
            self.assertEqual(record["run"], records[0]["run"])

    def test_corrupted_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                             "--smoke", "--corrupt-reference")
                result = last_json(done.stdout)
                self.assertGreater(result["failed"] / result["attempted"], 0)
                self.assertFalse(result["correct"])


class MissingSystemTest(unittest.TestCase):
    def test_refuses_without_the_system(self):
        bare = HERE / ".work" / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (bare / "perfbench").mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in HERE.glob("*.py"):
                shutil.copy(path, bare / "perfbench")
            done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()

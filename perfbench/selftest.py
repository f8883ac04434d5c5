#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from the root of a checkout (about a minute):

    python3 perfbench/selftest.py

They check ``BENCHMARK.json`` against its schema and the run schedule,
that every workload prints each declared metric with its unit, that a
smoke-size run passes its correctness checks traced and untraced, that a
missing hook target is reported as absent, and that the benchmark refuses to
run where there is no program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


class SpecTest(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(
            set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
        )
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        budget = (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 15)
        self.assertLess(budget, 3420, "4 + 22 runs per workload must fit in 3420 s")

    def test_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            names.append(m["name"])
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"]), m["name"])
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_entries_have_exact_keys(self):
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_setup_has_the_largest_bound(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_paths_and_command(self):
        for p in SPEC["paths"]:
            self.assertTrue((ROOT / p).is_dir())
            self.assertRegex(p, r"^[A-Za-z0-9_.\-/]{1,200}$")
        self.assertEqual(SPEC["command"][1:], ["perfbench/run.py"])


class HelperTest(unittest.TestCase):
    def test_tail_has_ten_samples_beyond(self):
        from run import tail

        samples = [float(i) for i in range(1, 25)]
        value, pct = tail(samples)
        self.assertEqual(sum(1 for x in samples if x > value), 10)
        self.assertAlmostEqual(pct, 100.0 * 14 / 24)
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0))

    def test_self_time_subtracts_children(self):
        from spans import Tracer

        tr = Tracer()
        tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0], ["inner", 5.0, 7.0, 0], ["leaf", 2.0, 3.0, 1]]
        wall, own = tr.durations()
        self.assertEqual(own["outer"], [5.0])
        self.assertEqual(own["inner"], [2.0, 2.0])
        self.assertEqual(wall["inner"], [3.0, 2.0])
        m = tr.layer_metrics(["outer.s", "outer.self_s", "inner.calls"])
        self.assertEqual(m, {"outer.s": 10.0, "outer.self_s": 5.0, "inner.calls": 2.0})

    def test_missing_hook_target_is_absent(self):
        import oversmooth.tikhonov as tik
        import spans

        saved = dict(spans.HOOKS)
        alias = [k for k, v in vars(tik).items() if getattr(v, "__module__", "").startswith("scipy.optimize")]
        originals = {k: getattr(tik, k) for k in alias}
        try:
            spans.HOOKS["scale.power"] = ("oversmooth.scale", "ScaleOperator.no_such_method")
            for k in alias:
                setattr(tik, k, lambda *a, **kw: None)  # the optimizer alias is gone
            tr = spans.Tracer().install()
            tr.uninstall()
        finally:
            spans.HOOKS.clear()
            spans.HOOKS.update(saved)
            for k, v in originals.items():
                setattr(tik, k, v)
        self.assertIn("scale.power", tr.absent)
        self.assertIn("tikhonov.descent", tr.absent)
        m = tr.layer_metrics(["scale.power.calls", "tikhonov.descent.capped_frac", "tikhonov.minimize.calls"])
        self.assertEqual(m["scale.power.calls"], spans.ABSENT)
        self.assertEqual(m["tikhonov.descent.capped_frac"], spans.ABSENT)
        self.assertEqual(m["tikhonov.minimize.calls"], 0.0)


class SmokeRunTest(unittest.TestCase):
    """Each workload at smoke size, untraced and traced."""

    def check_run(self, workload: str, trace: int, declared: list[dict]) -> dict:
        code, result, output = bench(
            "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "smoke"
        )
        self.assertEqual(code, 0, output)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], output)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, {m["name"]: m["unit"] for m in declared})
        for name, m in result["metrics"].items():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float), name)
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_workloads(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                m = self.check_run(w["name"], 0, SPEC["end_to_end"])
                for name, value in m.items():
                    self.assertGreater(value, 0.0, name)
            with self.subTest(workload=w["name"], trace=1):
                m = self.check_run(w["name"], 1, SPEC["per_layer"])
                self.assertTrue(all(v >= 0.0 for k, v in m.items() if not k.startswith("trace.overhead")))
                if w["name"].startswith("operators"):
                    self.assertEqual(m["tikhonov.minimize.calls"], 0.0)
                    self.assertGreater(m["scale.power.calls"], 0.0)
                else:
                    self.assertGreater(m["tikhonov.minimize.calls"], 0.0)
                    self.assertGreater(m["tikhonov.descent.count"], 0.0)


class NoProgramTest(unittest.TestCase):
    def test_refuses_without_the_program(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for p in SPEC["paths"]:
                shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
            code, result, output = bench(
                "--workload", SPEC["workloads"][0]["name"], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result, output)


if __name__ == "__main__":
    unittest.main(verbosity=2)

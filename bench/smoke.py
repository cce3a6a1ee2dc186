#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke.py

- every metric BENCHMARK.json names is emitted, with its unit, in both modes;
- each checker flags a deliberately perturbed result and passes the real one;
- the traced run's counts repeat exactly for the same seed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7


def bench(workload: str, trace: int, seconds: float = 0.5):
    """(report, result) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


class EmittedMetrics(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in result["metrics"].values():
                        self.assertIsInstance(metric["value"], (int, float))


class TracedCountsRepeat(unittest.TestCase):
    def test_same_seed_same_counts(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, _ = bench(workload, 1)
                second, _ = bench(workload, 1)
                self.assertEqual(first["counts_first_round"], second["counts_first_round"])
                counts = {k: v["value"] for k, v in first["metrics"].items()
                          if v["unit"] != "ms/op" and k != "trace_overhead"}
                again = {k: second["metrics"][k]["value"] for k in counts}
                self.assertEqual(counts, again)


class CheckersFlagPerturbedResults(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(BENCH_DIR))
        import run

        run.import_program()
        import check
        import workloads

        cls.check, cls.workloads = check, workloads

    def first_op(self, name, label=None):
        wl = self.workloads.WORKLOADS[name]
        for op in islice(wl.ops(SEED), 80):
            if label is None or op.label == label:
                return op, wl.run(op)
        raise AssertionError(f"no {label} op in the first 80")

    def test_witness(self):
        op, report = self.first_op("witness")
        self.assertEqual(self.check.check_witness(op, report), [])
        flipped = self.check.VIOLATED if report.consistent else "consistent-to-order-6"
        self.assertTrue(self.check.check_witness(op, dataclasses.replace(report, verdict=flipped)))
        cand = report.map_candidate
        bumped = dataclasses.replace(cand, coeffs=(cand.coeffs[0] + 1,) + cand.coeffs[1:])
        self.assertTrue(self.check.check_witness(op, dataclasses.replace(report, map_candidate=bumped)))

    def test_invert(self):
        op, result = self.first_op("invert")
        self.assertEqual(self.check.check_invert(op, result), [])
        coeffs = list(result.by_faber.coeffs)
        coeffs[-1] += 1
        wrong = type(result.by_faber)(coeffs)
        self.assertTrue(self.check.check_invert(op, dataclasses.replace(result, by_faber=wrong, by_revert=wrong)))

    def test_cli(self):
        for label in ("bound1", "bound2", "eval-exact", "eval-numeric", "fib", "ptilde",
                      "ptilde-table", "corollaries", "witness", "error"):
            with self.subTest(label=label):
                op, result = self.first_op("cli", label)
                self.assertEqual(self.check.check_cli(op, result), [])
                self.assertTrue(self.check.check_cli(op, dataclasses.replace(result, exit_code=1)))
                if op.spec["exit"] == 0:
                    tampered = perturb(label, result.stdout)
                    self.assertTrue(self.check.check_cli(op, dataclasses.replace(result, stdout=tampered)))

    def test_non_finite_json_is_rejected(self):
        op, result = self.first_op("cli", "eval-numeric")
        payload = json.loads(result.stdout)
        payload["re"] = float("nan")
        nan_out = json.dumps(payload)
        self.assertTrue(self.check.check_cli(op, dataclasses.replace(result, stdout=nan_out)))


def perturb(kind: str, stdout: str) -> str:
    """The output with the value the checker tests for this request kind changed."""
    if kind == "ptilde-table":
        lines = stdout.splitlines()
        row = lines[-1].split(",")
        row[-1] = repr(float(row[-1]) * 1.001)
        return "\n".join(lines[:-1] + [",".join(row)]) + "\n"
    payload = json.loads(stdout)
    if kind == "bound1":
        payload["bound_float"] *= 1.001
    elif kind == "bound2":
        (payload["bounds"][0] if "bounds" in payload else payload)["bound_float"] *= 1.001
    elif kind == "eval-exact":
        payload["exact"] += " + 1/1000"
    elif kind == "eval-numeric":
        payload["re"] += 1e-3
    elif kind == "fib":
        payload["values"][-1] += 1
    elif kind == "ptilde":
        entry = payload["coefficients"][-1]
        if "exact" in entry:
            entry["exact"] += " + 1/1000"
        else:
            entry["float"] *= 1.001
    elif kind == "corollaries":
        payload["rows"][0]["actual"] *= 1.001
    elif kind == "witness":
        payload["verdict"] = "necessary-condition-violated" if payload["verdict"].startswith("consistent") else "consistent-to-order-4"
    return json.dumps(payload, indent=2) + "\n"


if __name__ == "__main__":
    unittest.main()

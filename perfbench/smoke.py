"""Smoke test of the benchmark itself; it is not part of the tier-1 suite.

    python3 perfbench/smoke.py

Runs every workload once at its tiny size, untraced and traced, and checks
that every metric BENCHMARK.json declares is printed with its unit.  Then
measures a workload in-process against a deliberately wrong expected
digest and checks that the mismatch is counted as a failure.  Also checks
that layer_map.json names exactly the declared per-layer metrics.
"""

import json
import subprocess
import sys
import unittest

import run
from workloads import BENCH_DIR, ROOT, WORKLOADS, load_digests

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--seed", "3",
                           "--seconds", "0", "--tiny", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
            expected = {m["name"]: m["unit"] for m in declared}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    code, result = run_bench("--workload", name, "--trace", trace)
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {key: v["unit"] for key, v in result["metrics"].items()}
                    self.assertEqual(units, expected)

    def test_layer_map_covers_every_per_layer_metric(self):
        layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text(encoding="utf-8"))
        self.assertEqual(list(layer_map["map"]), [m["name"] for m in SPEC["per_layer"]])
        workloads = {w["name"] for w in SPEC["workloads"]}
        self.assertEqual(workloads, set(WORKLOADS))
        for entry in layer_map["map"].values():
            self.assertLessEqual(set(entry["on"]), workloads)

    def test_wrong_expected_digest_is_a_failure(self):
        wrong = load_digests()
        for seed in wrong["tiny"]["ez-certify"]:
            wrong["tiny"]["ez-certify"][seed] = "0" * 64
        gate, metrics, _ = run.measure("ez-certify", 3, 0, trace=False, tiny=True,
                                       digests=wrong)
        self.assertFalse(gate.correct)
        self.assertEqual(gate.failed, 1)
        self.assertLess(metrics["pass_ratio"], 1.0)


if __name__ == "__main__":
    unittest.main()

"""Self-tests of the benchmark at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

Each workload runs at ``--scale tiny`` (an n=4 sweep of 4,096 digraphs, a
300-member population, two 40-vertex decompose inputs).  The tests check
that every metric named in BENCHMARK.json prints with its unit, that traced
call counts repeat exactly between two runs, that a traced function which no
longer exists is reported as absent while one that moved is still found,
and that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class EndToEnd(unittest.TestCase):
    def test_every_metric_prints_with_its_unit(self):
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                out = result(bench(workload, 0))
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                units = {name: m["unit"] for name, m in out["metrics"].items()}
                self.assertEqual(units, expected)
                self.assertTrue(all(m["value"] > 0 for m in out["metrics"].values()))

    def test_sweep_scans_every_digraph_on_four_vertices(self):
        out = result(bench("sweep-n5-in", 0))
        self.assertEqual(out["attempted"] % 4_096, 0)


class Traced(unittest.TestCase):
    def test_layer_metrics_print_and_counts_repeat(self):
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first, second = (result(bench(workload, 1)) for _ in range(2))
                units = {name: m["unit"] for name, m in first["metrics"].items()}
                self.assertEqual(units, expected)
                for name, unit in expected.items():
                    if unit == "count":
                        self.assertEqual(
                            first["metrics"][name]["value"],
                            second["metrics"][name]["value"],
                            name,
                        )

    def test_sweep_trace_counts(self):
        metrics = result(bench("sweep-n5-in", 1))["metrics"]
        self.assertEqual(metrics["generators.enumerate_digraphs.yields"]["value"], 4_096)
        self.assertEqual(metrics["decompose.outcome.diperfect"]["value"], 2_034)
        self.assertEqual(metrics["structure.scc_per_member"]["value"], 2.0)

    def test_missing_function_is_absent_and_wrappers_come_off(self):
        sys.path.insert(0, str(HERE))
        sys.path.insert(0, str(ROOT / "src"))
        try:
            import arclocal.patterns as patterns
            import arclocal.structure as structure
            from arclocal import Digraph
            from spans import Target, Tracer

            original = patterns.find_pattern_violation
            tracer = Tracer([
                Target("gone", ("arclocal.patterns:no_such_function",)),
                Target("gone.module", ("arclocal.no_such_module:f",)),
                Target("scan", ("arclocal.patterns:find_pattern_violation",),
                       hit=lambda r: r is not None),
                Target("moved", ("arclocal.no_such_module:strong_components",)),
            ])
            self.assertEqual(tracer.absent, ["gone", "gone.module"])
            self.assertIn("moved", tracer.layers)
            with tracer:
                self.assertIsNot(structure.find_pattern_violation, original)
                d = Digraph(4, [(0, 1), (1, 2), (3, 2)])
                self.assertIsNotNone(structure.find_pattern_violation(d, "in_in"))
            self.assertIs(patterns.find_pattern_violation, original)
            self.assertIs(structure.find_pattern_violation, original)
            self.assertEqual((tracer.layers["scan"].calls, tracer.layers["scan"].hits), (1, 1))
        finally:
            sys.path.remove(str(HERE))
            sys.path.remove(str(ROOT / "src"))


class Refusal(unittest.TestCase):
    def test_fails_without_the_package_source(self):
        bare = Path(tempfile.mkdtemp(prefix=".work-selftest-", dir=HERE))
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work-*"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("population-in", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()

"""Smoke test for the benchmark.

Runs every workload at its smallest size, untraced and traced, and checks
that each run prints every metric ``BENCHMARK.json`` names, with its unit,
that every output check ran, and that the workloads the file names report
correct outputs.  Also checks the span recorder's self time and that the
benchmark refuses to run without the asptoc sources.

    python3 perfbench/test_run.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CHECKS = {"translate-scc": {"exit", "witness", "identical"},
          "translate-ranked": {"exit", "witness", "identical"},
          "verify-fuzz": {"report", "verdict"},
          "solve-stub": {"oracle"}}
GATED = [w["name"] for w in SPEC["workloads"]]
# solve-stub is run by hand only: its known failures keep it out of
# BENCHMARK.json (see README.md); it alone prints the solver round trip
SOLVER_LAYERS = {"smtlib.run_solver_s": "s", "smtlib.read_model_s": "s",
                 "smtlib.solver_calls": "count", "smtlib.response_bytes": "bytes",
                 "smtlib.sat_ratio": "ratio"}

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace), "--smallest"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_and_checks_every_output(self):
        for workload in GATED + ["solve-stub"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(ROOT, workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    *_, checks_line, result_line = proc.stdout.strip().splitlines()
                    result = json.loads(result_line)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    if workload == "solve-stub" and trace:
                        expected.update(SOLVER_LAYERS)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     expected)
                    if workload in GATED:
                        self.assertTrue(result["correct"], result)
                    for value in result["metrics"].values():
                        self.assertTrue(math.isfinite(value["value"]))
                    checks = json.loads(checks_line)
                    self.assertEqual(set(checks["checks"]), CHECKS[workload])
                    self.assertEqual(checks["inputs_checked"], checks["inputs"])
                    self.assertGreaterEqual(result["attempted"], checks["inputs"])

    def test_refuses_to_run_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench(Path(tmp), GATED[0], 0)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


class TracerTest(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with tracer.span("root", 0):
            with tracer.span("child", 0):
                time.sleep(0.02)
            time.sleep(0.01)
        root, child = tracer.spans
        self.assertEqual(child.parent, root.id)
        selfs = tracer.self_times()
        self.assertAlmostEqual(selfs[root.id], root.duration - child.duration, places=9)
        self.assertEqual(selfs[child.id], child.duration)
        self.assertEqual(tracer.layer_times()[(0, "child")], child.duration)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""The benchmark's own tests, on the short mode of every workload.

Run from the root of a checkout:  python3 perfbench/test_perfbench.py

The first test to run builds the harness through run.py (into
.bench_build/perfbench, or under $CARGO_TARGET_DIR); later runs reuse it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's entry point)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
LAYERS = ("bench", "model", "core", "baselines", "fault", "des", "serve")


def run_py(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900)


def short_run(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    """(result line, report) of one short run through run.py."""
    done = run_py("--workload", workload, "--seed", str(seed),
                  "--seconds", "0", "--trace", str(trace), "--short")
    if done.returncode != 0:
        raise AssertionError(f"run.py exited {done.returncode}:\n"
                             f"{done.stdout}\n{done.stderr}")
    lines = done.stdout.strip().split("\n")
    report = json.loads(lines[-2].removeprefix("perfbench-report "))
    return json.loads(lines[-1]), report


def harness(*args: str) -> subprocess.CompletedProcess:
    """Runs the built harness directly (for options run.py does not pass)."""
    binary = run.build_dir(ROOT) / "idde_perfbench"
    return subprocess.run([str(binary), *args], capture_output=True,
                          text=True, timeout=300)


class ShortModeTest(unittest.TestCase):
    def test_every_workload_reports_every_end_to_end_metric(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, report = short_run(workload, seed=3)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], report["round_ops"])
                self.assertEqual(set(result["metrics"]), E2E)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)
                # The report adds p90, failed_frac and the quality metrics,
                # each with its sample count.
                self.assertIn("op_ms_p90", report["e2e"])
                self.assertEqual(report["e2e"]["failed_frac"]["value"], 0)
                self.assertTrue(any(k.startswith("quality.")
                                    for k in report["exact"]))

    def test_digest_is_a_function_of_the_seed(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, first = short_run(workload, seed=5)
                _, second = short_run(workload, seed=5)
                _, other = short_run(workload, seed=6)
                self.assertEqual(first["digest"], second["digest"])
                self.assertEqual(first["exact"], second["exact"])
                # metro-pipeline runs one fixed instance (README.md).
                if workload != "metro-pipeline":
                    self.assertNotEqual(first["digest"], other["digest"])


class FailureAccountingTest(unittest.TestCase):
    def test_known_eq6_rounding_case_counts_as_failed_op(self) -> None:
        # Set #1 N=40 (point 4), instance 27004: the integer-KB ledger
        # admits 150 MB on server 2, whose capacity is just under 150 MB,
        # and validate_strategy rejects it. The run must count the op as
        # failed, name every failing approach, and still finish.
        run.build(ROOT, run.build_dir(ROOT))
        done = harness("--workload", "sweep-paper", "--seed", "1",
                       "--seconds", "0", "--pin-point", "4",
                       "--pin-instance-seed", "27004")
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        report = json.loads(lines[-2].removeprefix("perfbench-report "))
        self.assertEqual(report["e2e"]["failed_frac"]["value"], 1)
        failures = [line for line in lines if " failed: " in line]
        for approach in ("IDDE-G", "SAA", "DUP-G"):
            self.assertTrue(
                any(f"{approach}: server 2 stores 150 MB" in line
                    and "(Eq. 6)" in line for line in failures),
                f"{approach} failure not reported:\n{done.stdout}")
        self.assertFalse(any("CDP:" in line for line in failures))


class TracedRunTest(unittest.TestCase):
    def test_traced_run_reports_every_per_layer_metric(self) -> None:
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, report = short_run(workload, seed=7, trace=1)
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), PER_LAYER)
                metrics = result["metrics"]
                shares = sum(metrics[f"{layer}.share"]["value"]
                             for layer in LAYERS)
                self.assertAlmostEqual(shares, 1.0, places=9)
                self.assertGreater(metrics["obs.rollup_phases"]["value"], 0)
                self.assertIn("trace.overhead_ms", metrics)
                self.assertTrue(report["rollup"])

    def test_trace_file_carries_parent_and_op_of_every_span(self) -> None:
        short_run("metro-pipeline", seed=7, trace=1)
        path = run.build_dir(ROOT) / "trace-metro-pipeline.json"
        events = json.loads(path.read_text())["traceEvents"]
        names = {event["name"] for event in events}
        for name in ("bench.op", "model.build", "model.write", "model.read",
                     "core.solve", "core.evaluate", "core.validate",
                     "des.run"):
            self.assertIn(name, names)
        by_id = {}
        for event in events:
            fields = dict(part.split("=")
                          for part in event["args"]["detail"].split())
            by_id[int(fields["id"])] = (event, int(fields["parent"]))
        for event, parent in by_id.values():
            if event["name"].startswith("bench."):
                self.assertEqual(parent, -1)
                continue
            outer = by_id[parent][0]
            self.assertLessEqual(outer["ts"], event["ts"])
            self.assertGreaterEqual(outer["ts"] + outer["dur"] + 1e-3,
                                    event["ts"] + event["dur"])


class IncompleteCheckoutTest(unittest.TestCase):
    def test_bare_benchmark_directory_fails_without_a_result(self) -> None:
        bare = run.build_dir(ROOT).parent / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-paper",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)

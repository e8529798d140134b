#!/usr/bin/env python3
"""The benchmark's own tests: smoke-size runs of every workload with all
checks on, plus negative cases proving the failure counters are live.

    python3 perfbench/test_perfbench.py        (from the repository root)
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def smoke(self, workload, trace=0, inject="none", seed=5):
        return run.run_binary(self.binary, workload, seed, 0, trace, smoke=True, inject=inject)

    def test_benchmark_json_matches_the_runner(self):
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         list(run.PER_LAYER))

    def test_every_workload_passes_its_checks_untraced_and_traced(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    doc = self.smoke(workload, trace)
                    self.assertTrue(doc["correct"], doc["check_failures"])
                    self.assertGreater(doc["ops"], 0)
                    line = run.result_line(doc, trace)
                    self.assertTrue(line["correct"])
                    wanted = run.PER_LAYER if trace else run.END_TO_END
                    self.assertEqual(sorted(line["metrics"]), sorted(n for n, _ in wanted))
                    if not trace:
                        for name, metric in line["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_no_workload_fails_an_operation(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.smoke(workload)["ops_failed"], 0)

    def test_only_the_attack_loses_legitimate_transmits(self):
        # The smoke run's nine episodes lose nothing; the full run (about
        # a second for its three repetitions) does.
        doc = run.run_binary(self.binary, "car_attack", 1, 0, 0)
        self.assertTrue(doc["correct"], doc["check_failures"])
        self.assertEqual(doc["ops_failed"], 0)
        self.assertGreater(doc["ops_lost"], 0)
        for workload in ("car_drive", "policy_car36", "policy_synth50k"):
            with self.subTest(workload=workload):
                self.assertEqual(self.smoke(workload)["ops_lost"], 0)

    def test_traced_split_adds_up(self):
        doc = self.smoke("car_drive", trace=1)
        values = run.medians(doc)
        # Each traced repetition's parts sum to its total (checked in the
        # binary); with one traced repetition the medians do too.
        self.assertEqual(len(doc["samples"]["trace.frame_ns"]["values"]), 1)
        parts = sum(values[name][0] for name in run.FRAME_SPLIT)
        self.assertAlmostEqual(parts, values["trace.frame_ns"][0],
                               delta=1e-6 * values["trace.frame_ns"][0])

    def test_same_seed_gives_the_same_digest(self):
        self.assertEqual(self.smoke("car_attack")["digest"], self.smoke("car_attack")["digest"])
        self.assertNotEqual(self.smoke("car_attack")["digest"],
                            self.smoke("car_attack", seed=6)["digest"])

    def test_wire_table_for_the_wrong_node_raises_ops_failed(self):
        doc = self.smoke("car_drive", inject="wrong-node-table")
        self.assertTrue(doc["correct"], doc["check_failures"])
        self.assertGreater(doc["ops_failed"], 0)
        self.assertGreater(run.medians(doc)["can.controller.rx_wire_denied"][0], 0)

    def test_bitflipped_delta_counts_as_failed_ota(self):
        for workload in ("policy_car36", "car_drive"):
            with self.subTest(workload=workload):
                doc = self.smoke(workload, inject="bitflip-delta")
                self.assertTrue(doc["correct"], doc["check_failures"])
                self.assertGreater(doc["ops_failed"], 0)

    def test_without_library_sources_exits_nonzero_without_a_result(self):
        bare = run.build_dir() / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        env = {"PATH": "/usr/bin:/bin", "CARGO_TARGET_DIR": str(bare / ".bench_build")}
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "car_drive", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

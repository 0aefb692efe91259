#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload on tiny inputs.

    python3 perfbench/test_smoke.py

Each workload runs untraced and traced with --smoke. The test checks that
the result document names exactly the metrics BENCHMARK.json declares,
with their units, that every check passed, and that every end-to-end
metric has a positive value.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run(workload, trace):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", "7",
                          "--seconds", "1", "--trace", str(trace), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n"
                             f"{out.stderr[-4000:]}")
    return out.stdout, json.loads(out.stdout.strip().split("\n")[-1])


class SmokeTest(unittest.TestCase):
    def check_workload(self, workload):
        spec = load_spec()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(workload=workload, trace=trace):
                stdout, result = run(workload, trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], stdout)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                declared = {m["name"]: m["unit"] for m in spec[section]}
                emitted = {name: v["unit"] for name, v in result["metrics"].items()}
                self.assertEqual(emitted, declared)
                if trace == 0:
                    for name, value in result["metrics"].items():
                        self.assertGreater(value["value"], 0, name)
                    # The workload's own names are printed with their units.
                    self.assertIn("setup_s", stdout)
                    self.assertIn("failed_frac", stdout)

    def test_scan_weeks(self):
        self.check_workload("scan_weeks")

    def test_history_batch(self):
        self.check_workload("history_batch")

    def test_svc_mixed(self):
        self.check_workload("svc_mixed")

    def test_spec_lists_every_workload(self):
        names = [w["name"] for w in load_spec()["workloads"]]
        self.assertEqual(names, ["scan_weeks", "history_batch", "svc_mixed"])


if __name__ == "__main__":
    unittest.main()

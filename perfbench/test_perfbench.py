#!/usr/bin/env python3
"""Tests of the benchmark itself (about four minutes on a 4-core host).

    python3 perfbench/test_perfbench.py

Run from the repository root; builds through run.py. Checks that:
  * the per-layer counts repeat exactly across two traced runs of one seed:
    tensor.allocs_per_forward, core.estimator.queries,
    core.evaluator.accuracy_calls, core.netcut.retrained (retrained
    networks) and serve.saturated_batches;
  * the spans account for the traced phase: bench.self_time_share (summed
    span self time over the traced phase's wall time) is at most 1 on every
    workload and at least 0.9 on the closed-loop ones, infer and explore,
    so work done between spans shows;
  * explore's retrained count (head trainings that ran) is positive and no
    more than its accuracy calls;
  * every run is correct and reports every per-layer metric of
    BENCHMARK.json;
  * an untraced run reports exactly the end-to-end metrics.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLOSED_LOOP = ("infer", "explore")
EXACT_COUNTS = ("tensor.allocs_per_forward", "core.estimator.queries",
                "core.evaluator.accuracy_calls", "core.netcut.retrained",
                "serve.saturated_batches")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace, seconds=2):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerLayer(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = spec()
        cls.traced = {w: run(w, 3, 1) for w in ("infer", "serve", "explore")}

    def test_counts_repeat_exactly(self):
        again = run("infer", 3, 1)
        for name in EXACT_COUNTS:
            with self.subTest(metric=name):
                self.assertEqual(self.traced["infer"]["metrics"][name]["value"],
                                 again["metrics"][name]["value"])

    def test_spans_account_for_traced_phase(self):
        for workload, result in self.traced.items():
            with self.subTest(workload=workload):
                share = result["metrics"]["bench.self_time_share"]["value"]
                self.assertGreater(share, 0.9 if workload in CLOSED_LOOP else 0.0)
                self.assertLessEqual(share, 1.0)

    def test_retrained_counts_trainings_not_calls(self):
        metrics = self.traced["explore"]["metrics"]
        retrained = metrics["core.netcut.retrained"]["value"]
        self.assertGreater(retrained, 0)
        self.assertLessEqual(retrained, metrics["core.evaluator.accuracy_calls"]["value"])

    def test_every_per_layer_metric_reported(self):
        names = {m["name"] for m in self.spec["per_layer"]}
        for workload, result in self.traced.items():
            with self.subTest(workload=workload):
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)


class EndToEnd(unittest.TestCase):
    def test_untraced_run_reports_end_to_end_metrics(self):
        result = run("infer", 5, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in spec()["end_to_end"]})
        for name, metric in result["metrics"].items():
            with self.subTest(metric=name):
                self.assertGreater(metric["value"], 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)

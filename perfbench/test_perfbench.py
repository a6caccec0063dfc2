#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of the checkout:

    python3 perfbench/test_perfbench.py

Each workload runs twice untraced and twice traced, with a short window.
The tests assert that every run checked its outputs (ok_frac == 1, no
failed sample or request), that each run prints exactly the metrics
BENCHMARK.json names, that the modeled (simulated) metrics and the
per-layer counts are identical across runs and seeds, and that the traced
run shows optimized-layout address generation taking a larger share of a
simulation on sim-optimized than on sim-original.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "3"

# Modeled quantities: exact functions of the simulated programs.
EXACT_E2E = ("exec_mcycles", "offchip_lat_cyc")
EXACT_LAYER = (
    "cache.l1_hit_frac", "cache.l2_hit_frac", "noc.offchip_hops",
    "noc.link_busy_mcycles", "noc.offchip_net_lat_cyc", "dram.mem_lat_cyc",
    "dram.row_hit_rate", "dram.bank_queue_occ", "dram.offchip_frac",
    "vm.pages_allocated", "vm.pages_redirected", "api.overloaded",
)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s seed %s trace %s exited %d:\n%s" % (
            workload, seed, trace, proc.returncode, proc.stderr[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, proc.stdout


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = load_benchmark()
        cls.e2e = [m["name"] for m in cls.bench["end_to_end"]]
        cls.layers = [m["name"] for m in cls.bench["per_layer"]]
        cls.runs = {}
        for w in cls.bench["workloads"]:
            name = w["name"]
            cls.runs[name] = {
                "e2e": [run(name, seed, 0) for seed in (1, 2)],
                "layers": [run(name, seed, 1) for seed in (1, 2)],
            }

    def check_run(self, result, text, names):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            # The human-readable report names every metric with its unit
            # and sample count.
            self.assertRegex(text, r"\n  %s +\S+ %s +n=\d+" % (
                name.replace(".", r"\."), metric["unit"].replace("/", r"\/")))
        self.assertRegex(text, r"host: nproc=\d+ cpu=")

    def test_every_metric_present_and_outputs_correct(self):
        for runs in self.runs.values():
            for result, text in runs["e2e"]:
                self.check_run(result, text, self.e2e)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
            for result, text in runs["layers"]:
                self.check_run(result, text, self.layers)

    def test_modeled_metrics_identical_across_runs(self):
        for name, runs in self.runs.items():
            (a, _), (b, _) = runs["e2e"]
            for m in EXACT_E2E:
                self.assertEqual(a["metrics"][m], b["metrics"][m],
                                 "%s %s" % (name, m))
            (a, _), (b, _) = runs["layers"]
            for m in EXACT_LAYER:
                self.assertEqual(a["metrics"][m], b["metrics"][m],
                                 "%s %s" % (name, m))

    def test_stream_share_larger_on_optimized_layouts(self):
        share = {name: self.runs[name]["layers"][0][0]["metrics"]
                 ["sim.stream_share"]["value"]
                 for name in ("sim-original", "sim-optimized")}
        self.assertGreater(share["sim-optimized"], share["sim-original"])

    def test_unknown_workload_is_refused(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()

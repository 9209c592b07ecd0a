#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

- Simulated metrics (per-app cycles/tx, the end-to-end simulated
  metrics and every simulated per-layer metric) are bit-identical
  across two runs, and between untraced and traced runs.
- On persist-heavy, per-app cycles/tx equal what the Figure 12 driver
  (bench/fig12_speedup_eager.cc) reports at the benchmark's transaction
  count and seed, so the benchmark measures the repository's default
  machine.
- Each run prints every metric BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402  (perfbench/run.py)

SEED = 5
WORKLOADS = ("persist-heavy", "read-mostly", "crash-sweep")
# Transactions per persist-heavy simulation (Spec::simTxns in driver.cc).
PERSIST_HEAVY_TXNS = 500


def bench(workload, trace):
    """Run the benchmark as it is gated, for the shortest time it
    allows; returns ({sim name: text}, result)."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.splitlines()
    sims = {}
    for line in lines:
        if line.strip().startswith("[sim]"):
            name, value = line.split("]", 1)[1].split("=")
            sims[name.strip()] = value.split()[0]
    return sims, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bdir = run.build(("perfbench_driver", "fig12_speedup_eager"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {(w, t): bench(w, t)
                    for w in WORKLOADS for t in (0, 1)}

    def test_simulated_metrics_repeat_and_ignore_tracing(self):
        for workload in WORKLOADS:
            untraced, _ = self.runs[(workload, 0)]
            again, _ = bench(workload, 0)
            traced, _ = self.runs[(workload, 1)]
            self.assertIn("sim_cycles_per_tx.dolos-partial", untraced)
            self.assertIn("dolos.wpq.coalesce_ratio", untraced)
            self.assertEqual(untraced, again)
            self.assertEqual(untraced, traced)

    def test_every_declared_metric_is_printed(self):
        for (workload, trace), (_, result) in self.runs.items():
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0)
            declared = self.spec["per_layer" if trace else "end_to_end"]
            self.assertEqual(sorted(result["metrics"]),
                             sorted(m["name"] for m in declared))

    def test_persist_heavy_matches_figure12_driver(self):
        out = os.path.join(self.bdir, "fig12_equivalence.json")
        subprocess.run(
            [os.path.join(self.bdir, "fig12_speedup_eager"), "--txns",
             str(PERSIST_HEAVY_TXNS), "--seed", str(SEED), "--json", out],
            stdout=subprocess.DEVNULL, check=True)
        with open(out) as f:
            fig12 = json.load(f)["results"]
        sims, _ = self.runs[("persist-heavy", 0)]
        labels = {"dolos-full": "full", "dolos-partial": "partial",
                  "dolos-post": "post"}
        for app in ("hashmap", "ctree", "btree", "rbtree", "nstore-ycsb",
                    "redis"):
            base = float(sims[f"cycles_per_tx.{app}.baseline"])
            self.assertEqual(base, fig12[f"{app}.baseline.cyclesPerTx"])
            for mode, label in labels.items():
                cycles = float(sims[f"cycles_per_tx.{app}.{mode}"])
                self.assertEqual(base / cycles,
                                 fig12[f"{app}.{label}.speedup"], app)


if __name__ == "__main__":
    unittest.main()

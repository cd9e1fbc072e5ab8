#!/usr/bin/env python3
"""Self-test of the benchmark: python3 perfbench/test_bench.py

Runs every workload at its reduced size (--size small) and checks that
  * the exact counters (the deterministic fingerprint) repeat bit for bit
    when a workload is run twice on the same seed, and change with it and
    with a seed override;
  * every run passes its own correctness checks;
  * the result line carries exactly the metrics BENCHMARK.json names;
  * a traced run attributes its wall time to spans and writes its trace;
  * BENCHMARK.json is what run.py's tables generate;
  * --compare fails when B misses a pair A resolves and counts pairs both
    sets miss.
"""

import contextlib
import io
import json
import math
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SECONDS = 0.5


class BenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.reports = {}

    def small(self, workload, seed=7, trace=False, seeds=()):
        key = (workload, seed, trace, tuple(seeds))
        if key not in self.reports:
            self.reports[key] = run.measure(
                self.binary, workload, seed, SECONDS, trace,
                time.monotonic() + run.RUN_DEADLINE_S, seeds, small=True)
        return self.reports[key]

    def test_manifest_matches_tables(self):
        committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(committed, run.manifest())

    def test_fingerprint_repeats(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self.small(workload)
                again = run.run_workload(self.binary, workload, 7, SECONDS,
                                         False, small=True)
                self.assertTrue(first["correct"], first["errors"])
                self.assertTrue(again["correct"], again["errors"])
                self.assertGreater(len(first["exact"]), 5)
                self.assertEqual(first["exact"], again["exact"])
                self.assertNotIn("ooc.peak_resident_bytes", first["exact"])

    def test_seed_changes_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.small(workload)["exact"],
                                    self.small(workload, seed=8)["exact"])
        override = self.small("g500_kron", seeds=[("kron-seed1", 12345)])
        self.assertEqual(override["config"]["kron_seed1"], 12345)
        self.assertNotEqual(override["exact"],
                            self.small("g500_kron")["exact"])

    def test_result_line_has_every_metric(self):
        roles = {m["name"] for m in run.manifest()["end_to_end"]}
        layers = {m["name"] for m in run.manifest()["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                report = self.small(workload)
                e2e = run.end_to_end(report)
                self.assertEqual(set(e2e), roles)
                for m in e2e.values():
                    self.assertTrue(math.isfinite(m["value"]) and m["value"] > 0)
                self.assertEqual(set(run.per_layer(report, report)), layers)
                named = {name for name, *_ in run.metric_rows(report)}
                self.assertLessEqual(named, set(report["metrics"]))

    def test_traced_run_attributes_time(self):
        report = self.small("g500_kron", trace=True)
        spans = {s["span"]: s for s in report["spans"]}
        for name in ("g500_kron", "setup", "graph.build", "core.sssp",
                     "core.validate"):
            self.assertIn(name, spans)
        top = spans["g500_kron"]
        self.assertAlmostEqual(sum(s["self_s"] for s in spans.values()),
                               top["total_s"], delta=1e-6 * len(spans))
        trace = run.build_dir() / "traces" / "g500_kron-seed7.json"
        events = json.loads(trace.read_text())["traceEvents"]
        self.assertTrue(any(e["name"] == "core.sssp" for e in events))


    def test_compare_gates_missed_pairs(self):
        def run_set(p99):
            metrics = {name: 1.0 for wl, name, *_ in run.METRICS
                       if wl == "serve_rw"}
            metrics["query_ms_p99"] = p99
            return [{"workload": "serve_rw", "config": {}, "exact": {},
                     "failed": 0, "metrics": metrics}]

        def compare(a, b):
            paths = []
            for i, runs in enumerate((a, b)):
                path = run.build_dir() / f"compare-{i}.json"
                path.write_text(json.dumps(runs))
                paths.append(str(path))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                status = run.main(["--compare"] + paths)
            return status, out.getvalue()

        status, out = compare(run_set(200.0), run_set(None))
        self.assertEqual(status, 1)
        self.assertIn("WORSE", out)
        status, out = compare(run_set(None), run_set(None))
        self.assertEqual(status, 0)
        self.assertIn("1 unresolved pair(s)", out)
        self.assertIn("serve_rw/query_ms_p99", out)
        status, out = compare(run_set(200.0), run_set(300.0))
        self.assertEqual(status, 1)
        status, out = compare(run_set(200.0), run_set(210.0))
        self.assertEqual(status, 0)


if __name__ == "__main__":
    unittest.main()

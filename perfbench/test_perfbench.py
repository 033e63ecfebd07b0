#!/usr/bin/env python3
"""Tests of the benchmark itself, on smoke-sized inputs.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

- Every workload prints each end-to-end metric (--trace 0) and each
  per-layer metric (--trace 1) of BENCHMARK.json by name with its unit.
- A tampered digest fails the output checks and the exit code.
- The traced run's spans nest: every self time is non-negative and at
  most its span's duration.
- The traced run shows each workload's heavy/light layer split.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
WORK = ROOT / ".bench_build" / "perfbench" / "work"


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, lines, result


class BenchmarkTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.traced[w] = run(w, 1)

    def assert_metrics(self, lines, result, specs):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            # The human-readable line: name, value, unit.
            printed = [l.split() for l in lines[:-1]]
            self.assertIn(m["unit"], [p[2] for p in printed
                                      if p and p[0] == m["name"]],
                          m["name"])

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = run(w, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assert_metrics(lines, result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = self.traced[w]
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assert_metrics(lines, result, SPEC["per_layer"])

    def test_heavy_light_split(self):
        m = {w: {k: v["value"] for k, v in r[2]["metrics"].items()}
             for w, r in self.traced.items()}
        self.assertGreater(m["sparse-2d"]["core.size_s"], 0)
        self.assertEqual(m["flood-3d"]["core.size_s"], 0)
        self.assertGreater(m["flood-3d"]["online.replacements_per_kjob"], 0)
        self.assertEqual(m["sparse-2d"]["online.replacements_per_kjob"], 0)
        self.assertGreater(m["flood-3d"]["stream.t2_speedup"], 0)
        self.assertGreater(m["flood-3d"]["stream.parallel_route_share"], 0)
        for w in WORKLOADS:
            only_replay = w == "replay-4d"
            for name in ("trace.open_s", "trace.read_ns_per_record",
                         "record.write_s", "record.bytes_per_job"):
                self.assertEqual(m[w][name] > 0, only_replay, (w, name))
            self.assertGreater(m[w]["tracing_overhead"], 0, w)

    def test_tampered_digest_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, result = run(w, 0, "--tamper-digest")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_span_self_times(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                events = json.loads(
                    (WORK / f"{w}.spans.json").read_text())["traceEvents"]
                self.assertTrue(events)
                covered = [0.0] * len(events)
                children = [0] * len(events)
                for e in events:
                    self.assertGreaterEqual(e["dur"], 0)
                    parent = e["args"]["parent"]
                    if parent >= 0:
                        self.assertLessEqual(events[parent]["ts"], e["ts"])
                        covered[parent] += e["dur"]
                        children[parent] += 1
                for e, c, n in zip(events, covered, children):
                    self_time = e["dur"] - c
                    # Durations print in microseconds rounded to 1 ns.
                    self.assertGreaterEqual(self_time, -1e-3 * (n + 1),
                                            e["name"])
                    self.assertLessEqual(self_time, e["dur"], e["name"])


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Unit tests for tools/trace_report.py (run as a ctest:
trace_report_selftest).

Feeds the tool a hand-written span trace with two pools whose workers
share the ``pool.worker-0`` name: a 1-worker pool that computes for
80 ms, then a 4-worker pool whose workers compute 20, 22, 25 and 28 ms.
The worker imbalance must be reported within each pool (8 ms), never
across them (80 - 20 = 60 ms).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import trace_report  # noqa: E402

MS = 1000.0  # trace timestamps are microseconds


def span(tid, start_ms, dur_ms, cat="exec", name="chunk"):
    return {"ph": "X", "pid": 1, "tid": tid, "ts": start_ms * MS,
            "dur": dur_ms * MS, "tdur": dur_ms * MS, "cat": cat,
            "name": name}


def thread(tid, name):
    return {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": name}}


def two_pool_trace():
    events = [{"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
               "args": {"name": "selftest"}},
              thread(0, "main"), span(0, 0, 300, "bench", "sweep")]
    # Pool 1: one worker, busy [0, 80) ms, idle until it exits at 100 ms.
    events += [thread(1, "pool.worker-0"), span(1, 0, 80),
               span(1, 80, 20, "pool", "idle")]
    # Pool 2: four workers over [150, 200) ms, same names as pool 1.
    for i, busy in enumerate((20, 22, 25, 28)):
        tid = 2 + i
        events += [thread(tid, "pool.worker-%d" % i),
                   span(tid, 150, busy),
                   span(tid, 150 + busy, 50 - busy, "pool", "idle")]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {}}


class TraceReportTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)
        self.path = os.path.join(self._dir.name, "trace.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(two_pool_trace(), fh)

    def test_workers_group_into_pools_by_window(self):
        doc, threads = trace_report.load_trace(self.path)
        pools = trace_report.worker_pools(
            trace_report.analyze(doc, threads)["threads"])
        self.assertEqual([len(p) for p in pools], [1, 4])
        self.assertEqual([trace_report.imbalance(p) for p in pools],
                         [0, 8000000])

    def test_report_prints_imbalance_within_a_pool(self):
        r = subprocess.run([sys.executable,
                            os.path.join(HERE, "trace_report.py"),
                            self.path],
                           capture_output=True, text=True, check=True)
        self.assertIn("worker imbalance:  0.0080 s  (max-min compute "
                      "within a pool; 2 pool(s))", r.stdout)
        self.assertIn("pool 1: 4 worker(s)", r.stdout)

    def test_check_passes(self):
        r = subprocess.run([sys.executable,
                            os.path.join(HERE, "trace_report.py"),
                            self.path, "--check", "--min-coverage", "0.9"],
                           capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Self-tests of the repository benchmark (tiny-scale passes).

Run from anywhere:
    python3 perfbench/test_perfbench.py

Each test drives perfbench/run.py exactly as the benchmark command does,
at --scale tiny so a pass takes milliseconds.  The first test builds the
binary (about a minute on 4 cores); later ones reuse the build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as runpy_module  # noqa: E402  pylint: disable=wrong-import-position


def bench(workload, trace, *extra, seed=1):
    """Runs run.py at tiny scale; returns (exit code, stdout lines)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--scale", "tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          check=False)
    return proc.returncode, proc.stdout.splitlines()


def printed_metrics(lines):
    """name -> (value, unit) from the `name value unit` lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("#", "{")):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def digest_of(lines):
    for line in lines:
        if line.startswith("# digest "):
            return line.split()[2]
    return None


class BenchmarkContract(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_spec_matches_run_py(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(runpy_module.WORKLOADS))
        for m in self.spec["end_to_end"]:
            self.assertEqual(runpy_module.END_TO_END[m["name"]], m["unit"])
        for m in self.spec["per_layer"]:
            self.assertEqual(runpy_module.PER_LAYER[m["name"]], m["unit"])

    def check_run(self, workload, trace):
        rc, lines = bench(workload, trace)
        self.assertEqual(rc, 0, "\n".join(lines))
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], "\n".join(lines))
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        printed = printed_metrics(lines)
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIn(m["name"], printed)
            self.assertEqual(printed[m["name"]][1], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        self.assertIn("fail_frac", printed)
        self.assertEqual(printed["fail_frac"][0], 0.0)
        return printed, lines

    def test_fig8_untraced(self):
        self.check_run("fig8_closed_form", 0)

    def test_fig9_untraced(self):
        self.check_run("fig9_failures", 0)

    def test_bringup_untraced(self):
        self.check_run("table_bringup", 0)

    def test_traced_runs_cover_their_layers(self):
        # Per-layer metrics each workload must move (non-zero when traced).
        moved = {
            "fig8_closed_form": ["dragon.efficiency_def_s",
                                 "routecomp.sweep_batch_s",
                                 "fibcomp.compress_ortc_s", "exec.body_s"],
            "fig9_failures": ["engine.restore_s", "engine.restores",
                              "engine.converge_s", "engine.updates"],
            "table_bringup": ["engine.bringup_s", "dataplane.compile_s",
                              "dataplane.lookup_ns",
                              "dataplane.table_bytes_pre"],
        }
        for workload, names in moved.items():
            with self.subTest(workload=workload):
                printed, lines = self.check_run(workload, 1)
                for name in names:
                    self.assertGreater(printed[name][0], 0, name)
                self.assertGreater(printed["trace.coverage"][0], 0.5)
                self.assertGreater(printed["trace.overhead"][0], 0)
                self.assertTrue(any("per-layer self time" in line
                                    for line in lines))

    def test_corrupted_digest_raises_fail_frac(self):
        with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["digests"]["tiny"]["fig9_failures"]["1"] = "0123456789abcdef"
        tmp = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-test-")
        try:
            path = os.path.join(tmp, "digests.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            rc, lines = bench("fig9_failures", 0, "--digests", path)
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(rc, 0)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(printed_metrics(lines)["fail_frac"][0], 0)

    def test_fig8_digest_independent_of_lanes(self):
        _, one = bench("fig8_closed_form", 0, "--lanes", "1")
        _, many = bench("fig8_closed_form", 0,
                        "--lanes", str(max(2, os.cpu_count() or 2)))
        self.assertIsNotNone(digest_of(one))
        self.assertEqual(digest_of(one), digest_of(many))

    def test_seed_changes_the_samples(self):
        _, a = bench("fig9_failures", 0, seed=1)
        _, b = bench("fig9_failures", 0, seed=2)
        self.assertNotEqual(digest_of(a), digest_of(b))

    def test_fails_without_the_library_sources(self):
        tmp = tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-test-")
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, "b"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "fig9_failures", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180, check=False)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload fig9_failures --seed 1 \\
        --seconds 20 --trace 0

Builds ``perfbench/`` (which compiles the library from ``src/``) into
``$CARGO_TARGET_DIR/perfbench`` or ``.bench_build/perfbench``, runs the
workload, checks its outcome digest against ``perfbench/digests.json`` and
prints every metric as ``name value unit`` lines.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}`` with
the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  A traced run also prints the per-layer self-time table
computed with tools/trace_report.py from the run's Chrome span trace.

Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("fig8_closed_form", "fig9_failures", "table_bringup")

# name -> unit.  End-to-end metrics come from the untraced passes.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_p99_ms": "ms",
    "updates_per_s": "1/s",
}

PER_LAYER = {
    "topology.generate_s": "s",
    "addressing.assign_s": "s",
    "prefix.forest_s": "s",
    "dragon.efficiency_def_s": "s",
    "dragon.efficiency_agg_s": "s",
    "dragon.elect_aggregates_s": "s",
    "routecomp.sweep_batch_s": "s",
    "routecomp.sweep_multi_s": "s",
    "routecomp.forwarding_s": "s",
    "routecomp.sweeps": "count",
    "fibcomp.compress_conservative_s": "s",
    "fibcomp.compress_ortc_s": "s",
    "fibcomp.entries_in": "count",
    "fibcomp.entries_out": "count",
    "exec.region_wall_s": "s",
    "exec.body_s": "s",
    "exec.utilisation": "ratio",
    "engine.construct_s": "s",
    "engine.originate_s": "s",
    "engine.snapshot_s": "s",
    "engine.restore_s": "s",
    "engine.restores": "count",
    "engine.fail_link_s": "s",
    "engine.forwarding_links_s": "s",
    "engine.destroy_s": "s",
    "engine.bringup_s": "s",
    "engine.converge_s": "s",
    "engine.updates": "count",
    "engine.mrai_flushes": "count",
    "engine.fib_installs": "count",
    "engine.us_per_update": "us",
    "engine.dragon.filter_transitions": "count",
    "engine.dragon.deaggregations": "count",
    "dataplane.snapshot_s": "s",
    "dataplane.compile_s": "s",
    "dataplane.lookup_ns": "ns",
    "dataplane.lookup_ns_pre": "ns",
    "dataplane.table_bytes_post": "bytes",
    "dataplane.table_bytes_pre": "bytes",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# Span categories that name a layer.  "bench" is the pass itself (its self
# time is unattributed glue); "pool" is the workers' own idle/dequeue
# bookkeeping, whose spans only partly fall inside the traced passes.
LAYERS = ("topology", "addressing", "prefix", "dragon", "routecomp",
          "fibcomp", "exec", "engine", "dataplane")

# Virtual-memory cap of the benchmark process: a runaway simulation fails
# the run instead of exhausting the machine.
MEMORY_LIMIT_BYTES = 8 << 30
RUN_TIMEOUT_S = 175


def fail(msg):
    print("run.py: %s" % msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            fail("cmake configure failed (exit %d)" % rc)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    rc = subprocess.call(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        fail("build failed (exit %d)" % rc)
    return os.path.join(build_dir, "perfbench")


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def expected_digest(path, scale, workload, seed):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        fail("cannot read digests %s: %s" % (path, err))
    return doc.get("digests", {}).get(scale, {}).get(workload, {}).get(
        str(seed))


def self_time_table(trace_path):
    """Per-layer self time from the span trace, via tools/trace_report.py.

    Returns (rows, coverage, problems): rows are (layer, main share of the
    traced passes, pool-lane share); coverage is the share of the traced
    passes' wall on the main thread that lies inside a layer span.
    """
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    import trace_report  # pylint: disable=import-outside-toplevel

    doc, threads = trace_report.load_trace(trace_path)
    problems = trace_report.check(
        doc, threads, trace_report.analyze(doc, threads), 0.0)
    # analyze() nested the spans in place; reload for a fresh forest.
    doc, threads = trace_report.load_trace(trace_path)
    dropped = int(doc.get("otherData", {}).get("dropped.total", "0"))
    if dropped:
        problems.append("%d span(s) lost to ring wrap" % dropped)
    names = trace_report.thread_names(doc)

    forests = {tid: trace_report.build_forest(spans)[0]
               for tid, spans in threads.items()}
    main_tid = next((t for t, n in names.items() if n == "main"), None)
    windows = [(r.start, r.end) for r in forests.get(main_tid, [])
               if r.cat == "bench" and r.name == "pass"]

    def walk(node, into):
        """Adds node's self segments, clipped to the pass windows."""
        def account(t0, t1):
            inside = sum(max(0, min(t1, b) - max(t0, a)) for a, b in windows)
            into[node.cat] = into.get(node.cat, 0) + inside
        cursor = node.start
        for child in node.children:
            if cursor < child.start:
                account(cursor, child.start)
            cursor = max(cursor, child.end)
            walk(child, into)
        if cursor < node.end:
            account(cursor, node.end)

    main_self, lane_self = {}, {}
    for tid, roots in forests.items():
        if tid == main_tid:
            into = main_self
        elif names.get(tid, "").startswith("pool.worker"):
            into = lane_self
        else:
            continue
        for root in roots:
            walk(root, into)
    passes_ns = sum(end - start for start, end in windows)
    lanes = sum(1 for n in names.values() if n.startswith("pool.worker"))
    if passes_ns == 0:
        return [], 0.0, problems + ["no traced pass in the span trace"]
    rows = []
    for layer in LAYERS:
        main_share = main_self.get(layer, 0) / passes_ns
        lane_share = (lane_self.get(layer, 0) / (passes_ns * lanes)
                      if lanes else 0.0)
        if main_share or lane_share:
            rows.append((layer, main_share, lane_share))
    coverage = sum(main_self.get(layer, 0) for layer in LAYERS) / passes_ns
    return rows, coverage, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-scale sizes for the self-tests")
    ap.add_argument("--lanes", type=int, default=0,
                    help="fig8 pool lanes (default: the hardware's)")
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                    help="expected outcome digests (default: %(default)s)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    binary = build(build_dir)

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-%s-s%d-t%d" % (args.workload, args.scale, args.seed, args.trace)
    out_json = os.path.join(out_dir, stem + ".json")
    trace_json = os.path.join(out_dir, stem + ".trace.json")
    for path in (out_json, trace_json):
        if os.path.exists(path):
            os.remove(path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--out", out_json]
    if args.lanes > 0:
        cmd += ["--lanes", str(args.lanes)]
    if args.trace:
        cmd += ["--span-trace", trace_json]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            preexec_fn=limit_memory)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(stdout)
    if proc.returncode != 0:
        fail("perfbench exited with %d" % proc.returncode)
    with open(out_json, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    meta = doc["meta"]
    e2e = doc["end_to_end"]["gauges"]
    layers = doc["per_layer"]["gauges"]
    attempted, failed = int(meta["attempted"]), int(meta["failed"])

    # Outcome digest of the pinned and held-out seeds.
    want = expected_digest(args.digests, args.scale, args.workload, args.seed)
    if want is not None:
        attempted += 1
        if want != meta["digest"]:
            failed += 1
            print("# DIGEST MISMATCH: got %s, expected %s"
                  % (meta["digest"], want))
    print("# digest %s (%s)" % (
        meta["digest"], "no recorded digest for this seed" if want is None
        else "matches" if want == meta["digest"] else "MISMATCH"))
    print("# calibration %.4f ns/step, hw_concurrency %d, lanes %d"
          % (meta["calib_ns"], meta["hw_concurrency"], meta["threads"]))
    rows = []
    if args.trace:
        rows, layers["trace.coverage"], problems = self_time_table(trace_json)
        attempted += 1
        if problems:
            failed += 1
            for p in problems[:10]:
                print("# TRACE PROBLEM: %s" % p)
    e2e["fail_frac"] = failed / max(attempted, 1)

    trials = int(doc["end_to_end"]["counters"].get("trials", 0))
    print("# end-to-end (untraced passes; %d trials)" % trials)
    # fail_frac is printed but not gated: it is 0 on a correct run and
    # travels as attempted/failed in the result line.
    for name, unit in list(END_TO_END.items()) + [("fail_frac", "ratio")]:
        note = ""
        if name.startswith("trial_p") and name != "trial_p50_ms":
            # A percentile is supported by ten samples beyond it.
            beyond = trials * (100 - int(name[len("trial_p"):-3])) / 100.0
            if beyond < 10:
                note = "  (not supported: %d trials)" % trials
        print("%s %.10g %s%s" % (name, e2e[name], unit, note))
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END.items()}

    if args.trace:
        print("# per-layer self time, share of traced run_s "
              "(main thread | pool lanes)")
        for layer, main_share, lane_share in rows:
            print("#   %-11s %6.1f%%  %6.1f%%"
                  % (layer, 100 * main_share, 100 * lane_share))
        print("# per-layer (traced passes, per pass)")
        for name, unit in PER_LAYER.items():
            print("%s %.10g %s" % (name, layers.get(name, 0.0), unit))
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

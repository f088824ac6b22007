#!/usr/bin/env python3
"""Convergence time series from a bench_fig9_convergence --trace-file.

The event trace is the convergence timeline.  Every trial of each twin
(BGP and DRAGON) is bracketed by trial_start/trial_end notes that carry
the dragon.engine.fib_entries and dragon.dragon.filtered_entries gauge
levels; folding the trial's events onto the start levels rebuilds the
series exactly:

    updates          = count of announce + withdraw
    fib_entries      = start + fib_install - fib_remove
    filtered_entries = start + filter - unfilter

Prints one JSONL row per trial per distinct time at which one of those
events fired (the state after the last of them) and exits 1 if any
trial's final state disagrees with its trial_end note.

Usage:
    trace_series.py TRACE
"""

import json
import sys

FIELDS = ("updates", "fib_entries", "filtered_entries")
DELTA = {
    "announce": ("updates", 1), "withdraw": ("updates", 1),
    "fib_install": ("fib_entries", 1), "fib_remove": ("fib_entries", -1),
    "filter": ("filtered_entries", 1), "unfilter": ("filtered_entries", -1),
}


def main(path):
    trials = mismatches = 0
    key = state = None  # the open trial: (mode, tree, trial), running fold
    row_t = None        # time of the pending row, printed once time moves on

    def emit():
        if row_t is not None:
            row = dict(zip(("mode", "tree", "trial"), key), t=row_t, **state)
            print(json.dumps(row, separators=(",", ":")))

    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            kind = rec.get("kind")
            if kind == "trial_start":
                key = (rec["mode"], rec["tree"], rec["trial"])
                state = {"updates": 0, "fib_entries": rec["fib_entries"],
                         "filtered_entries": rec["filtered_entries"]}
                row_t = None
            elif kind == "trial_end":
                emit()
                trials += 1
                want = {f: rec[f] for f in FIELDS}
                if key != (rec["mode"], rec["tree"], rec["trial"]) or \
                        state != want:
                    mismatches += 1
                    print("MISMATCH %s %s/%s: trace %s, trial_end %s"
                          % (rec["mode"], rec["tree"], rec["trial"], state,
                             want), file=sys.stderr)
                key = state = row_t = None
            elif state is not None and kind in DELTA:
                if row_t is not None and rec["t"] != row_t:
                    emit()
                row_t = rec["t"]
                field, step = DELTA[kind]
                state[field] += step
    print("# %d trials, %d mismatches" % (trials, mismatches), file=sys.stderr)
    return 1 if mismatches or key is not None else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))

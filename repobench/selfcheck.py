#!/usr/bin/env python3
"""Self-check of the benchmark's exact counts.

Runs every workload twice with the same seed, in both modes, and checks
that the counts which do not depend on timing are identical between the
two runs; then runs one further seed and checks it is correct with no
failed operation. Run from the root of a full checkout:

    python3 repobench/selfcheck.py

Exits 0 when every check holds.
"""

import json
import subprocess
import sys

WORKLOADS = ["classic", "fanout-churn", "wire"]

SEED = 7
# A seed that was not used while the benchmark was tuned.
HELD_OUT = 424242
SECONDS = 2

# Counts that must repeat exactly for a given seed.
EXACT_END_TO_END = ["comparisons_per_event", "alloc_words_per_event"]
EXACT_PER_LAYER = [
    "flat.comparisons_per_event",
    "flat.alloc_words_per_event",
    "engine.alloc_words_per_event",
    "engine.agg_alloc_words_per_event",
    "engine.matches_per_event",
    "broker.notifications_per_event",
    "broker.alloc_words_per_notification",
    "obs.alloc_words_per_event",
    "codec.bytes_per_event",
    "codec.alloc_words_per_event",
    "journal.bytes_per_event",
    "transport.write_syscalls_per_event",
    "transport.read_syscalls_per_event",
]

# The wire workload's end-to-end allocation counts every thread of the
# process, including client tickers that wake on the wall clock, so it
# is reported but not required to repeat.
NOT_EXACT = {("wire", "alloc_words_per_event")}


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "repobench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ok = True
    for w in WORKLOADS:
        for trace, names in ((0, EXACT_END_TO_END), (1, EXACT_PER_LAYER)):
            a = run(w, SEED, SECONDS, trace)
            b = run(w, SEED, SECONDS, trace)
            for r in (a, b):
                if not r["correct"] or r["failed"]:
                    print(f"FAIL {w} trace {trace}: correct={r['correct']} failed={r['failed']}")
                    ok = False
            for n in names:
                x, y = a["metrics"][n]["value"], b["metrics"][n]["value"]
                same = x == y
                if (w, n) in NOT_EXACT:
                    print(f"info {w} {n}: {x} vs {y}")
                    continue
                print(f"{'ok  ' if same else 'FAIL'} {w} {n}: {x} vs {y}")
                ok = ok and same
        r = run(w, HELD_OUT, SECONDS, 0)
        good = r["correct"] and r["failed"] == 0
        print(f"{'ok  ' if good else 'FAIL'} {w} held-out seed {HELD_OUT}: "
              f"correct={r['correct']} failed={r['failed']} of {r['attempted']}")
        ok = ok and good
    print("selfcheck:", "pass" if ok else "FAIL")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

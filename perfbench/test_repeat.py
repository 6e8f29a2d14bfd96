#!/usr/bin/env python3
"""Count repeatability of the traced run.

    python3 perfbench/test_repeat.py [--seed N] [--workload W ...]

Runs the traced benchmark twice per workload with the same seed and
asserts that every count below reads identically, so later changes can
cite them as exact counts.  Exits 1 on any difference or failed check.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
COUNTS = ("runtime.events", "runtime.messages", "profile.samples", "profile.mpi_calls",
          "profile.profdata_bytes", "ppg.bytes", "ppg.cells", "artifact.bytes",
          "detect.fits", "detect.hops", "timeline.events")


def traced(workload, seed):
    out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                          "--seconds", "1", "--trace", "1"],
                         stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("%s: %d of %d checks failed" % (workload, result["failed"], result["attempted"]))
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=("apps-sweep", "cg-weak-scale", "triage"))
    args = ap.parse_args()
    ok = True
    for w in args.workload or ("apps-sweep", "cg-weak-scale", "triage"):
        first, second = traced(w, args.seed), traced(w, args.seed)
        for k in COUNTS:
            same = first[k] == second[k]
            ok = ok and same
            print("%-14s %-24s %16s %16s %s" % (w, k, first[k], second[k], "ok" if same else "DIFFERS"))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

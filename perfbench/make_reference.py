"""Regenerate perfbench/reference.json: the key numbers of every workload's
reports, per seed, as computed by the checked-out program.

    python3 perfbench/make_reference.py --seeds 0-39 [--size full|tiny]

Entries for other seeds and sizes already in the file are kept.  Run it only
when a change alters report numbers on purpose, and say why in CHANGES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import run
from workloads import ABS_TOL, REL_TOL, WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = ap.parse_args()
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    try:
        with open(run.REFERENCE) as fh:
            entries = json.load(fh)["entries"]
    except FileNotFoundError:
        entries = {}
    os.makedirs(run.OUT, exist_ok=True)
    for seed in seeds:
        for name in args.workload or sorted(WORKLOADS):
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                invs = [run.invoke(tmp, str(i), argv, seed, traced=False)
                        for i, argv in enumerate(WORKLOADS[name][args.size])]
            bad = [inv["failure"] for inv in invs if inv["failure"]]
            if bad:
                print(f"{name} seed {seed}: {bad}", file=sys.stderr)
                return 1
            entries[f"{name}/{args.size}/{seed}"] = [inv["keys"] for inv in invs]
            print(f"{name} seed {seed}: {sum(inv['wall_s'] for inv in invs):.2f} s", flush=True)
            with open(run.REFERENCE + ".tmp", "w") as fh:
                json.dump({"rel_tol": REL_TOL, "abs_tol": ABS_TOL,
                           "entries": dict(sorted(entries.items()))}, fh, indent=1)
                fh.write("\n")
            os.replace(run.REFERENCE + ".tmp", run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())

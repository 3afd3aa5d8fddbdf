"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/sweep.py --seeds 1-10 [--workload NAME ...]
                               [--trace-seed N] [--out FILE]

For every workload and seed it runs `run.py --trace 0` for the
`run_seconds` of BENCHMARK.json, then reports each end-to-end metric's
median, quartiles (`statistics.quantiles(values, n=4)`) and spread: the
distance between the quartiles as a share of the median, which must stay
within a third of the metric's bound (setup_s excepted).  With --trace-seed,
each workload also runs `run.py --trace 1` twice on that seed; every program
count (units count, ratio, bytes) must repeat exactly.  --out writes the
whole result set, with machine information, as JSON.  Exit status 1 when a
run is incorrect, a spread is too wide or a count does not repeat.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run
from layer_trace import EXACT_UNITS, PER_LAYER

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    out = json.loads(lines[-1])
    out["run_s"] = time.monotonic() - t0
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    first, _, last = args.seeds.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = bench(w, seed, spec["run_seconds"], 0)
            runs[w].append(res)
            ok &= res["correct"]
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                + f" correct={res['correct']} run={res['run_s']:.1f}s", flush=True)
    summary = {}
    for w in workloads:
        summary[w] = {"end_to_end": {}, "run_s": [r["run_s"] for r in runs[w]]}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = name == "setup_s" or spread <= metric["bound"] / 3
            ok &= steady
            summary[w]["end_to_end"][name] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": values,
            }
            print(f"{w:20s} {name:12s} median {med:10.4f} {metric['unit']:3s} "
                  f"spread {spread:.4f} (bound {metric['bound']}) {'ok' if steady else 'WIDE'}")
    if args.trace_seed is not None:
        for w in workloads:
            a, b = (bench(w, args.trace_seed, spec["run_seconds"], 1) for _ in range(2))
            differ = [n for n, unit, _ in PER_LAYER if unit in EXACT_UNITS
                      and a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            ok &= a["correct"] and b["correct"] and not differ
            summary[w]["per_layer"] = {n: m["value"] for n, m in a["metrics"].items()}
            summary[w]["counts_repeat"] = not differ
            print(f"{w}: traced twice on seed {args.trace_seed}: counts "
                  + ("repeat exactly" if not differ else "DIFFER: " + ", ".join(differ))
                  + f"; trace.overhead_s {a['metrics']['trace.overhead_s']['value']:.3f} / "
                  f"{b['metrics']['trace.overhead_s']['value']:.3f}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "machine": run.machine_info(), "run_seconds": spec["run_seconds"],
                "seeds": seeds, "trace_seed": args.trace_seed, "workloads": summary,
            }, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

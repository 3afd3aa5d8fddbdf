"""Benchmark harness for the symgap CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses the package under `src/` as it
is, so there is nothing to build.  One client runs the workload's CLI
invocations back to back (a closed loop), each in a fresh `python3`
process with `--workers 1`; one pass over the workload's list is a round,
and rounds repeat until the next one would end after S seconds (at least
one round always runs).

End-to-end metrics (`--trace 0`):
  wall_s       median over rounds of the summed time from the CLI call to
               the written report, set-up excluded
  setup_s      median time from process start until `symgap.cli` is
               imported and its parser built, over the set-up probes run
               before the rounds and every invocation
  peak_rss_mb  largest maximum RSS of any invocation process

`--trace 1` runs one untraced round, then traced rounds, and reports the
per-layer metrics of `layer_trace.PER_LAYER` instead.

Every report is checked: the invocation must exit 0 with `passed: true`,
and its key numbers (`workloads.key_numbers`) must match `reference.json`
when a reference is stored for the seed, or the first round's otherwise.
The last line of stdout is one JSON object: correct, attempted, failed
(invocations) and metrics.  Each run's full result set, with machine
information, goes to `perfbench/out/<workload>-<size>-seed<N>-trace<T>/`.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)
from layer_trace import EXACT_UNITS, PER_LAYER, round_metrics  # noqa: E402
from workloads import WORKLOADS, key_numbers, mismatches  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 3  # measured set-ups before the rounds, after one warm-up
CHILD_TIMEOUT_S = 150
# Keep BLAS single-threaded so each invocation is one busy core.
CHILD_ENV = dict(
    os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
)


def machine_info() -> dict:
    """Core count, CPU model and caches (read-only from /proc and /sys), versions."""
    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key.replace(" ", "_")] = value.strip()
    except OSError:
        pass
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            fields = [open(os.path.join(index, f)).read().strip() for f in ("level", "type", "size")]
        except OSError:
            continue
        caches.append("L{} {} {}".format(*fields))
    info["cpu0_caches"] = caches
    return info


def spawn(mode: str, result_path: str, cli_args=()) -> dict:
    """Run child.py once; returns its result with `setup_s`, or {'error': ...}."""
    cmd = [sys.executable, CHILD, SRC, result_path, mode, *cli_args]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-400:]}"}
    with open(result_path) as fh:
        res = json.load(fh)
    res["setup_s"] = res["t_ready"] - t_spawn
    return res


def invoke(run_dir: str, tag: str, argv: list[str], seed: int, traced: bool) -> dict:
    """One CLI invocation; adds `failure` (None when the report is sound)."""
    report_path = os.path.join(run_dir, f"report-{tag}.json")
    cli_args = [*argv, "--seed", str(seed), "--workers", "1", "--out", report_path]
    res = spawn("trace" if traced else "run", os.path.join(run_dir, f"child-{tag}.json"), cli_args)
    res["argv"] = argv
    failure = res.get("error")
    if failure is None and res["exit_code"] != 0:
        failure = f"exit code {res['exit_code']}"
    report = None
    if failure is None:
        with open(report_path) as fh:
            report = json.load(fh)
        if report.get("passed") is not True:
            failure = "report has passed != true"
    if report is not None:
        res["keys"] = key_numbers(report)
        res["queries_total"] = sum(
            r["queries_total"] for r in report.get("mechanisms", []) if "queries_total" in r
        )
    res["failure"] = failure
    return res


def tail_percentile(samples: list[float]):
    """(p, value) for the highest whole percentile with ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def load_reference(workload: str, size: str, seed: int):
    with open(REFERENCE) as fh:
        return json.load(fh)["entries"].get(f"{workload}/{size}/{seed}")


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    argvs = WORKLOADS[workload][size]
    cli_seed = seed % 2**32
    run_dir = os.path.join(OUT, f"{workload}-{size}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    problems: list[str] = []

    spawn("probe", os.path.join(run_dir, "probe-warmup.json"))  # fills the bytecode cache
    setups = []
    for i in range(SETUP_PROBES):
        probe = spawn("probe", os.path.join(run_dir, f"probe-{i}.json"))
        if "error" in probe:
            problems.append(f"set-up probe {i}: {probe['error']}")
        else:
            setups.append(probe["setup_s"])

    reference = load_reference(workload, size, cli_seed)
    rounds = []
    window_start = time.monotonic()
    while True:
        traced = trace and len(rounds) > 0
        r_start = time.monotonic()
        invs = [
            invoke(run_dir, f"r{len(rounds)}-i{i}", argv, cli_seed, traced)
            for i, argv in enumerate(argvs)
        ]
        first = rounds[0]["invocations"] if rounds else None
        for i, inv in enumerate(invs):
            want = reference[i] if reference else first and first[i].get("keys")
            if inv["failure"] is None and want:
                bad = mismatches(inv["keys"], want)
                if bad:
                    inv["failure"] = "key numbers differ from the reference: " + ", ".join(bad)
            if "setup_s" in inv:
                setups.append(inv["setup_s"])
        ok = all(inv["failure"] is None for inv in invs)
        rounds.append({
            "traced": traced,
            "wall_s": sum(inv.get("wall_s", 0.0) for inv in invs) if ok else None,
            "invocations": invs,
        })
        status = "ok" if ok else "FAILED: " + "; ".join(
            f"{' '.join(inv['argv'])}: {inv['failure']}" for inv in invs if inv["failure"])
        print(f"round {len(rounds)}{' (traced)' if traced else ''}: "
              + ", ".join(f"{inv['argv'][0]} {inv.get('wall_s', float('nan')):.3f} s" for inv in invs)
              + f" -- {status}", flush=True)
        elapsed = time.monotonic() - window_start
        if trace and len(rounds) < 2:
            continue
        if elapsed + (time.monotonic() - r_start) > seconds:
            break

    all_invs = [inv for r in rounds for inv in r["invocations"]]
    failed = sum(inv["failure"] is not None for inv in all_invs)
    plain = [r for r in rounds if not r["traced"]]
    walls = [r["wall_s"] for r in plain if r["wall_s"] is not None]
    result = {
        "workload": workload, "size": size, "seed": seed, "seconds": seconds,
        "trace": int(trace), "machine": machine_info(), "reference_stored": reference is not None,
        "attempted": len(all_invs), "failed": failed, "problems": problems, "rounds": rounds,
        "setup_samples": setups,
    }
    if trace:
        metrics = traced_metrics(rounds, walls, problems)
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else None,
            "setup_s": statistics.median(setups) if setups else None,
            "peak_rss_mb": max((inv["peak_rss_mb"] for r in plain for inv in r["invocations"]
                                if "peak_rss_mb" in inv), default=None),
        }
        units = dict(END_TO_END)
    missing = [k for k, v in metrics.items() if v is None]
    if missing:
        problems.append("no measurement for " + ", ".join(missing))
        metrics = {k: (0.0 if v is None else v) for k, v in metrics.items()}
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result["correct"] = failed == 0 and not problems
    result["tail"] = tail_percentile(walls)
    result["wall_samples"] = walls
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def traced_metrics(rounds: list[dict], walls: list[float], problems: list[str]) -> dict:
    """Per-layer metrics: counts must agree between traced rounds, times are medians."""
    untraced = statistics.median(walls) if walls else 0.0
    per_round = []
    for r in rounds:
        if r["traced"] and r["wall_s"] is not None:
            invs = r["invocations"]
            per_round.append(round_metrics(
                [inv["trace"] for inv in invs],
                sum(inv.get("queries_total", 0) for inv in invs),
                r["wall_s"] - untraced,
            ))
    if not per_round:
        return {name: None for name, _, _ in PER_LAYER}
    out = {}
    for name, unit, _ in PER_LAYER:
        values = [m[name] for m in per_round]
        if unit in EXACT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced rounds: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (about a second per invocation)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symgap", "cli.py")):
        print(f"error: no symgap package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    print(f"symgap benchmark: workload={args.workload} size={size} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}", flush=True)
    res = run(args.workload, args.seed, args.seconds, bool(args.trace), size)
    print("machine: " + json.dumps(res["machine"], sort_keys=True))
    for name, m in res["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        walls = res["wall_samples"]
        tail = res["tail"]
        print(f"  wall_s: median of {len(walls)} round(s); "
              + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
                 "no percentile has ten samples beyond it (needs 11 rounds)"))
        print(f"  setup_s: median of {len(res['setup_samples'])} set-ups")
    print(f"  failed_share {res['failed'] / max(1, res['attempted']):.4g} "
          f"({res['failed']} of {res['attempted']} invocations)")
    print("  reference: " + ("stored values for this seed" if res["reference_stored"] else
                             "none stored for this seed; rounds checked against the first"))
    for p in res["problems"]:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"], "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads and the key numbers each report is checked on.

A workload is a list of `symgap` CLI invocations run back to back; one pass
over the list is a round.  Every invocation gets `--seed <seed> --workers 1`
appended by the harness, so the inputs are a function of the seed alone.

`full` is the measured size.  `tiny` is the same command list at sizes that
finish in about a second; only the smoke test uses it.
"""
from __future__ import annotations

import math

WORKLOADS = {
    # Exhaustive VCG at m=8 re-tabulates two 256-entry tables per call and a
    # deterministic mechanism is re-run 1000 times per declaration: the
    # workload that deterministic replication and a batched tabulate move.
    "auction_audit": {
        "why": "exhaustive VCG at m=8 with 1000 re-runs per declaration: "
        "tabulate and scalar eval dominate; no extension work",
        "full": [["vcg-audit", "--n", "2", "--m", "8", "--deviations", "20", "--trials", "1000"]],
        "tiny": [["vcg-audit", "--n", "2", "--m", "4", "--deviations", "4", "--trials", "20"]],
    },
    # m=400 masks are wider than 64 bits; greedy and Monte Carlo queries go
    # through the OracleView/classified wrappers.  No tabulate; gap955's 24
    # exact blockwise points are the only binomial work.
    "hidden_partition": {
        "why": "greedy and Monte Carlo queries on m=400 two-block oracles "
        "(masks over 64 bits); no tabulate, little binomial work",
        "full": [
            ["symgap", "--ell", "1", "--partitions", "100"],
            ["gap955", "--blocks", "200", "--alpha", "0.5", "--mc-samples", "200000"],
        ],
        "tiny": [
            ["symgap", "--ell", "1", "--partitions", "10"],
            ["gap955", "--blocks", "200", "--alpha", "0.5", "--mc-samples", "2000"],
        ],
    },
    # Zero oracle queries: all time is exact_F_blockwise and scipy binom.pmf.
    # Two block sizes split per-call overhead (8) from per-entry work (200).
    "blockwise_extension": {
        "why": "exact blockwise extension and scipy binom.pmf with zero oracle "
        "queries; blocks 200 and 8 split per-entry from per-call cost",
        "full": [
            ["concavity", "--family", "two_block_product", "--alpha", "1.0",
             "--trials", "10000", "--blocks", "200"],
            ["concavity", "--family", "two_block_product", "--alpha", "1.0",
             "--trials", "10000", "--blocks", "8"],
        ],
        "tiny": [
            ["concavity", "--family", "two_block_product", "--alpha", "1.0",
             "--trials", "100", "--blocks", "20"],
            ["concavity", "--family", "two_block_product", "--alpha", "1.0",
             "--trials", "100", "--blocks", "8"],
        ],
    },
    # Many short queries on m <= 16: a batched path that pays numpy overhead
    # per call must show here as a slowdown.
    "small_instances": {
        "why": "many short queries on ground sets with m <= 16: small greedy "
        "batches, exhaustive optimum, exhaustive structure checks",
        "full": [
            ["greedy-ratio", "--instances", "2000"],
            ["product-compose", "--pairs", "500", "--m", "10"],
        ],
        "tiny": [
            ["greedy-ratio", "--instances", "20"],
            ["product-compose", "--pairs", "5", "--m", "6"],
        ],
    },
}

REL_TOL = 1e-9
# Gaps and violations can be exactly 0 on one path and ~1e-16 on another.
ABS_TOL = 1e-12


def key_numbers(report: dict) -> dict:
    """The numbers of a report that the reference check compares.

    ints are compared exactly, floats (and lists of floats) within REL_TOL
    relative or ABS_TOL absolute.
    """
    exp = report["experiment"]
    if exp == "vcg_audit":
        return {
            f"{side}.{field}": [e[field] for e in report[side]["entries"]]
            for side in ("vcg", "pay_your_bid")
            for field in ("gap", "truth_score", "deviation_score")
        }
    if exp == "symmetry_gap":
        keys = {}
        for r in report["mechanisms"]:
            name = r["mechanism"]
            keys[f"{name}.value_mean"] = r["value_mean"]
            keys[f"{name}.queries_total"] = r["queries_total"]
            keys[f"{name}.unbalanced_queries"] = r["unbalanced_queries"]
        return keys
    if exp == "gap955":
        return {
            "monte_carlo.value": report["monte_carlo"]["value"],
            "monte_carlo.stderr": report["monte_carlo"]["stderr"],
            "value_midpoint": report["value_midpoint"],
        }
    if exp == "concavity":
        return {
            "pairs_checked": report["detail"]["pairs_checked"],
            "violations": len(report["violations"]),
        }
    if exp == "greedy_ratio":
        return {"worst_ratio": report["worst_ratio"], "failures": len(report["failures"])}
    if exp == "product_compose":
        return {"failures": len(report["failures"])}
    raise ValueError(f"no key numbers defined for experiment {exp!r}")


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return a == b


def mismatches(got: dict, want: dict) -> list[str]:
    """Names of the key numbers where `got` differs from `want`."""
    names = sorted(set(got) | set(want))
    return [k for k in names if k not in got or k not in want or not _close(got[k], want[k])]

"""Acceptance gate: the thirteen desk-scale claims, one test and one
printed verdict line each, at the stated tolerances and runtime budgets.

Verdict lines bypass pytest's capture so every run shows the full
scoreboard; assertions still enforce each gate.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy import optimize

from symgap.setfn import (
    check_monotone_submodular,
    make_additive,
    make_budget_additive,
    make_coverage,
    pack,
    scale_oracle,
    tabulate,
)
from symgap.instances import PhiAlpha, make_symgap_valuation, two_block_product_instance
from symgap.extensions import concavity_grid_scan, concavity_probe, f_exp_blockwise, random_pair_source
from symgap.mechanisms import poisson_midr_cpp
from symgap.audit import (
    DELTA_PAPER,
    AmplificationState,
    amplification_step,
    hypothesis_satisfying_distribution,
    run_amplification,
)
from symgap.cli import ExperimentConfig, main, run


def verdict(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {n}: {detail}"


ANCHOR = 4.0 * math.exp(-0.5) - 4.0 * math.exp(-1.0)  # ~0.9550


def test_criterion_01_block_gap_at_two_hundred(capsys):
    t0 = time.monotonic()
    val = two_block_product_instance(200, 0.5)
    one_a = f_exp_blockwise(val, 1.0, 0.0)
    one_b = f_exp_blockwise(val, 0.0, 1.0)
    mid = f_exp_blockwise(val, 0.5, 0.5)
    elapsed = time.monotonic() - t0
    # "= 1" is the asymptotic claim; at 200 blocks the exact value sits
    # 1.1e-6 under it, so gate on the stated 0.01 plus the measured headroom
    ok = (
        abs(one_a - 1.0) <= 0.01
        and abs(one_a - 1.0) <= 1e-5
        and abs(one_b - 1.0) <= 1e-5
        and abs(mid - ANCHOR) <= 0.01
        and elapsed < 5.0
    )
    verdict(
        capsys, 1, ok,
        f"endpoint={one_a:.9f} midpoint={mid:.6f} anchor={ANCHOR:.6f} ({elapsed:.2f}s)",
    )


def test_criterion_02_concavity_and_its_failures(capsys):
    val1 = two_block_product_instance(8, 1.0)
    g = lambda pts: f_exp_blockwise(val1, pts[:, 0], pts[:, 1])
    rng = np.random.default_rng(2)
    pairs = random_pair_source(2, 10_000, rng)
    clean_alpha_one = not concavity_probe(g, pairs)

    val2 = two_block_product_instance(200, 0.5)
    slack = 0.5 * (
        f_exp_blockwise(val2, 1.0, 0.0) + f_exp_blockwise(val2, 0.0, 1.0)
    ) - f_exp_blockwise(val2, 0.5, 0.5)
    half_gap = slack >= 0.04

    demo = scale_oracle(make_budget_additive([1.0, 1.0, 1.0, 2.0], 2.0), 0.5)
    found, _, _ = concavity_grid_scan(demo, step=0.1, stop_after=1)
    ok = clean_alpha_one and half_gap and len(found) >= 1
    verdict(
        capsys, 2, ok,
        f"alpha=1 clean on {len(pairs)} probes; alpha=1/2 slack={slack:.4f}; "
        f"budget-additive violations={len(found)}",
    )


def test_criterion_03_product_composition(capsys):
    t0 = time.monotonic()
    code, rep = run(ExperimentConfig("product-compose", {"pairs": 100, "m": 10}))
    elapsed = time.monotonic() - t0
    ok = code == 0 and not rep["failures"] and elapsed < 60.0
    verdict(
        capsys, 3, ok,
        f"100 pairs at m=10, failures={len(rep['failures'])}, "
        f"identity err={rep['identity_worst_abs_err']:.2e} ({elapsed:.1f}s)",
    )


def test_criterion_04_perturbed_two_block_family(capsys):
    worst_floor = math.inf
    combos = 0
    all_ok = True
    for size in range(2, 7):
        m = 2 * size
        A, B = pack(range(size), m), pack(range(size, m), m)
        a_mask, b_mask = (1 << size) - 1, ((1 << size) - 1) << size
        for alpha in (0.3, 0.5, 1.0):
            phi = PhiAlpha(alpha)
            for beta in (0.05, 0.1, 0.25):
                oracle = make_symgap_valuation(m, A, B, phi, beta).oracle()
                rep = check_monotone_submodular(oracle, mode="exhaustive")
                all_ok &= rep.passed
                table = tabulate(oracle)
                for mask in range(1 << m):
                    xa = (mask & a_mask).bit_count() / size
                    xb = (mask & b_mask).bit_count() / size
                    floor = float(phi.value(max(max(xa, xb) - beta, 0.0)))
                    worst_floor = min(worst_floor, table[mask] - floor)
                combos += 1
    ok = all_ok and worst_floor >= -1e-12 and combos == 45
    verdict(
        capsys, 4, ok,
        f"{combos} (size, alpha, beta) combos exhaustively submodular; "
        f"worst floor margin={worst_floor:.2e}",
    )


def test_criterion_05_bisection_tail_bound(capsys):
    entries = []
    ok = True
    for m_prime, beta in ((100, 0.2), (400, 0.1), (400, 0.2)):
        code, rep = run(ExperimentConfig("chernoff", {"m": m_prime, "beta": beta}))
        ok &= code == 0 and rep["passed"]
        entries.append(f"({m_prime},{beta}): {rep['exact_tail']:.3e}<={rep['bound']:.3e}")
    verdict(capsys, 5, ok, "; ".join(entries))


def test_criterion_06_hidden_partition_experiment(capsys):
    t0 = time.monotonic()
    code, rep = run(ExperimentConfig("symgap", {"ell": 1, "partitions": 100}))
    elapsed = time.monotonic() - t0
    ok = code == 0 and rep["passed"] and len(rep["mechanisms"]) == 3 and elapsed < 300.0
    parts = []
    for s in rep["mechanisms"]:
        ok &= s["ceiling_ok"] and s["unbalanced_ok"] and s["planted_ok"]
        parts.append(
            f"{s['mechanism']}: value={s['value_mean']:.3f} "
            f"unbal={s['unbalanced_rate']:.4f}<=bound"
        )
    verdict(capsys, 6, ok, f"m=400 k=200 beta=0.1; {'; '.join(parts)} ({elapsed:.0f}s)")


def test_criterion_07_amplification_machinery(capsys):
    code, rep = run(ExperimentConfig("inequalities", {"grid": 100_000}))
    grids_ok = code == 0 and rep["passed"]

    rng = np.random.default_rng(7)
    certs = 0
    certs_ok = True
    for delta in (DELTA_PAPER, 0.05):
        for _ in range(10_000):
            state = AmplificationState(
                0, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.01, 1.0)), delta
            )
            xs, ws = hypothesis_satisfying_distribution(state, rng)
            _, cert = amplification_step(state, xs, ws)
            certs_ok &= cert.hypothesis_satisfied and bool(cert.holds)
            certs += 1

    telescope_ok = True
    for delta in (DELTA_PAPER, 0.05):
        for ell in (1, 2, 4, 6):
            r = run_amplification(ell, delta, float(rng.uniform(0.3, 0.9)), seed=ell)
            target = (0.5 * (1.0 + delta * delta)) ** ell
            telescope_ok &= (
                r["telescoping_ok"]
                and r["feasibility_floor_ok"]
                and r["potential"] >= r["telescoped_target"] * (1.0 - 1e-9)
            )
    ok = grids_ok and certs_ok and telescope_ok
    verdict(
        capsys, 7, ok,
        f"1e5-point grids clean; {certs} step certificates hold at both deltas; "
        f"telescoping to 1e-9 relative",
    )


def test_criterion_08_union_counting(capsys):
    entries = []
    ok = True
    for n, m in ((2, 4), (4, 16), (16, 160)):
        code, rep = run(ExperimentConfig("basic-count", {"n": n, "m": m}, seed=n))
        ok &= code == 0 and rep["passed"] and rep["closed_form_exact"]
        ok &= rep["expected"] > m / 2.0
        entries.append(f"({n},{m}): {rep['exact_mean']:.3f}=={rep['expected']:.3f}")
    verdict(capsys, 8, ok, "; ".join(entries))


def test_criterion_09_greedy_guarantee(capsys):
    code, rep = run(
        ExperimentConfig("greedy-ratio", {"instances": 50, "m_max": 16, "k_max": 4})
    )
    floor = 1.0 - 1.0 / math.e
    ok = code == 0 and rep["passed"] and rep["worst_ratio"] >= floor - 1e-9
    verdict(
        capsys, 9, ok,
        f"50 instances; worst greedy/OPT={rep['worst_ratio']:.4f} >= {floor:.4f}",
    )


def test_criterion_10_poisson_solver_closed_forms(capsys):
    # additive: independent reference by constrained concave maximization
    w = np.array([0.92, 0.55, 0.31, 0.18, 0.07, 0.44, 0.63, 0.26])
    k = 3
    res = optimize.minimize(
        lambda x: -float(w @ (1.0 - np.exp(-x))),
        np.full(w.size, k / w.size),
        jac=lambda x: -(w * np.exp(-x)),
        bounds=[(0.0, 1.0)] * w.size,
        constraints=[{"type": "ineq", "fun": lambda x: k - x.sum(),
                      "jac": lambda x: -np.ones_like(x)}],
        method="SLSQP",
        options={"ftol": 1e-14, "maxiter": 500},
    )
    reference = -float(res.fun)
    solved = poisson_midr_cpp(make_additive([float(x) for x in w]), k)
    additive_ok = abs(solved.value - reference) <= 1e-6

    cover_weight, covering = 0.8, 3
    oracle = make_coverage([cover_weight], [[0]] * covering + [[]] * 5)
    res_cov = poisson_midr_cpp(oracle, 2)
    closed = cover_weight * (1.0 - math.exp(-min(2, covering)))
    coverage_ok = abs(res_cov.value - closed) <= 1e-6

    rounding_ok = True
    rng = np.random.default_rng(10)
    for orc, sol in ((make_additive([float(x) for x in w]), solved), (oracle, res_cov)):
        samples = np.array(
            [orc.eval(sol.distribution.sample(rng)) for _ in range(10_000)]
        )
        se = float(samples.std(ddof=1)) / 100.0
        rounding_ok &= abs(float(samples.mean()) - sol.value) <= 3.0 * se + 1e-9
    ok = additive_ok and coverage_ok and rounding_ok
    verdict(
        capsys, 10, ok,
        f"additive |{solved.value:.8f}-{reference:.8f}|<=1e-6; "
        f"coverage |{res_cov.value:.8f}-{closed:.8f}|<=1e-6; rounding within 3 sigma",
    )


def test_criterion_11_truthfulness_audit(capsys):
    code, rep = run(
        ExperimentConfig("vcg-audit", {"n": 2, "m": 8, "deviations": 20, "trials": 1_000})
    )
    ok = code == 0 and rep["vcg_clean"] and rep["pay_your_bid_flagged"]
    gap = rep["pay_your_bid"]["entries"][0]["gap"]
    verdict(
        capsys, 11, ok,
        f"VCG clean over 20 deviations x 1000 trials; pay-your-bid flagged (gap={gap:.1f})",
    )


def test_criterion_12_quadrant_separation(capsys):
    code, rep = run(ExperimentConfig("menu-separation", {"configs": 200}))
    ok = (
        code == 0
        and rep["passed"]
        and not rep["grid_oracle_mismatches"]
        and not rep["internal_inconsistencies"]
    )
    verdict(
        capsys, 12, ok,
        "200 configs agree with the exact mixture oracle; certificates verify to 1e-9",
    )


def test_criterion_13_byte_identical_reruns(capsys, tmp_path):
    commands = [
        ["gap955", "--blocks", "200", "--alpha", "0.5"],
        ["concavity", "--family", "budget_additive_demo"],
        ["submod-check", "--family", "symgap", "--m", "10"],
        ["product-compose", "--pairs", "10", "--m", "8"],
        ["psi-tilde-check", "--grid", "100"],
        ["chernoff", "--m", "400", "--beta", "0.2"],
        ["bisect-uniformity", "--m", "32", "--trials", "5000"],
        ["greedy-ratio", "--instances", "10"],
        ["poisson-midr", "--family", "additive", "--trials", "2000"],
        ["vcg-audit", "--deviations", "6", "--trials", "200"],
        ["symgap", "--ell", "1", "--partitions", "10"],
        ["menu-separation", "--configs", "50"],
        ["amplify", "--delta", "paper", "--chains", "100"],
        ["inequalities", "--grid", "20000"],
        ["basic-count", "--n", "4", "--m", "16"],
        ["scaling-probe", "--trials", "20"],
    ]
    mismatched = []
    for idx, args in enumerate(commands):
        a = tmp_path / f"{idx}_a.json"
        b = tmp_path / f"{idx}_b.json"
        main(args + ["--seed", "3", "--out", str(a)])
        main(args + ["--seed", "3", "--out", str(b)])
        if a.read_bytes() != b.read_bytes():
            mismatched.append(args[0])
        json.loads(a.read_text())  # reports must stay valid JSON
    ok = not mismatched
    verdict(
        capsys, 13, ok,
        f"{len(commands)} commands rerun with fixed seeds; mismatches={mismatched}",
    )

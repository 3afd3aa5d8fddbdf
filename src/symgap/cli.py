"""Batch experiment runner.

Every audit and construction is exposed as a subcommand with seeded,
serialized output.  Identical (config, seed) produce byte-identical reports:
no timestamps, sorted JSON keys, all randomness derived from --seed.

Exit codes: 0 all assertions pass, 2 an assertion failed, 1 usage error.
"""
import argparse
import csv
import io
import json
import math
import sys
import typing
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from . import audit
from .setfn import (
    OracleContractError,
    ValuationOracle,
    bits_from_words,
    check_monotone_submodular,
    compose_product,
    make_additive,
    make_budget_additive,
    make_coverage,
    make_polar,
    pack,
    random_subset,
    scale_oracle,
)
from .instances import (
    AuctionInstance,
    CPPInstance,
    CPPLevelParams,
    PhiAlpha,
    TwoBlockValuation,
    make_symgap_valuation,
    psi,
    psi_tilde,
    random_cpp_instance,
    sample_bisection_sequence,
    two_block_product_instance,
)
from .extensions import (
    concavity_grid_scan,
    concavity_probe,
    f_exp,
    f_exp_blockwise,
    mean_stderr,
    random_pair_source,
)
from .mechanisms import (
    BalancedPrefixCPP,
    GreedyCPP,
    NonConcaveClassError,
    PayYourBidGreedyAuction,
    RandomSubsetCPP,
    VCGExhaustiveAuction,
    exhaustive_opt_cpp,
    greedy_cpp,
    poisson_midr_cpp,
)

USAGE_EXIT = 1
FAIL_EXIT = 2


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    out: str | None = None
    format: str = "json"


class _Parser(argparse.ArgumentParser):
    # spec'd exit discipline: usage problems are exit 1, not argparse's 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _rng(seed, *salt) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed),) + tuple(salt)))


def _need_items(m: int, least: int, purpose: str) -> None:
    # checked before any draw, so that valid sizes keep their streams
    if m < least:
        raise OracleContractError(f"--m must be >= {least} {purpose}, got {m}")


def _half(m: int) -> int:
    """The block size of a two-block family on m items."""
    if m < 2 or m % 2:
        raise OracleContractError(f"--m must be even and >= 2 for a two-block family, got {m}")
    return m // 2


def _reject_unread(cfg: ExperimentConfig, context: str, reads: dict[str, bool]) -> None:
    """A usage error naming each given parameter whose entry in `reads` is
    False, so that no report echoes a flag its run never read."""
    unread = [f"--{name.replace('_', '-')}" for name, read in reads.items()
              if not read and name in cfg.params]
    if unread:
        raise OracleContractError(f"{context}; drop {' '.join(unread)}")


def _additive_oracle(rng: np.random.Generator, m: int) -> ValuationOracle:
    return make_additive([float(w) for w in rng.uniform(0.0, 1.0, m)])


def _half_budget_oracle(rng: np.random.Generator, m: int) -> ValuationOracle:
    w = rng.uniform(0.0, 1.0, m)
    return make_budget_additive([float(x) for x in w], float(0.5 * w.sum()))


def _coverage_oracle(rng: np.random.Generator, m: int) -> ValuationOracle:
    _need_items(m, 2, "to draw a coverage oracle")
    universe = 2 * m
    weights = [float(w) for w in rng.uniform(0.0, 1.0 / universe, universe)]
    cover = [
        [int(u) for u in rng.choice(universe, size=3, replace=False)] for _ in range(m)
    ]
    return make_coverage(weights, cover)


# the drawn families that submod-check and poisson-midr share
_DRAWN = {"additive": _additive_oracle, "budget_additive": _half_budget_oracle,
          "coverage": _coverage_oracle}


def _random_base_oracle(rng: np.random.Generator, m: int) -> ValuationOracle:
    """One random monotone submodular oracle from the concrete families."""
    _need_items(m, 2, "to draw random oracles")
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return _additive_oracle(rng, m)
    if kind == 1:
        w = rng.uniform(0.0, 1.0, m)
        budget = float(rng.uniform(0.3, 0.9) * w.sum())
        return make_budget_additive([float(x) for x in w], budget)
    if kind == 2:
        universe = int(rng.integers(m, 2 * m + 1))
        weights = [float(w) for w in rng.uniform(0.0, 1.0, universe)]
        cover = [
            # at most 3 elements, and at most the universe when m = 2
            [int(u) for u in rng.choice(universe, size=rng.integers(1, min(universe, 3) + 1),
                                        replace=False)]
            for _ in range(m)
        ]
        return make_coverage(weights, cover)
    A = random_subset(m, int(rng.integers(1, m)), rng)
    return make_polar(m, A, float(rng.uniform(0.05, 0.95)))


def _unit_range(f: ValuationOracle) -> ValuationOracle:
    """f, rescaled by 1/f(full) when f(full) > 1, so that a product
    composition accepts it (f is monotone, so f(full) is its maximum)."""
    top = f.eval(pack(range(f.m), f.m))
    return scale_oracle(f, 1.0 / top) if top > 1.0 else f


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


# Each experiment declares its parameters once, as keyword-only arguments with
# annotated types and defaults; build_parser derives the subcommand's flags
# from them and run converts given values to the declared types.


def _exp_gap955(
    cfg: ExperimentConfig, *, blocks: int = 200, alpha: Literal[0.5, 1.0] = 0.5,
    mc_samples: int = 0,
) -> dict:
    if mc_samples < 0:  # 0 skips the Monte Carlo check
        raise OracleContractError(f"mc_samples must be >= 0, got {mc_samples}")
    val = two_block_product_instance(blocks, alpha)
    one_a, one_b, mid = f_exp_blockwise(val, [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]).tolist()
    deficit = min(one_a, one_b) - mid
    anchor = 4.0 * math.exp(-0.5) - 4.0 * math.exp(-1.0)
    ts = [i / 20.0 for i in range(21)]
    values = f_exp_blockwise(val, [1.0 - t for t in ts], ts).tolist()
    curve = [{"t": t, "value": v} for t, v in zip(ts, values)]
    assertions = {}
    if alpha == 0.5:
        assertions["endpoints_near_one"] = min(one_a, one_b) >= 0.99
        assertions["midpoint_matches_anchor"] = abs(mid - anchor) <= 0.01
        assertions["constant_factor_loss"] = deficit >= 0.04
    else:
        assertions["segment_concave"] = mid >= 0.5 * (one_a + one_b) - 1e-9
    mc = None
    if mc_samples > 0:
        est = f_exp(val.oracle(), np.full(val.m, 0.5), mc_samples, cfg.seed)
        assertions["monte_carlo_agrees"] = (
            abs(est.value - mid) <= 4.0 * est.stderr + 1e-9
        )
        mc = est.to_dict()
    return {
        "experiment": "gap955",
        "params": {"blocks": blocks, "alpha": alpha},
        "seed": cfg.seed,
        "value_block_1": one_a,
        "value_block_2": one_b,
        "value_midpoint": mid,
        "deficit": deficit,
        "anchor": anchor,
        "segment": curve,
        "monte_carlo": mc,
        "assertions": assertions,
        "passed": all(assertions.values()),
    }


def _exp_concavity(
    cfg: ExperimentConfig, *, family: str = "budget_additive_demo", blocks: int = 200,
    alpha: float = 1.0, m: int = 6, step: float | None = None, trials: int = 10_000,
) -> dict:
    rng = _rng(cfg.seed, 1)
    blockwise = family == "two_block_product"
    if not blockwise and family not in ("budget_additive_demo", "coverage", "additive"):
        raise OracleContractError(f"unknown concavity family {family!r}")
    _reject_unread(
        cfg, f"concavity --family {family}" + (f" --alpha {alpha}" if blockwise else "")
        + " reads none of these",
        {"blocks": blockwise, "alpha": blockwise, "m": family in ("coverage", "additive"),
         "step": not blockwise, "trials": blockwise and alpha >= 1.0},
    )
    detail: dict = {}
    violations: list = []
    if blockwise:
        val = two_block_product_instance(blocks, alpha)
        if alpha >= 1.0:
            expect_violation = False
            g = lambda pts: f_exp_blockwise(val, pts[:, 0], pts[:, 1])
            pairs = random_pair_source(2, trials, rng)
            violations = concavity_probe(g, pairs)
            detail["pairs_checked"] = len(pairs)
            detail["mode"] = "exact_blockwise_random_pairs"
        else:
            expect_violation = True
            one, other, mid = f_exp_blockwise(val, [1.0, 0.0, 0.5], [0.0, 1.0, 0.5]).tolist()
            slack = mid - 0.5 * (one + other)
            if slack < -1e-9:
                violations = [
                    {"x": [1.0, 0.0], "y": [0.0, 1.0], "g_mid": mid, "slack": slack}
                ]
            detail["mode"] = "block_endpoints_vs_midpoint"
            detail["slack"] = slack
    else:
        if family == "budget_additive_demo":
            # halved, so that its values lie in [0, 1]
            oracle = scale_oracle(make_budget_additive([1.0, 1.0, 1.0, 2.0], 2.0), 0.5)
            expect_violation, default_step = True, 0.1
        else:
            if family == "additive":
                _need_items(m, 1, "to draw an additive oracle")
                oracle = make_additive([float(w) for w in rng.uniform(0.0, 1.0 / m, m)])
            else:
                oracle = _coverage_oracle(rng, m)
            expect_violation, default_step = False, 0.5
        violations, scanned, total = concavity_grid_scan(
            oracle, step=default_step if step is None else step, stop_after=5
        )
        detail.update({"pairs_scanned": scanned, "total_pairs": total, "mode": "grid_scan"})
    found_any = len(violations) > 0
    recs = [v if isinstance(v, dict) else v.to_dict() for v in violations]
    return {
        "experiment": "concavity",
        # the given parameters as converted by run, less "trials", reported below
        "params": {"family": family, **{k: v for k, v in cfg.params.items() if k != "trials"}},
        "seed": cfg.seed,
        "trials": trials,
        "violations": recs,
        "expected_violation": expect_violation,
        "detail": detail,
        "passed": found_any == expect_violation,
    }


def _exp_submod_check(
    cfg: ExperimentConfig, *, family: str = "two_block_product", m: int = 10,
    mode: Literal["exhaustive", "sampled"] = "exhaustive", alpha: float = 0.5,
    beta: float = 0.25, omega: float = 0.125, trials: int = 100_000,
) -> dict:
    rng = _rng(cfg.seed, 2)
    if family == "symgap":
        _half(m)
        A, B = sample_bisection_sequence(m, rng)
        oracle = make_symgap_valuation(m, A, B, PhiAlpha(alpha), beta).oracle()
    elif family == "two_block_product":
        oracle = two_block_product_instance(_half(m), alpha).oracle()
    elif family == "product":
        f1 = _unit_range(_random_base_oracle(rng, m))
        oracle = compose_product(f1, _unit_range(_random_base_oracle(rng, m)))
    elif family == "random":
        oracle = _random_base_oracle(rng, m)
    elif family == "polar":
        oracle = make_polar(m, pack(range(m // 2), m), omega)
    elif family in _DRAWN:
        oracle = _DRAWN[family](rng, m)
    else:
        raise OracleContractError(f"unknown family {family!r}")
    _reject_unread(
        cfg, f"submod-check --family {family} --mode {mode} reads none of these",
        {"alpha": family in ("symgap", "two_block_product"), "beta": family == "symgap",
         "omega": family == "polar", "trials": mode == "sampled"},
    )
    if mode == "exhaustive" and m < 1:  # an empty ground set has no pair (S, i) to check
        raise OracleContractError(f"--m must be >= 1 for an exhaustive check, got {m}")
    report = check_monotone_submodular(oracle, mode=mode, trials=trials, rng=rng)
    return {
        "experiment": "submod_check",
        "params": {"family": family, "m": m, "mode": mode},
        "seed": cfg.seed,
        "checked": report.checked,
        "monotone_violations": report.monotone_violation_count,
        "submodular_violations": report.submodular_violation_count,
        "passed": report.passed,
    }


def _exp_product_compose(cfg: ExperimentConfig, *, pairs: int = 100, m: int = 10) -> dict:
    rng = _rng(cfg.seed, 3)
    failures = []
    identity_worst = 0.0
    for idx in range(pairs):
        f1 = _unit_range(_random_base_oracle(rng, m))
        f2 = _unit_range(_random_base_oracle(rng, m))
        comp = compose_product(f1, f2)
        rep = check_monotone_submodular(comp, mode="exhaustive")
        if not rep.passed:
            failures.append(idx)
        words = rng.integers(0, 1 << m, (20, 1)).astype(np.uint64)
        direct = 1.0 - (1.0 - f1.eval_many(words)) * (1.0 - f2.eval_many(words))
        identity_worst = max(identity_worst, float(np.abs(comp.eval_many(words) - direct).max()))
        q1 = f1.query_count
        comp.eval(pack((), m))
        if f1.query_count != q1 + 1:
            failures.append(idx)
    return {
        "experiment": "product_compose",
        "params": {"pairs": pairs, "m": m},
        "seed": cfg.seed,
        "failures": failures,
        "identity_worst_abs_err": identity_worst,
        "passed": not failures and identity_worst <= 1e-12,
    }


def _exp_psi_tilde_check(
    cfg: ExperimentConfig, *, alpha: float = 0.5, beta: float = 0.1, grid: int = 200,
    block: int = 4,
) -> dict:
    if grid < 2:
        raise OracleContractError(f"grid must be >= 2, got {grid}")
    phi = PhiAlpha(alpha)
    t = np.linspace(0.0, 1.0, grid)
    X, Y = np.meshgrid(t, t, indexing="ij")
    Z = psi_tilde(phi, beta, X, Y)
    checks = {}
    dx = np.diff(Z, axis=0)
    dy = np.diff(Z, axis=1)
    checks["monotone"] = bool((dx >= -1e-12).all() and (dy >= -1e-12).all())
    checks["marginals_concave"] = bool(
        (np.diff(dx, axis=0) <= 1e-9).all() and (np.diff(dy, axis=1) <= 1e-9).all()
    )
    checks["symmetric"] = bool(np.abs(Z - Z.T).max() <= 1e-12)
    band = np.abs(X - Y) <= beta
    S = X + Y
    # inside the band the value depends on x + y only
    flat = {}
    worst_band = 0.0
    for xv, yv, zv, sv in zip(X[band], Y[band], Z[band], S[band]):
        key = round(float(sv), 12)
        if key in flat:
            worst_band = max(worst_band, abs(zv - flat[key]))
        else:
            flat[key] = zv
    checks["band_depends_on_sum_only"] = worst_band <= 1e-12
    # continuity across the case boundaries
    xs = np.linspace(beta, 1.0, 101)
    up = psi_tilde(phi, beta, xs, xs - beta + 1e-9)
    dn = psi_tilde(phi, beta, xs, xs - beta - 1e-9)
    checks["continuous_at_band_edge"] = bool(np.abs(up - dn).max() <= 1e-6)
    lower = phi.value(np.clip(t - beta, 0.0, 1.0))
    vals = psi_tilde(phi, beta, t, np.zeros_like(t))
    checks["pointwise_floor"] = bool((vals >= lower - 1e-12).all())
    # beta = 0 is the unperturbed surface, so build the valuation directly
    # rather than through the adversarial family, which needs beta > 0
    msub = check_monotone_submodular(
        TwoBlockValuation(
            2 * block,
            pack(range(block), 2 * block),
            pack(range(block, 2 * block), 2 * block),
            phi,
            beta,
        ).oracle(),
        mode="exhaustive",
    )
    checks["induced_set_function_submodular"] = msub.passed
    return {
        "experiment": "psi_tilde_check",
        "params": {"alpha": alpha, "beta": beta, "grid": grid, "block": block},
        "seed": cfg.seed,
        "checks": checks,
        "band_worst_spread": worst_band,
        "passed": all(checks.values()),
    }


def _exp_chernoff(cfg: ExperimentConfig, *, m: int = 400, beta: float = 0.1) -> dict:
    return {**audit.chernoff_bisection_test(m, beta), "seed": cfg.seed}


def _exp_bisect_uniformity(cfg: ExperimentConfig, *, m: int = 32, trials: int = 20_000) -> dict:
    if m < 4 or m % 2:
        raise OracleContractError(f"--m must be even and >= 4 for a pair inside one half, got {m}")
    rng = _rng(cfg.seed, 4)
    A, B = np.stack([sample_bisection_sequence(m, rng) for _ in range(trials)], axis=1)
    same_size = (np.bitwise_count(A).sum(-1) == np.bitwise_count(B).sum(-1)).all()
    structure_ok = bool(same_size and not (A & B).any() and ((A | B) == pack(range(m), m)).all())

    def z_max(counts, p):  # the largest z-score of trial counts against probability p
        return float((np.abs(counts / trials - p) / math.sqrt(p * (1 - p) / trials)).max())

    # each item lies in A with probability 1/2, each pair with (m/2)(m/2 - 1) / (m(m - 1))
    M = bits_from_words(A, m).astype(float)
    half = m // 2
    z_max_membership = z_max(M.sum(0), 0.5)
    z_max_pairs = z_max((M.T @ M)[np.triu_indices(m, 1)], half * (half - 1) / (m * (m - 1)))
    return {
        "experiment": "bisect_uniformity",
        "params": {"m": m, "trials": trials},
        "seed": cfg.seed,
        "structure_ok": structure_ok,
        "z_max_membership": z_max_membership,
        "z_max_pairwise": z_max_pairs,
        "passed": structure_ok and z_max_membership <= 6.0 and z_max_pairs <= 6.0,
    }


def _exp_greedy_ratio(
    cfg: ExperimentConfig, *, instances: int = 50, m_max: int = 16, k_max: int = 4
) -> dict:
    rng = _rng(cfg.seed, 5)
    floor = 1.0 - 1.0 / math.e
    worst = math.inf
    failures = []
    for idx in range(instances):
        inst = random_cpp_instance(rng, m_max=m_max, k_max=k_max)
        g = greedy_cpp(inst.oracles, inst.k)
        o = exhaustive_opt_cpp(inst.oracles, inst.k)
        if o.value <= 1e-15:
            continue
        if g.value < floor * o.value - 1e-9:
            failures.append({"instance": idx, "greedy": g.value, "opt": o.value})
        worst = min(worst, g.value / o.value)
    return {
        "experiment": "greedy_ratio",
        "params": {"instances": instances, "m_max": m_max, "k_max": k_max},
        "seed": cfg.seed,
        "worst_ratio": worst if worst < math.inf else 1.0,
        "floor": floor,
        "failures": failures,
        "passed": not failures,
    }


def _waterfill_additive(w: np.ndarray, k: float) -> float:
    """max sum w_j (1 - e^{-x_j}) s.t. 0 <= x <= 1, sum x <= k.

    KKT: active coordinates equalize the marginal w_j e^{-x_j}; bisect on
    that common marginal until the budget is met.
    """
    if k >= len(w):
        return float(w.sum() * (1.0 - math.exp(-1.0)))
    lo, hi = 0.0, float(w.max())
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        x = np.clip(np.log(np.maximum(w, 1e-300) / lam), 0.0, 1.0)
        if x.sum() > k:
            lo = lam
        else:
            hi = lam
    x = np.clip(np.log(np.maximum(w, 1e-300) / hi), 0.0, 1.0)
    return float(w @ (1.0 - np.exp(-x)))


def _exp_poisson_midr(
    cfg: ExperimentConfig, *, family: str = "additive", m: int = 8, k: int = 2,
    force: bool = False, trials: int = 10_000,
) -> dict:
    if trials < 2:
        raise OracleContractError(f"trials must be >= 2 for a standard error, got {trials}")
    rng = _rng(cfg.seed, 6)
    expected = None
    if family == "additive":
        w = np.sort(rng.uniform(0.0, 1.0, m))[::-1]
        oracle = make_additive([float(x) for x in w])
        expected = _waterfill_additive(w, k)
    elif family == "two_block_product":
        blocks = _half(m)
        oracle = two_block_product_instance(blocks, 1.0).oracle()
        expected = 1.0 - math.exp(-k / blocks)
    elif family in _DRAWN:
        oracle = _DRAWN[family](rng, m)
    else:
        raise OracleContractError(f"unknown family {family!r}")
    refused = False
    try:
        res = poisson_midr_cpp(oracle, k, force=force)
    except NonConcaveClassError:
        if force:
            raise
        refused = True
        res = None
    if refused:
        return {
            "experiment": "poisson_midr",
            "params": {"family": family, "m": m, "k": k, "force": force},
            "seed": cfg.seed,
            "refused_non_concave_class": True,
            "passed": True,
        }
    x = np.array(res.x_star)
    feasible = bool((x >= -1e-12).all() and (x <= 1.0 + 1e-12).all() and x.sum() <= k + 1e-9)
    draws = np.stack([res.distribution.sample(rng) for _ in range(trials)])
    samples = oracle.eval_many(draws)
    mean, se = mean_stderr(samples)
    rounding_ok = abs(mean - res.value) <= 3.0 * se + 1e-9
    closed_form_ok = True if expected is None else abs(res.value - expected) <= 1e-6
    return {
        "experiment": "poisson_midr",
        "params": {"family": family, "m": m, "k": k, "force": force},
        "seed": cfg.seed,
        "x_star": list(res.x_star),
        "value": res.value,
        "expected": expected,
        "heuristic": res.heuristic,
        "feasible": feasible,
        "rounding_mean": mean,
        "rounding_stderr": se,
        "rounding_consistent": bool(rounding_ok),
        "closed_form_ok": bool(closed_form_ok),
        "passed": bool(feasible and rounding_ok and closed_form_ok and not res.heuristic),
    }


def _exp_vcg_audit(
    cfg: ExperimentConfig, *, n: int = 2, m: int = 8, deviations: int = 20, trials: int = 1_000
) -> dict:
    if m < 1:
        raise OracleContractError(f"m must be positive, got {m}")
    rng = _rng(cfg.seed, 7)
    truths = tuple(_additive_oracle(rng, m) for _ in range(n))
    inst = AuctionInstance(truths)
    devs = []
    for d in range(deviations):
        player = d % n
        kind = d % 4
        if kind == 0:
            devs.append((player, scale_oracle(truths[player], float(rng.uniform(0.2, 0.8)))))
        elif kind == 1:
            devs.append((player, scale_oracle(truths[player], float(rng.uniform(1.2, 3.0)))))
        elif kind == 2:
            devs.append((player, _additive_oracle(rng, m)))
        else:
            devs.append((player, _half_budget_oracle(rng, m)))
    vcg = audit.audit_truthfulness(VCGExhaustiveAuction(), inst, devs, trials, cfg.seed)
    # the deliberately manipulable baseline must be flagged
    big = make_additive([10.0, 10.0])
    small = make_additive([0.5, 0.5])
    shaded = make_additive([1.0, 1.0])
    pyb = audit.audit_truthfulness(
        PayYourBidGreedyAuction(),
        AuctionInstance((big, small)),
        [(0, shaded)],
        trials,
        cfg.seed,
    )
    return {
        "experiment": "vcg_audit",
        "params": {"n": n, "m": m, "deviations": deviations, "trials": trials},
        "seed": cfg.seed,
        "vcg": vcg.to_dict(),
        "pay_your_bid": pyb.to_dict(),
        "vcg_clean": vcg.passed,
        "pay_your_bid_flagged": not pyb.passed,
        "passed": vcg.passed and not pyb.passed,
    }


def _exp_symgap(
    cfg: ExperimentConfig, *, ell: int | None = None, m: int = 400, k: int = 200, n: int = 2,
    beta: float = 0.1, partitions: int = 100, phi_alpha: float = 1.0,
) -> dict:
    if ell is not None:
        sizes = dict.fromkeys(("m", "k", "n", "beta"), False)
        _reject_unread(cfg, "--ell sets --m, --k, --n and --beta", sizes)
        params = CPPLevelParams(ell)
        m, k, n, beta = params.m, params.k, params.n, params.beta
    if n < 1:
        raise OracleContractError(f"n must be positive, got {n}")
    phi = PhiAlpha(phi_alpha)
    mechs = [RandomSubsetCPP(), GreedyCPP(), BalancedPrefixCPP()]
    return audit.symmetry_gap_experiment(
        m=m, k=k, n=n, beta=beta, phi=phi,
        mechanisms=mechs, partitions=partitions, seed=cfg.seed,
    )


def _exp_menu_separation(
    cfg: ExperimentConfig, *, configs: int = 200, menu_trials: int = 3
) -> dict:
    rng = _rng(cfg.seed, 8)
    mismatches = []
    inconsistencies = []
    for c in range(configs):
        n_pts = int(rng.integers(1, 7))
        pts = [
            (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0)))
            for _ in range(n_pts)
        ]
        q0 = float(rng.uniform(-0.5, 0.5))
        p0 = float(rng.uniform(-0.5, 0.5))
        res = audit.separate_quadrant(pts, q0, p0)
        if (res.branch == "witness") != audit.quadrant_feasible_exact(pts, q0, p0):
            mismatches.append(c)
            continue
        if res.branch == "witness":
            q, p = res.point
            if q < q0 - 1e-9 or p > p0 + 1e-9:
                inconsistencies.append(c)
            if abs(sum(res.weights) - 1.0) > 1e-12 or any(w < -1e-12 for w in res.weights):
                inconsistencies.append(c)
        else:
            ref = res.lam_q * q0 - res.lam_p * p0
            if res.lam_q < 0 or res.lam_p < 0 or res.margin <= 0:
                inconsistencies.append(c)
            if any(res.lam_q * q - res.lam_p * p >= ref for q, p in pts):
                inconsistencies.append(c)

    # mechanism demo: the menu a VCG auction offers against a fixed opponent
    m = 8
    A, B = pack([0, 1], m), pack([2, 3], m)
    phi = PhiAlpha(0.5)
    beta = 0.25
    family = [make_symgap_valuation(m, A, B, phi, beta, lam) for lam in (0.25, 0.5, 1.0)]
    fixed = make_additive([0.0] * 4 + [0.3] * 4)
    inst = AuctionInstance((family[-1].oracle(), fixed))
    X, P = audit.extract_menu(
        VCGExhaustiveAuction(), inst, 0, family, trials=menu_trials, seed=cfg.seed
    )
    eps, ell = 1e-4, 1
    pts_j = audit.map_menu_to_qp(X, P, phi, eps, ell)
    q0 = (1.0 - eps) * float(phi.value(1.0 - beta - 10.0**-ell)) - 10.0**-ell
    demo = audit.separate_quadrant([(p.q, p.p) for p in pts_j], q0, 0.05)
    passed = not mismatches and not inconsistencies
    return {
        "experiment": "menu_separation",
        "params": {"configs": configs},
        "seed": cfg.seed,
        "grid_oracle_mismatches": mismatches,
        "internal_inconsistencies": inconsistencies,
        "demo": {
            "mechanism": "vcg",
            "points": [{"q": p.q, "p": p.p, "provenance": p.provenance} for p in pts_j],
            "q0": q0,
            "p0": 0.05,
            "result": demo.to_dict(),
            "negative_expected_payments": bool((P < -1e-12).any()),
        },
        "passed": bool(passed),
    }


def _exp_amplify(
    cfg: ExperimentConfig, *, ell: int = 4, delta: str = "paper", c: float | None = None,
    chains: int = 100,
) -> dict:
    if ell < 1:
        raise OracleContractError(f"ell must be positive, got {ell}")
    try:
        value = audit.DELTA_PAPER if delta == "paper" else float(delta)
    except ValueError:
        value = math.nan
    # alpha' = sqrt(delta) * alpha leaves (0, 1] outside this range; NaN fails too
    if not 0.0 < value <= 1.0:
        raise OracleContractError(f"--delta must be 'paper' or lie in (0, 1], got {delta!r}")
    delta = value
    rng = _rng(cfg.seed, 9)
    seeds = [int(s) for s in rng.integers(0, 2**31, chains)]
    runs = []
    certs_checked = 0
    failures = 0
    for s in seeds:
        c_run = c if c is not None else float(_rng(s, 10).uniform(0.3, 0.9))
        rep = audit.run_amplification(ell, delta, c_run, seed=s)
        certs_checked += len(rep["certificates"])
        if not rep["passed"]:
            failures += 1
            runs.append(rep)
    return {
        "experiment": "amplify",
        "params": {"ell": ell, "delta": delta, "chains": chains,
                   "profile": "paper" if delta == audit.DELTA_PAPER else "non_paper"},
        "seed": cfg.seed,
        "chains": chains,
        "certificates_checked": certs_checked,
        "failing_runs": runs,
        "passed": failures == 0,
    }


def _exp_inequalities(
    cfg: ExperimentConfig, *, grid: int = 100_000, figure_delta: float = 0.05
) -> dict:
    if not math.isfinite(figure_delta):
        raise OracleContractError(f"figure_delta must be finite, got {figure_delta}")
    rep = audit.scalar_inequality_suite(grid=grid)
    rep["params"]["figure_delta"] = figure_delta
    rep["seed"] = cfg.seed
    return rep


def _exp_basic_count(cfg: ExperimentConfig, *, n: int = 2, m: int = 4) -> dict:
    return {**audit.basic_instance_counting(n, m), "seed": cfg.seed}


def _exp_scaling_probe(
    cfg: ExperimentConfig, *, m: int = 6, k: int = 3, schedule: str = "0.25,0.5,1.0,2.0,4.0",
    trials: int = 50,
) -> dict:
    rng = _rng(cfg.seed, 11)
    w = rng.uniform(0.1, 1.0, m)
    oracle = make_budget_additive([float(x) for x in w], float(0.6 * w.sum()))
    wm_pairs = [
        (scale_oracle(oracle, 0.5), oracle),
        (make_additive([float(x) for x in rng.uniform(0.0, 0.5, m)]), oracle),
    ]
    return audit.scaling_probe(
        GreedyCPP(), CPPInstance((oracle,), k), [float(a) for a in schedule.split(",")],
        trials, cfg.seed, eps=0.0, wm_pairs=wm_pairs,
    )


_SUITE_PLAN: list[tuple[str, dict]] = [
    ("gap955", {"blocks": 200, "alpha": 0.5}),
    ("concavity", {"family": "two_block_product", "blocks": 8, "alpha": 1.0, "trials": 10_000}),
    ("concavity", {"family": "two_block_product", "blocks": 200, "alpha": 0.5}),
    ("concavity", {"family": "budget_additive_demo"}),
    ("submod-check", {"family": "two_block_product", "m": 10}),
    ("submod-check", {"family": "symgap", "m": 10}),
    ("product-compose", {"pairs": 100, "m": 10}),
    ("psi-tilde-check", {"alpha": 0.5, "beta": 0.1, "grid": 200}),
    ("chernoff", {"m": 100, "beta": 0.2}),
    ("chernoff", {"m": 400, "beta": 0.1}),
    ("chernoff", {"m": 400, "beta": 0.2}),
    ("bisect-uniformity", {"m": 32, "trials": 20_000}),
    ("greedy-ratio", {"instances": 50, "m_max": 16, "k_max": 4}),
    ("poisson-midr", {"family": "additive", "m": 8, "k": 2, "trials": 10_000}),
    ("poisson-midr", {"family": "two_block_product", "m": 8, "k": 2, "trials": 10_000}),
    ("vcg-audit", {"n": 2, "m": 8, "deviations": 20, "trials": 1_000}),
    ("symgap", {"ell": 1, "partitions": 100}),
    ("menu-separation", {"configs": 200}),
    ("amplify", {"delta": "paper", "ell": 4, "chains": 1250}),
    ("amplify", {"delta": 0.05, "ell": 4, "chains": 1250}),
    ("inequalities", {"grid": 100_000}),
    ("basic-count", {"n": 2, "m": 4}),
    ("basic-count", {"n": 4, "m": 16}),
    ("basic-count", {"n": 16, "m": 160}),
    ("scaling-probe", {"m": 6, "k": 3, "trials": 50}),
]

_FAST_OVERRIDES = {
    "gap955": {"blocks": 50},
    "concavity": {"blocks": 50},
    "symgap": {"partitions": 10},
    "amplify": {"chains": 50},
    "inequalities": {"grid": 10_000},
    "product-compose": {"pairs": 10},
    "greedy-ratio": {"instances": 10},
    "menu-separation": {"configs": 50},
}


def _exp_suite(cfg: ExperimentConfig, *, fast: bool = False) -> dict:
    sub_reports = []
    all_passed = True
    for name, params in _SUITE_PLAN:
        params = dict(params)
        if fast:
            # shrink only the sizes the step sets: a flag it does not read is a usage error
            params.update({k: v for k, v in _FAST_OVERRIDES.get(name, {}).items() if k in params})
            if "trials" in params:
                params["trials"] = max(100, params["trials"] // 100)
        rep = run(ExperimentConfig(experiment=name, params=params, seed=cfg.seed))[1]
        sub_reports.append(rep)
        all_passed = all_passed and bool(rep.get("passed", False))
    # byte-identity: rerunning an experiment with the same config must
    # serialize to the identical report
    probe_cfg = ExperimentConfig(
        experiment="inequalities", params={"grid": 10_000}, seed=cfg.seed
    )
    b1 = _serialize_json(run(probe_cfg)[1])
    b2 = _serialize_json(run(probe_cfg)[1])
    byte_identical = b1 == b2
    all_passed = all_passed and byte_identical
    return {
        "experiment": "suite",
        "params": {"fast": fast},
        "seed": cfg.seed,
        "reports": sub_reports,
        "byte_identical_reruns": byte_identical,
        "passed": bool(all_passed),
    }


EXPERIMENTS = {
    "gap955": _exp_gap955,
    "concavity": _exp_concavity,
    "submod-check": _exp_submod_check,
    "product-compose": _exp_product_compose,
    "psi-tilde-check": _exp_psi_tilde_check,
    "chernoff": _exp_chernoff,
    "bisect-uniformity": _exp_bisect_uniformity,
    "greedy-ratio": _exp_greedy_ratio,
    "poisson-midr": _exp_poisson_midr,
    "vcg-audit": _exp_vcg_audit,
    "symgap": _exp_symgap,
    "menu-separation": _exp_menu_separation,
    "amplify": _exp_amplify,
    "inequalities": _exp_inequalities,
    "basic-count": _exp_basic_count,
    "scaling-probe": _exp_scaling_probe,
    "suite": _exp_suite,
}


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _np_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _serialize_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_np_default) + "\n"


def emit_plot_data(report: dict) -> list[list]:
    """Plot-ready CSV rows for a report; header-only when nothing applies."""
    exp = report.get("experiment")
    if exp == "psi_tilde_check":
        p = report["params"]
        phi = PhiAlpha(p["alpha"])
        t = np.linspace(0.0, 1.0, 101)
        X, Y = np.meshgrid(t, t, indexing="ij")
        cols = (X, Y, psi(phi, X, Y), psi_tilde(phi, p["beta"], X, Y))
        return [["x", "y", "psi", "psi_tilde"]] + np.column_stack(
            [c.ravel() for c in cols]
        ).tolist()
    if exp == "scalar_inequalities":
        delta = report["params"].get("figure_delta", 0.05)
        rows = [["x", "f1_ramp", "f2_quad_plus_delta", "f3_quad"]]
        rows.extend(list(r) for r in audit.figure_triple(delta))
        return rows
    if exp == "gap955":
        rows = [["t", "value"]]
        rows.extend([s["t"], s["value"]] for s in report["segment"])
        return rows
    if exp == "symmetry_gap":
        rows = [["mechanism", "value_mean", "X_mean", "unbalanced_rate", "chernoff_bound"]]
        rows.extend(
            [r["mechanism"], r["value_mean"], r["X_mean"], r["unbalanced_rate"], r["chernoff_bound"]]
            for r in report["mechanisms"]
        )
        return rows
    if exp == "scaling_probe":
        rows = [["alpha", "value", "stderr"]]
        rows.extend([t["alpha"], t["value"], t["stderr"]] for t in report["trace"])
        return rows
    rows = [["key", "value"]]
    for key in sorted(report):
        val = report[key]
        if isinstance(val, (int, float, bool, str)) or val is None:
            rows.append([key, val])
    return rows


def _serialize_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(emit_plot_data(report))
    return buf.getvalue()


# parameters that count repetitions: none of them may be below 1, so that no
# report passes on zero checks
_COUNTS = ("trials", "partitions", "chains", "deviations", "instances", "pairs", "configs")


def run(config: ExperimentConfig) -> tuple[int, dict]:
    """Execute one experiment; returns (exit_code, report)."""
    fn = EXPERIMENTS.get(config.experiment)
    if fn is None:
        raise OracleContractError(f"unknown experiment {config.experiment!r}")
    declared = _declared(fn)
    given = dict(config.params)
    unknown = sorted(set(given) - set(declared))
    if unknown:
        raise OracleContractError(f"{config.experiment} takes no parameters {unknown}")
    params = {}
    for name, value in given.items():
        if value is None:
            continue
        tp, choices, _ = declared[name]
        params[name] = value = tp(value)
        if choices and value not in choices:
            raise OracleContractError(f"{name} must be one of {list(choices)}, got {value!r}")
    for name, value in params.items():
        if name.endswith(_COUNTS) and value < 1:
            raise OracleContractError(f"{name} must be positive, got {value}")
    config = replace(config, params={n: params[n] for n in config.params if n in params})
    report = fn(config, **params)
    code = 0 if report.get("passed", False) else FAIL_EXIT
    return code, report


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _declared(fn) -> dict[str, tuple[type, tuple | None, object]]:
    """name -> (type, choices, default) for each keyword-only parameter of an
    experiment; every one has a default.  `X | None` declares type X and
    `Literal[...]` declares choices.  This module does not postpone
    annotations, so they are read as objects, with no string evaluation."""
    declared = {}
    for name, default in fn.__kwdefaults__.items():
        tp = fn.__annotations__[name]
        args, choices = typing.get_args(tp), None
        if typing.get_origin(tp) is Literal:
            tp, choices = type(args[0]), args
        elif args:
            (tp,) = [a for a in args if a is not type(None)]
        declared[name] = (tp, choices, default)
    return declared


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    # nothing runs in parallel; the flag stays for callers that pass 1
    sp.add_argument("--workers", type=int, choices=(1,), default=None)
    sp.add_argument("--config", type=str, default=None, help="JSON file of flag defaults; explicit flags win")


_COMMON_KEYS = ("seed", "out", "format", "workers", "config")


def build_parser(only: str | None = None) -> _Parser:
    """The parser of every subcommand, or of the subcommand `only` alone."""
    parser = _Parser(prog="symgap", description=__doc__)
    sub = parser.add_subparsers(dest="experiment")
    for name, fn in EXPERIMENTS.items():
        if only is not None and name != only:
            continue
        sp = sub.add_parser(name, prog=f"symgap {name}")
        # flags default to None, so that an unset flag falls through to the
        # config file and then to the declared default
        for param, (tp, choices, default) in _declared(fn).items():
            flag = "--" + param.replace("_", "-")
            if tp is bool:
                sp.add_argument(flag, action="store_true", default=None)
            else:
                shown = None if default is None else f"default: {default}"
                sp.add_argument(flag, type=tp, choices=choices, default=None, help=shown)
        _add_common(sp)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    ns = vars(args)
    file_defaults: dict = {}
    if ns.get("config"):
        with open(ns["config"]) as fh:
            file_defaults = json.load(fh)
        if not isinstance(file_defaults, dict):
            raise OracleContractError("config file must hold a JSON object")
    unknown = set(file_defaults) - set(ns)
    if unknown:
        raise OracleContractError(f"unknown config keys: {sorted(unknown)}")
    params = {}
    for key, value in ns.items():
        if value is None:
            value = file_defaults.get(key)
        if value is not None and key != "experiment":
            params[key] = value
    common = {key: params.pop(key) for key in _COMMON_KEYS if key in params}
    if common.get("workers", 1) != 1:
        raise OracleContractError(f"workers must be 1, got {common['workers']!r}")
    return ExperimentConfig(
        experiment=ns["experiment"],
        params=params,
        seed=int(common.get("seed", 0)),
        out=common.get("out"),
        format=common.get("format", "json"),
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a known subcommand first needs its own subparser only; anything else,
    # and any leftover argument, gets the full parser's usage and errors
    parser = build_parser(argv[0] if argv and argv[0] in EXPERIMENTS else None)
    args, extra = parser.parse_known_args(argv)
    if extra:
        build_parser().error(f"unrecognized arguments: {' '.join(extra)}")
    if args.experiment is None:
        parser.print_usage(sys.stderr)
        print("symgap: error: an experiment subcommand is required", file=sys.stderr)
        return USAGE_EXIT
    try:
        config = _config_from_args(args)
        code, report = run(config)
    except (ValueError, OSError) as exc:
        # GroundSetError, OracleContractError and NonConcaveClassError are ValueErrors
        print(f"symgap: error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    text = _serialize_csv(report) if config.format == "csv" else _serialize_json(report)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())

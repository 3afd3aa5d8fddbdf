"""Audit experiments: everything that turns the hardness construction into
numerical pass/fail evidence.

The Chernoff tail and the basic instance's union size are exact integer laws;
sampled assertions use a 4-sigma gate plus a 1e-9 absolute guard (so tied
quantities computed along different float paths never flag at stderr = 0).
The e^{-Omega(n)} slack is e^{-n/8}, recorded in every report that uses it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .setfn import ValuationOracle, intersection_sizes, scale_oracle
from .instances import (
    AuctionInstance,
    PhiAlpha,
    TwoBlockValuation,
    expected_union_size,
    make_symgap_valuation,
    sample_bisection_sequence,
)
from .extensions import mean_stderr
from .mechanisms import run_trials

SIGMA_GATE = 4.0
ABS_GUARD = 1e-9
OMEGA_N_RATE = 0.125  # e^{-Omega(n)} instantiated as exp(-n * OMEGA_N_RATE)
DELTA_PAPER = math.exp(-10.0)
DELTA_VISIBLE = 0.05  # labeled non-paper profile with effects visible in floats
INEQUALITY_TOL = 1e-12  # a grid margin >= -INEQUALITY_TOL passes


# ---------------------------------------------------------------------------
# truthfulness audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviationResult:
    player: int
    deviation_kind: str
    truth_score: float
    truth_stderr: float
    deviation_score: float
    deviation_stderr: float
    gap: float
    gap_stderr: float
    violation: bool


@dataclass
class TruthReport:
    mechanism: str
    eps: float
    trials: int
    seed: int
    entries: list[DeviationResult]

    @property
    def passed(self) -> bool:
        return not any(e.violation for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "mechanism": self.mechanism,
            "eps": self.eps,
            "trials": self.trials,
            "seed": self.seed,
            "passed": self.passed,
            "entries": [vars(e) | {} for e in self.entries],
        }


# SeedSequence entropy tags of the per-declaration trial streams, used as
# (seed, index, tag).  The tag goes last because numpy pads entropy with
# zeros: a trailing zero index would alias the shorter tuple.
_DEVIATION_STREAM = 1
_MENU_STREAM = 2
_SCALING_STREAM = 3


def _declare(instance, player: int, oracle: ValuationOracle):
    """`instance` with player's declaration replaced by `oracle`."""
    oracles = instance.oracles
    return replace(instance, oracles=(*oracles[:player], oracle, *oracles[player + 1:]))


def audit_truthfulness(
    mech,
    instance,
    deviations: Sequence[tuple[int, ValuationOracle]],
    trials: int,
    seed: int,
    eps: float = 0.0,
) -> TruthReport:
    """Monte-Carlo check of (1-eps)-truthfulness-in-expectation.

    For a deviation v' of player i the score under truth must cover the
    deviation score:  E[v_i . A(v) - p_i(v)]  >=  (1-eps) E[v_i . A(v')]
    - E[p_i(v')].  A violation needs a gap below -(4 sigma + 1e-9).

    Truthful trials use SeedSequence(seed); deviation d uses the entropy
    tuple (seed, d, _DEVIATION_STREAM), so no two streams alias.  Trials come
    from run_trials: a deterministic mechanism runs once per declaration and
    its outcome is replicated across `trials`.  Each declaration's scores
    for a player come from one eval_many on the player's column of bundles.
    """
    truth = run_trials(mech, instance, trials, seed)
    truth_scores: dict[int, np.ndarray] = {}
    entries: list[DeviationResult] = []
    oracles = instance.oracles
    for dev_idx, (player, dev_oracle) in enumerate(deviations):
        if player not in truth_scores:
            truth_scores[player] = (
                oracles[player].eval_many(truth.words[:, player]) - truth.payments[:, player]
            )
        dev_instance = _declare(instance, player, dev_oracle)
        dev = run_trials(mech, dev_instance, trials, (seed, dev_idx, _DEVIATION_STREAM))
        dev_vals = (
            (1.0 - eps) * oracles[player].eval_many(dev.words[:, player])
            - dev.payments[:, player]
        )
        t_mean, t_se = mean_stderr(truth_scores[player])
        d_mean, d_se = mean_stderr(dev_vals)
        gap = t_mean - d_mean
        gap_se = math.hypot(t_se, d_se)
        violation = gap < -(SIGMA_GATE * gap_se + ABS_GUARD)
        entries.append(
            DeviationResult(
                player=player,
                deviation_kind=dev_oracle.descriptor.get("kind", "?"),
                truth_score=t_mean,
                truth_stderr=t_se,
                deviation_score=d_mean,
                deviation_stderr=d_se,
                gap=gap,
                gap_stderr=gap_se,
                violation=bool(violation),
            )
        )
    return TruthReport(
        mechanism=getattr(mech, "name", type(mech).__name__),
        eps=eps,
        trials=trials,
        seed=seed,
        entries=entries,
    )


# ---------------------------------------------------------------------------
# hidden-partition experiment
# ---------------------------------------------------------------------------


@dataclass
class SymGapMechanismStats:
    mechanism: str
    value_mean: float
    value_stderr: float
    X_mean: float
    planted_value: float
    informed_benchmark: float
    ceiling_mean: float
    queries_total: int
    unbalanced_queries: int
    unbalanced_rate: float
    chernoff_bound: float
    ceiling_ok: bool
    unbalanced_ok: bool
    planted_ok: bool

    def to_dict(self) -> dict:
        return vars(self) | {}


def symmetry_gap_experiment(
    m: int,
    k: int,
    n: int,
    beta: float,
    phi: PhiAlpha,
    mechanisms: Sequence,
    partitions: int,
    seed: int,
) -> dict:
    """Run query-bounded mechanisms against freshly drawn hidden bisections.

    Per partition trial the mechanism sees only a value oracle of the
    perturbed two-block function; the harness classifies every query as
    balanced/unbalanced against the hidden split, checks the per-trial
    symmetric ceiling 1 - (1 - phi(X))^2 + e^{-n/8}, and compares against
    the planted asymmetric solution (one full block).
    """
    slack = math.exp(-n * OMEGA_N_RATE)
    chernoff_bound = min(1.0, _chernoff_bound(m, beta))
    results = []
    informed = float(phi.value(1.0 - beta))
    half = m // 2

    # the probe classifies every query by its counts: a batch row each, an
    # extension class by its number of free items
    def tally(counts) -> None:
        nonlocal unbalanced_total
        if isinstance(counts, list):
            for size, a, b in counts:
                if abs(a - b) / half > beta:
                    unbalanced_total += size
        else:
            a, b = counts
            unbalanced_total += int(np.count_nonzero(np.abs(a - b) / half > beta))

    for mech_idx, mech in enumerate(mechanisms):
        values = np.zeros(partitions)
        Xs = np.zeros(partitions)
        ceilings = np.zeros(partitions)
        planted_vals = np.zeros(partitions)
        queries_total = 0
        unbalanced_total = 0
        ceiling_ok = True
        ss = np.random.SeedSequence(entropy=(seed, mech_idx))
        children = ss.spawn(partitions)
        for t in range(partitions):
            rng = np.random.default_rng(children[t])
            A, B = blocks = sample_bisection_sequence(m, rng)
            valuation = make_symgap_valuation(m, A, B, phi, beta)
            value_of = valuation.count_values()
            probe = valuation.oracle(tally)
            R = mech.allocate((probe.restricted_view(),), k, rng)
            value = float(value_of(*intersection_sizes(blocks, R)))
            X = int(np.bitwise_count(R).sum()) / m
            ceiling = 1.0 - (1.0 - float(phi.value(X))) ** 2 + slack
            if value > ceiling + 1e-12:
                ceiling_ok = False
            values[t] = value
            Xs[t] = X
            ceilings[t] = ceiling
            planted_vals[t] = value_of(half, 0)
            queries_total += probe.query_count
        v_mean, v_se = mean_stderr(values)
        unbalanced_ok = unbalanced_total <= chernoff_bound * queries_total + ABS_GUARD
        planted_ok = bool((planted_vals >= informed - 1e-12).all())
        results.append(
            SymGapMechanismStats(
                mechanism=getattr(mech, "name", type(mech).__name__),
                value_mean=v_mean,
                value_stderr=v_se,
                X_mean=float(Xs.mean()),
                planted_value=float(planted_vals.mean()),
                informed_benchmark=informed,
                ceiling_mean=float(ceilings.mean()),
                queries_total=queries_total,
                unbalanced_queries=unbalanced_total,
                unbalanced_rate=unbalanced_total / max(1, queries_total),
                chernoff_bound=chernoff_bound,
                ceiling_ok=ceiling_ok,
                unbalanced_ok=bool(unbalanced_ok),
                planted_ok=planted_ok,
            )
        )
    passed = all(r.ceiling_ok and r.unbalanced_ok and r.planted_ok for r in results)
    return {
        "experiment": "symmetry_gap",
        "params": {
            "m": m,
            "k": k,
            "n": n,
            "beta": beta,
            "phi": phi.to_param_dict(),
            "partitions": partitions,
            "omega_n_rate": OMEGA_N_RATE,
        },
        "seed": seed,
        "mechanisms": [r.to_dict() for r in results],
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# menus and separation
# ---------------------------------------------------------------------------


def extract_menu(
    mech,
    instance: AuctionInstance,
    special: int,
    family: Sequence[TwoBlockValuation],
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Probe the menu a mechanism offers one player.

    For each declared valuation in the family (a scaled two-block function),
    rerun the mechanism and record X = |bundle ∩ (A ∪ B)| / |A ∪ B| and the
    payment.  Returns (X, P), two (entries, trials) arrays: row e holds
    entry e's trials in order.

    Entry e's trials use the entropy tuple (seed, e, _MENU_STREAM).  Trials
    come from run_trials: a deterministic mechanism runs once per declared
    entry and its outcome is replicated across `trials`.
    """
    X, P = [], []
    for prov, entry in enumerate(family):
        dev_instance = _declare(instance, special, entry.oracle())
        runs = run_trials(mech, dev_instance, trials, (seed, prov, _MENU_STREAM))
        words = runs.words[:, special]
        X.append(intersection_sizes(words, entry.A | entry.B) / (2 * entry.block_size))
        P.append(runs.payments[:, special])
    return np.array(X), np.array(P)


@dataclass(frozen=True)
class MenuPoint:
    q: float
    p: float
    provenance: int


def map_menu_to_qp(
    X: np.ndarray, P: np.ndarray, phi: PhiAlpha, eps: float, ell: int
) -> list[MenuPoint]:
    """Map each row of `extract_menu`'s (X, P) to its expected
    q = E[(1-eps) phi(X - 10^-ell) - 10^-ell] and p = E[P], with the row
    index as provenance.  Each expectation is sum_t w term_t / sum_t w with
    w = 1/(entries * trials), summed in trial order: a plain mean can round
    the menu-separation demo's q to the other side of its threshold q0.
    """
    err = 10.0 ** (-ell)
    w = 1.0 / X.size
    Q = (1.0 - eps) * phi.value(np.maximum(X - err, 0.0)) - err
    points = []
    for prov, (q_row, p_row) in enumerate(zip(Q.tolist(), P.tolist())):
        wsum = sum(w for _ in q_row)
        q = sum(w * v for v in q_row) / wsum
        points.append(MenuPoint(q, sum(w * v for v in p_row) / wsum, prov))
    return points


@dataclass(frozen=True)
class SeparationResult:
    branch: str  # 'witness' or 'line'
    q0: float
    p0: float
    indices: tuple[int, ...] = ()
    weights: tuple[float, ...] = ()
    point: tuple[float, float] | None = None
    lam_q: float = 0.0
    lam_p: float = 0.0
    margin: float = 0.0

    def to_dict(self) -> dict:
        d = {"branch": self.branch, "q0": self.q0, "p0": self.p0}
        if self.branch == "witness":
            d |= {
                "indices": list(self.indices),
                "weights": list(self.weights),
                "point": list(self.point),
            }
        else:
            d |= {"lam_q": self.lam_q, "lam_p": self.lam_p, "margin": self.margin}
        return d


_SNAP = 1e-12


def _snap(v: float) -> float:
    return 0.0 if abs(v) <= _SNAP else v


def separate_quadrant(
    points: Sequence[tuple[float, float]], q0: float, p0: float
) -> SeparationResult:
    """Either exhibit a convex combination of points reaching the target
    quadrant {q >= q0, p <= p0}, or a nonnegative-slope separating line.

    Exactly one branch is returned.  Witness: indices + convex weights (at
    most two generators; in 2-D the quadrant, if reachable at all, is
    reachable on a segment between two of the points).  Line: lam_q, lam_p
    >= 0, not both zero, with lam_q q - lam_p p < lam_q q0 - lam_p p0
    strictly for every input point.
    """
    if not points:
        raise ValueError("no menu points to separate")
    pts = [( _snap(q - q0), _snap(p0 - p) ) for q, p in points]

    for i, (g, h) in enumerate(pts):
        if g >= 0.0 and h >= 0.0:
            return SeparationResult(
                "witness", q0, p0, (i,), (1.0,), (points[i][0], points[i][1])
            )

    def interval(a: float, b: float) -> tuple[float, float]:
        # {w in [0,1] : w a + (1-w) b >= 0}
        if a == b:
            return (0.0, 1.0) if b >= 0.0 else (1.0, 0.0)
        w = -b / (a - b)
        if a > b:
            return (max(0.0, w), 1.0)
        return (0.0, min(1.0, w))

    n = len(pts)
    for i in range(n):
        gi, hi = pts[i]
        for j in range(i + 1, n):
            gj, hj = pts[j]
            lo_g, hi_g = interval(gi, gj)
            lo_h, hi_h = interval(hi, hj)
            lo = max(lo_g, lo_h)
            hi_ = min(hi_g, hi_h)
            if lo <= hi_ + _SNAP:
                w = 0.5 * (lo + min(hi_, 1.0))
                w = min(1.0, max(0.0, w))
                q = w * points[i][0] + (1 - w) * points[j][0]
                p = w * points[i][1] + (1 - w) * points[j][1]
                return SeparationResult(
                    "witness", q0, p0, (i, j), (w, 1.0 - w), (q, p)
                )

    candidates = [(1.0, 0.0), (0.0, 1.0)]
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[j][0] - pts[i][0]
            dy = pts[j][1] - pts[i][1]
            for lam in ((dy, -dx), (-dy, dx)):
                lq, lp = _snap(lam[0]), _snap(lam[1])
                if lq >= 0.0 and lp >= 0.0 and (lq > 0.0 or lp > 0.0):
                    norm = math.hypot(lq, lp)
                    candidates.append((lq / norm, lp / norm))
    best = None
    for lq, lp in candidates:
        worst = max(lq * g + lp * h for g, h in pts)
        if best is None or worst < best[0]:
            best = (worst, lq, lp)
    worst, lq, lp = best
    if worst >= 0.0:
        raise RuntimeError(
            "no witness and no strict separator found; degenerate input beyond snapping"
        )
    return SeparationResult("line", q0, p0, lam_q=lq, lam_p=lp, margin=-worst)


def quadrant_feasible_exact(
    points: Sequence[tuple[float, float]], q0: float, p0: float, slack: float = _SNAP
) -> bool:
    """Reference for `separate_quadrant`: does a point or a mixture of two reach
    {q >= q0 - slack, p <= p0 + slack}?  Exact rationals on the float inputs."""
    from fractions import Fraction  # imported here, off the CLI's import path

    q_min, p_max = Fraction(q0) - Fraction(slack), Fraction(p0) + Fraction(slack)
    pts = [(Fraction(q), Fraction(p)) for q, p in points]
    for i, (qi, pi) in enumerate(pts):
        for qj, pj in pts[i:]:
            lo, hi = 0, 1
            # q(w) >= q_min and p(w) <= p_max, each as slope * w >= need
            for slope, need in ((qi - qj, q_min - qj), (pj - pi, pj - p_max)):
                if slope > 0:
                    lo = max(lo, need / slope)
                elif slope < 0:
                    hi = min(hi, need / slope)
                elif need > 0:
                    hi = -1  # no w satisfies 0 >= need
            if lo <= hi:
                return True
    return False


# ---------------------------------------------------------------------------
# gap amplification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplificationState:
    j: int
    alpha: float
    xi: float
    delta: float

    @property
    def eps(self) -> float:
        return self.delta**4

    @property
    def profile(self) -> str:
        return "paper" if abs(self.delta - DELTA_PAPER) < 1e-15 else "non_paper"

    @property
    def potential(self) -> float:
        return self.alpha * self.xi ** (1.0 + self.delta)


@dataclass(frozen=True)
class StepCertificate:
    case: int
    tail_probability: float
    quad_value: float
    hypothesis_satisfied: bool
    lhs: float
    rhs: float
    margin: float
    holds: bool | None  # None when the hypothesis fails (vacuous)

    def to_dict(self) -> dict:
        return vars(self) | {}


def amplification_step(
    state: AmplificationState,
    xs: Sequence[float],
    ws: Sequence[float] | None = None,
) -> tuple[AmplificationState, StepCertificate]:
    """One level of the two-case gap amplification.

    Case 1 (heavy tail Pr[X/alpha > sqrt(delta)] > 2 delta xi): halve the
    ramp, alpha' = (1+delta)/2 alpha.  Case 2: shrink to alpha' =
    sqrt(delta) alpha.  The certificate checks the potential inequality
    alpha' xi'^{1+delta} >= (1+delta^2)/2 * alpha xi^{1+delta}, which must
    hold whenever the hypothesis E[1-(1-phi_alpha(X))^2] >= (1-2 eps) xi
    does.
    """
    xs = np.asarray(xs, dtype=float)
    if ws is None:
        ws = np.full(xs.size, 1.0 / xs.size)
    else:
        ws = np.asarray(ws, dtype=float)
        if abs(ws.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
    delta, eps = state.delta, state.eps
    alpha, xi = state.alpha, state.xi
    tail = float(ws[xs / alpha > math.sqrt(delta)].sum())
    case = 1 if tail > 2.0 * delta * xi else 2
    alpha_next = 0.5 * (1.0 + delta) * alpha if case == 1 else math.sqrt(delta) * alpha
    # mean of values <= 1; the sum may overshoot 1 by an ulp
    xi_next = min(1.0, float(np.add.reduce(ws * PhiAlpha(alpha_next).value(xs))))
    quad = float(np.add.reduce(ws * (1.0 - (1.0 - PhiAlpha(alpha).value(xs)) ** 2)))
    hyp = quad >= (1.0 - 2.0 * eps) * xi - 1e-15
    lhs = alpha_next * xi_next ** (1.0 + delta)
    rhs = 0.5 * (1.0 + delta * delta) * alpha * xi ** (1.0 + delta)
    margin = lhs - rhs
    holds = (margin >= -1e-12 * max(1.0, abs(rhs))) if hyp else None
    cert = StepCertificate(case, tail, quad, bool(hyp), lhs, rhs, float(margin), holds)
    return AmplificationState(state.j + 1, alpha_next, xi_next, delta), cert


def hypothesis_satisfying_distribution(
    state: AmplificationState, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Random empirical distribution of X_{j+1} satisfying the step hypothesis.

    Draws a random atom set, then (if needed) mixes in mass at alpha, where
    the quadratic functional saturates at 1, until the hypothesis holds.
    """
    alpha, xi, delta = state.alpha, state.xi, state.delta
    eps = state.eps
    kind = rng.integers(0, 4)
    if kind == 0:
        xs = np.array([math.sqrt(delta) * alpha * rng.uniform(0.9, 1.1)])
        ws = np.array([1.0])
    elif kind == 1:
        xs = np.array([0.0, math.sqrt(delta) * alpha * rng.uniform(0.95, 1.05)])
        p = rng.uniform(0.05, 1.0)
        ws = np.array([1.0 - p, p])
    elif kind == 2:
        size = int(rng.integers(2, 12))
        xs = rng.uniform(0.0, min(1.0, 2.0 * alpha), size)
        ws = rng.dirichlet(np.ones(size))
    else:
        size = int(rng.integers(1, 6))
        xs = rng.uniform(0.0, math.sqrt(delta) * alpha, size)
        ws = rng.dirichlet(np.ones(size))
    needed = (1.0 - 2.0 * eps) * xi
    quad = float(np.add.reduce(ws * (1.0 - (1.0 - PhiAlpha(alpha).value(xs)) ** 2)))
    if quad < needed and quad < 1.0:
        # mix with the saturating atom: w*quad + (1-w)*1 >= needed
        w_max = (1.0 - needed) / (1.0 - quad)
        w = rng.uniform(0.0, max(w_max, 0.0)) if w_max > 0 else 0.0
        xs = np.concatenate([xs, [alpha]])
        ws = np.concatenate([ws * w, [1.0 - w]])
    return xs, ws


def run_amplification(ell: int, delta: float, c: float, seed: int) -> dict:
    """Chain ell amplification steps from (alpha_0, xi_0) = (1, c), each on a
    hypothesis_satisfying_distribution, and check the telescoped potential
    alpha_ell xi_ell^{1+delta} >= ((1+delta^2)/2)^ell c^{1+delta} plus the
    feasibility floor E[X_ell] >= alpha_ell xi_ell on the final
    distribution."""
    if not 0.0 < c <= 1.0:
        raise ValueError("c must be in (0, 1]")
    rng = np.random.default_rng(seed)
    state = AmplificationState(0, 1.0, c, delta)
    certs = []
    final_mean = c
    for _ in range(ell):
        xs, ws = hypothesis_satisfying_distribution(state, rng)
        state, cert = amplification_step(state, xs, ws)
        certs.append(cert)
        final_mean = float(np.add.reduce(ws * xs))
    target = (0.5 * (1.0 + delta * delta)) ** ell * c ** (1.0 + delta)
    potential = state.potential
    telescoped = potential >= target * (1.0 - 1e-9)
    floor_ok = final_mean >= state.alpha * state.xi - 1e-12
    return {
        "experiment": "amplification",
        "params": {"ell": ell, "delta": delta, "c": c, "profile": state.profile},
        "seed": seed,
        "final_state": {"j": state.j, "alpha": state.alpha, "xi": state.xi},
        "potential": potential,
        "telescoped_target": target,
        "telescoping_ok": bool(telescoped),
        "feasibility_floor_ok": bool(floor_ok),
        "certificates": [c_.to_dict() for c_ in certs],
        "all_certificates_hold": all(c_.holds for c_ in certs if c_.holds is not None),
        "passed": bool(
            telescoped
            and floor_ok
            and all(c_.holds is not False for c_ in certs)
        ),
    }


# ---------------------------------------------------------------------------
# scalar inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityRecord:
    name: str
    domain: tuple[float, float]
    grid: int
    worst_margin: float  # >= -INEQUALITY_TOL means pass (margins oriented so >=0 holds)
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "domain": list(self.domain),
            "grid": self.grid,
            "worst_margin": self.worst_margin,
            "passed": self.passed,
        }


def scalar_inequality_suite(grid: int = 100_000) -> dict:
    """Grid-verify the scalar inequalities behind the two amplification cases.

    Margins are oriented so that nonnegative means the inequality holds:
      pow_delta:   (1+d)^d <= 1+d^2                      on [0, 1]
      case2_chain: (1-4d+2d^{3/2})^{1+d} >= 1-4d         on [0, 1/4]
      case1_chain: (1+2d^2-2d^4)^{1+d} >= 1+2d^2+d^4     on [0, 1/2]
      ramp_vs_quad: min(2t, 1+d) >= 1-(1-min(t,1))^2 + d for t >= sqrt(d),
                    with equality at t = sqrt(d) and for t >= 1
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    tol = INEQUALITY_TOL
    table = [
        ("pow_delta", (0.0, 1.0), lambda d: (1.0 + d**2) - (1.0 + d) ** d),
        ("case2_chain", (0.0, 0.25),
         lambda d: (1.0 - 4.0 * d + 2.0 * d**1.5) ** (1.0 + d) - (1.0 - 4.0 * d)),
        ("case1_chain", (0.0, 0.5),
         lambda d: (1.0 + 2.0 * d**2 - 2.0 * d**4) ** (1.0 + d) - (1.0 + 2.0 * d**2 + d**4)),
        *((f"ramp_vs_quad_delta={delta:.6g}", (math.sqrt(delta), 1.5),
           lambda t, delta=delta: np.minimum(2.0 * t, 1.0 + delta)
           - (1.0 - (1.0 - np.minimum(t, 1.0)) ** 2 + delta))
          for delta in (DELTA_PAPER, DELTA_VISIBLE)),
    ]
    records = []
    boundary_eq = {}
    for name, domain, margin_of in table:
        t = np.linspace(*domain, grid)
        margin = margin_of(t)
        worst = float(margin.min())
        records.append(InequalityRecord(name, domain, grid, worst, bool(worst >= -tol)))
        if name.startswith("ramp_vs_quad"):
            beyond = float(np.abs(margin[t >= 1.0]).max())
            boundary_eq[name] = {
                "at_sqrt_delta": float(abs(margin[0])),
                "at_one_and_beyond": beyond,
                "equality_ok": bool(abs(margin[0]) <= tol and beyond <= tol),
            }
    passed = all(r.passed for r in records) and all(
        b["equality_ok"] for b in boundary_eq.values()
    )
    return {
        "experiment": "scalar_inequalities",
        "params": {"grid": grid, "tol": tol},
        "records": [r.to_dict() for r in records],
        "boundary_equalities": boundary_eq,
        "passed": bool(passed),
    }


def figure_triple(delta: float, points: int = 501) -> list[tuple[float, float, float, float]]:
    """(t, ramp, quad + delta, quad) rows for the two-case comparison plot."""
    t = np.linspace(0.0, 1.5, points)
    ramp = np.minimum(2.0 * t, 1.0 + delta)
    quad = 1.0 - (1.0 - np.minimum(t, 1.0)) ** 2
    return [
        (float(a), float(b), float(c_ + delta), float(c_))
        for a, b, c_ in zip(t, ramp, quad)
    ]


# ---------------------------------------------------------------------------
# concentration and counting
# ---------------------------------------------------------------------------


def _chernoff_bound(m: int, beta: float) -> float:
    """4 e^{-beta^2 m/2}, the Chernoff bound both bisection reports quote."""
    return 4.0 * math.exp(-beta * beta * m / 2.0)


def chernoff_bisection_test(m_prime: int, beta: float) -> dict:
    """Exact P(||S∩A| - |S∩B|| > beta m') over uniform equal bisections vs the
    4 e^{-beta^2 m'/2} bound, for S = the first h = m'/2 items: a = |S∩A| has
    P(a) = C(h, a)^2 / C(m', h), summed in integers and divided once."""
    if m_prime < 2 or m_prime % 2:
        raise ValueError(f"m_prime must be positive and even, got {m_prime}")
    if not 0.0 < beta < 1.0:  # NaN fails too
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    half = m_prime // 2
    tail, a, c = 0, 0, 1  # c = C(h, a); a and h - a are equally likely: double the lower tail
    while half - 2 * a > beta * m_prime:
        tail += c * c
        c = c * (half - a) // (a + 1)
        a += 1
    exact = 2 * tail / math.comb(m_prime, half)
    bound = _chernoff_bound(m_prime, beta)
    return {
        "experiment": "chernoff_bisection",
        "params": {"m_prime": m_prime, "beta": beta},
        "exact_tail": exact,
        "bound": bound,
        "passed": exact <= bound,
    }


def union_size_counts(n: int, m: int) -> list[int]:
    """counts[u] = the number of sequences of n size-(m/n) subsets of [0, m)
    whose union has u items, a chain over the sets: a union of u items meets
    the next set in o items in C(u, o) C(m - u, s - o) ways."""
    s, counts = m // n, [1] + [0] * m
    for _ in range(n):
        step = [0] * (m + 1)
        for u, ways in enumerate(counts):
            for o in range(max(0, u + s - m), min(u, s) + 1):
                step[u + s - o] += ways * math.comb(u, o) * math.comb(m - u, s - o)
        counts = step
    return counts


def _union_closed_form(n: int, m: int) -> tuple[int, int]:
    """E|A_1 ∪ ... ∪ A_n| = m (n^n - (n - 1)^n) / n^n as (numerator, denominator)."""
    return m * (n**n - (n - 1) ** n), n**n


def basic_instance_counting(n: int, m: int) -> dict:
    """Exact E|A_1 ∪ ... ∪ A_n| for independent uniform size-(m/n) sets, checked
    in integers against the closed form m(1 - (1 - 1/n)^n), which exceeds m/2."""
    if n < 1 or m < 1 or m % n:
        raise ValueError(f"need positive n and m with n | m, got n = {n}, m = {m}")
    total = sum(u * ways for u, ways in enumerate(union_size_counts(n, m)))
    sequences = math.comb(m, m // n) ** n
    exact_mean = total / sequences
    num, den = _union_closed_form(n, m)
    closed_form_exact = total * den == num * sequences
    expected = expected_union_size(n, m)
    above_half = exact_mean > m / 2.0 and expected > m / 2.0
    return {
        "experiment": "basic_instance_counting",
        "params": {"n": n, "m": m},
        "exact_mean": exact_mean,
        "expected": expected,
        "closed_form_exact": closed_form_exact,
        "above_half": above_half,
        "passed": closed_form_exact and above_half,
    }


# ---------------------------------------------------------------------------
# scaling probe (declaration-scaling trace + weak monotonicity)
# ---------------------------------------------------------------------------


def scaling_probe(
    mech,
    instance,
    schedule: Sequence[float],
    trials: int,
    seed: int,
    eps: float = 0.0,
    wm_pairs: Sequence[tuple[ValuationOracle, ValuationOracle]] = (),
) -> dict:
    """Trace E[v . A(alpha v)] for player 0 of `instance`, whose true
    valuation v is its declared one, over a scaling schedule, and check the
    tail-vs-supremum envelope plus weak monotonicity on declared pairs.

    For a (1-eps)-truthful allocation rule the trace tail cannot fall below
    (1-eps) times the supremum over the schedule (up to sampling noise).
    Each point is a mean with a standard error, so trials must be >= 2.
    Schedule point i, then each pair's v and u declarations in turn, run
    through run_trials with the entropy tuple (seed, index, _SCALING_STREAM).
    """
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a standard error, got {trials}")
    oracle = instance.oracles[0]

    def bundles(idx: int, declared: ValuationOracle) -> np.ndarray:
        """Player 0's bundle in each trial, with `declared` as its declaration."""
        declared_instance = _declare(instance, 0, declared)
        return run_trials(mech, declared_instance, trials, (seed, idx, _SCALING_STREAM)).words[:, 0]

    trace = []
    for idx, alpha in enumerate(schedule):
        at_alpha = bundles(idx, scale_oracle(oracle, float(alpha)))
        mean, se = mean_stderr(oracle.eval_many(at_alpha))
        trace.append({"alpha": float(alpha), "value": mean, "stderr": se})
    sup = max(t["value"] for t in trace)
    sup_se = max(t["stderr"] for t in trace)
    tail = trace[-1]
    envelope_ok = tail["value"] >= (1.0 - eps) * sup - SIGMA_GATE * math.hypot(
        tail["stderr"], sup_se
    ) - ABS_GUARD

    wm_entries = []
    for pair_idx, (u_orc, v_orc) in enumerate(wm_pairs):
        idx = len(schedule) + 2 * pair_idx
        at_v, at_u = bundles(idx, v_orc), bundles(idx + 1, u_orc)
        v_Av, u_Av = v_orc.eval_many(at_v), u_orc.eval_many(at_v)
        v_Au, u_Au = v_orc.eval_many(at_u), u_orc.eval_many(at_u)
        lhs = v_Av.mean() - (1.0 - eps) * u_Av.mean()
        rhs = (1.0 - eps) * v_Au.mean() - u_Au.mean()
        se = math.sqrt(
            (np.var(v_Av - (1.0 - eps) * u_Av, ddof=1) + np.var((1.0 - eps) * v_Au - u_Au, ddof=1))
            / trials
        )
        ok = lhs >= rhs - SIGMA_GATE * se - ABS_GUARD
        wm_entries.append(
            {"pair": pair_idx, "lhs": float(lhs), "rhs": float(rhs), "stderr": se, "ok": bool(ok)}
        )
    return {
        "experiment": "scaling_probe",
        "params": {"schedule": [float(a) for a in schedule], "trials": trials, "eps": eps},
        "seed": seed,
        "trace": trace,
        "supremum": sup,
        "tail_value": tail["value"],
        "envelope_ok": bool(envelope_ok),
        "weak_monotonicity": wm_entries,
        "passed": bool(envelope_ok and all(e["ok"] for e in wm_entries)),
    }

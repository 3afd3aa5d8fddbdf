"""Continuous extensions of set functions and concavity probes.

multilinear_F(x) = E[f(S)] with items included independently with
probabilities x; f_exp(x) = multilinear_F(1 - e^{-x}) is the value of the
independent-exponential rounding.  Both estimate by seeded Monte Carlo
sampling and report a standard error.  Exact values come from
enum_weights(x) @ tabulate(oracle) on small ground sets, and from
exact_F_blockwise / f_exp_blockwise (a binomial convolution over the
two-block occupancy counts) on two-block valuations.

The binomial pmf is computed here in log space with numpy (`binom.pmf`), so
the library needs numpy alone.  exact_F_blockwise and f_exp_blockwise take
scalars or arrays of block probabilities.

The concavity probe evaluates midpoint inequalities g((x+y)/2) >=
(g(x)+g(y))/2 on a batch of pairs with one call of a batch g; the grid scan
is its deterministic exhaustive counterpart for small ground sets.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .setfn import GroundSetError, block_rows, tabulate, words_from_bits
from .instances import GRID_MAX_BLOCK, TwoBlockValuation
from .instances import _count_grid as _cached_count_grid  # perfbench reads its cache_info

_PMF_TAIL = 1e-16
# a midpoint slack below -_CONCAVITY_TOL is a concavity violation
_CONCAVITY_TOL = 1e-9


@dataclass(frozen=True)
class EstimateResult:
    value: float
    stderr: float
    mode: str
    samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "stderr": self.stderr,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
        }


def _validate_point(x, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise GroundSetError(f"point must have shape ({m},), got {x.shape}")
    if (x < -1e-12).any() or (x > 1.0 + 1e-12).any():
        raise GroundSetError("coordinates must lie in [0, 1]")
    return np.clip(x, 0.0, 1.0)


def enum_weights(p: np.ndarray) -> np.ndarray:
    """Inclusion-pattern probabilities over all 2^m masks (bit j <-> item j)."""
    w = np.ones(1)
    for pj in p:
        w = np.concatenate([w * (1.0 - pj), w * pj])
    return w


@lru_cache(maxsize=64)
def _log_binom_coeffs(n: int) -> np.ndarray:
    """Read-only log C(n, k) for k = 0..n, each the log of the exact integer.

    A math.lgamma difference cancels against lgamma(n+1) (~863 at n = 200)
    and leaves ~2e-13 relative error in every pmf entry; with exact
    coefficients the pmf stays within ~3e-14.
    """
    c, half = 1, [0.0]
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        half.append(math.log(c))
    logc = np.array(half + half[: n + 1 - len(half)][::-1])
    logc.flags.writeable = False
    return logc


def _binom_pmf(k, n: int, p) -> np.ndarray:
    """Bin(n, p) pmf at k; k and p broadcast against each other like
    scipy.stats.binom.pmf, n is one integer.  p = 0 and p = 1 give exact
    one-hot values."""
    n = operator.index(n)
    k = np.asarray(k)
    if n < 0 or ((k < 0) | (k > n)).any():
        raise ValueError(f"counts must lie in [0, {n}]")
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(_log_binom_coeffs(n)[k] + k * np.log(p) + (n - k) * np.log1p(-p))
    zero, one = p == 0.0, p == 1.0
    if zero.any() or one.any():
        out = np.where(zero, k == 0, np.where(one, k == n, out))
    return out


# the one pmf entry point; a tracer may replace `binom.pmf`
binom = SimpleNamespace(pmf=_binom_pmf)


def _pmf_window(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Binomial pmf restricted to indices carrying all but ~1e-16 of the mass."""
    ks = np.arange(n + 1)
    pmf = binom.pmf(ks, n, p)
    keep = np.nonzero(pmf > _PMF_TAIL / (n + 1))[0]
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    return ks[lo:hi], pmf[lo:hi]


def exact_F_blockwise(block_val: TwoBlockValuation, xA, xB) -> float | np.ndarray:
    """Multilinear extension at block-uniform points (xA on A, xB on B).

    Exact binomial convolution: F = sum_a sum_b Bin(|A|, xA)(a) Bin(|B|, xB)(b)
    * value(a, b).  xA and xB are scalars or broadcastable arrays; a scalar
    pair gives a float, arrays give an array of their broadcast shape.  Small
    blocks contract the points against the shared count grid a block at a
    time, sized by setfn.block_rows to one (n+1)-float pmf row per point;
    large blocks map only the counts in each point's retained pmf windows
    to values.
    """
    xA, xB = np.broadcast_arrays(np.asarray(xA, dtype=float), np.asarray(xB, dtype=float))
    if not (((0.0 <= xA) & (xA <= 1.0)) & ((0.0 <= xB) & (xB <= 1.0))).all():
        raise GroundSetError("block probabilities must lie in [0, 1]")
    shape = xA.shape
    pa, pb = xA.ravel(), xB.ravel()
    out = np.empty(pa.size)
    n = block_val.block_size
    if n <= GRID_MAX_BLOCK:
        grid = block_val.count_grid()
        ks = np.arange(n + 1)
        step = block_rows(8 * (n + 1))
        for lo in range(0, out.size, step):
            hi = lo + step
            PA = binom.pmf(ks, n, pa[lo:hi, None])
            PB = binom.pmf(ks, n, pb[lo:hi, None])
            out[lo:hi] = ((PA @ grid) * PB).sum(1)
    else:
        values = block_val.count_values()
        for i, (a, b) in enumerate(zip(pa.tolist(), pb.tolist())):
            ka, wa = _pmf_window(n, a)
            kb, wb = _pmf_window(n, b)
            out[i] = wa @ values(ka[:, None], kb[None, :]) @ wb
    return float(out[0]) if shape == () else out.reshape(shape)


def f_exp_blockwise(block_val: TwoBlockValuation, xA, xB) -> float | np.ndarray:
    """Exponential-rounding value at block-uniform fractional points; scalars
    or arrays, as exact_F_blockwise."""
    xA, xB = np.asarray(xA, dtype=float), np.asarray(xB, dtype=float)
    if not ((xA >= 0) & (xB >= 0)).all():
        raise GroundSetError("fractional coordinates must be >= 0")
    return exact_F_blockwise(block_val, 1.0 - np.exp(-xA), 1.0 - np.exp(-xB))


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error of the mean; the error is 0.0 for
    fewer than two values, and the mean is 0.0 for none."""
    n = values.size
    mean = float(values.mean()) if n else 0.0
    if n > 1:
        return mean, float(values.std(ddof=1) / math.sqrt(n))
    return mean, 0.0


def multilinear_F(oracle, x, samples: int = 100_000, seed: int = 0) -> EstimateResult:
    """Monte Carlo estimate of E[f(S)] under independent inclusion with
    probabilities x, from `samples` >= 2 sets drawn from the stream
    SeedSequence(seed).spawn(1)[0]."""
    if samples < 2:
        raise ValueError(f"samples must be >= 2 for a standard error, got {samples}")
    m = oracle.m
    x = _validate_point(x, m)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    acc_sum = 0.0
    acc_sq = 0.0
    # one float draw per item and sample, a block of samples at a time; the
    # stream is consumed in sample order whatever the block size
    step = block_rows(8 * m)
    for done in range(0, samples, step):
        bits = rng.random((min(samples - done, step), m)) < x
        values = oracle.eval_many(words_from_bits(bits))
        # running sums in sample order, not mean_stderr: cumsum adds left to
        # right, so the result equals a scalar loop's bit for bit
        # (test_monte_carlo_matches_scalar_accumulation), and no per-sample
        # array (1.6 MB at 200,000 samples) is added to a gap955 run, whose
        # peak RSS (about 41 MB) is hidden_partition's
        acc_sum = float(np.cumsum(np.append(acc_sum, values))[-1])
        acc_sq = float(np.cumsum(np.append(acc_sq, values * values))[-1])
    mean = acc_sum / samples
    var = max(0.0, (acc_sq - samples * mean * mean) / (samples - 1))
    return EstimateResult(mean, math.sqrt(var / samples), "monte_carlo", samples, seed)


def f_exp(oracle, x, samples: int = 100_000, seed: int = 0) -> EstimateResult:
    """F(1 - e^{-x}): expected value of the independent-exponential rounding,
    estimated as multilinear_F estimates F."""
    m = oracle.m
    x = _validate_point(x, m)
    return multilinear_F(oracle, 1.0 - np.exp(-x), samples, seed)


@dataclass(frozen=True)
class ConcavityViolation:
    x: tuple[float, ...]
    y: tuple[float, ...]
    g_x: float
    g_y: float
    g_mid: float
    slack: float  # g_mid - (g_x + g_y)/2; negative when concavity fails

    def to_dict(self) -> dict:
        return {
            "x": list(self.x),
            "y": list(self.y),
            "g_x": self.g_x,
            "g_y": self.g_y,
            "g_mid": self.g_mid,
            "slack": self.slack,
        }


def random_pair_source(dim: int, trials: int, rng: np.random.Generator) -> np.ndarray:
    """(trials, 2, dim) pairs uniform on [0, 1]^dim; row t is (x_t, y_t),
    drawn in that order."""
    return rng.uniform(0.0, 1.0, size=(trials, 2, dim))


def concavity_probe(
    g: Callable[[np.ndarray], np.ndarray],
    pairs: np.ndarray,
) -> list[ConcavityViolation]:
    """Midpoint-concavity check of g over an (N, 2, dim) array of pairs.

    g maps an (M, dim) array of points to M values; it is called once, on
    every x, y and midpoint.  Returns the violations, in pair order.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must have shape (N, 2, dim), got {pairs.shape}")
    x, y = pairs[:, 0], pairs[:, 1]
    N = len(pairs)
    vals = np.asarray(g(np.concatenate([x, y, 0.5 * (x + y)])), dtype=float)
    gx, gy, gm = vals[:N], vals[N : 2 * N], vals[2 * N :]
    slack = gm - 0.5 * (gx + gy)
    bad = np.flatnonzero(slack < -_CONCAVITY_TOL)
    return [
        ConcavityViolation(
            tuple(x[i].tolist()), tuple(y[i].tolist()),
            float(gx[i]), float(gy[i]), float(gm[i]), float(slack[i]),
        )
        for i in bad.tolist()
    ]


_GRID_POINT_CAP = 5_000_000


def concavity_grid_scan(
    oracle, step: float = 0.1, stop_after: int | None = 1
) -> tuple[list[ConcavityViolation], int, int]:
    """Deterministic exhaustive midpoint scan of g over a coordinate grid.

    g(x) = F(1 - e^{-x}), with F the exact multilinear extension of
    `oracle`.  All grid values are tabulated up front (midpoints land on
    the half-step grid), then pairs are scanned in lexicographic order.
    Returns (violations, pairs_scanned, total_pairs).
    """
    if not 0.0 < step <= 1.0:  # NaN fails too
        raise ValueError(f"step must lie in (0, 1], got {step!r}")
    m = oracle.m
    K = round(1.0 / step)
    if abs(K * step - 1.0) > 1e-9:
        raise ValueError("step must divide 1 exactly (e.g. 0.1, 0.05)")
    n_coarse = K + 1
    n_fine = 2 * K + 1
    if n_fine**m > _GRID_POINT_CAP:
        raise GroundSetError(
            f"grid of {n_fine}^{m} points exceeds the scan cap; reduce m or coarsen step"
        )
    table = tabulate(oracle)

    # fine-grid coordinates in units of step/2
    fine_axes = np.arange(n_fine) * (step / 2.0)
    shape = (n_fine,) * m
    coords = np.indices(shape).reshape(m, -1).T  # (Nfine, m) ints
    pts = fine_axes[coords]  # (Nfine, m) floats
    p = 1.0 - np.exp(-pts)
    g_fine = np.zeros(len(p))
    for mask in range(1 << m):
        fv = table[mask]
        if fv == 0.0:
            continue
        term = np.ones(len(p)) * fv
        for j in range(m):
            term *= p[:, j] if (mask >> j) & 1 else 1.0 - p[:, j]
        g_fine += term

    # coarse grid = even fine coordinates
    strides = np.array([n_fine**j for j in range(m - 1, -1, -1)], dtype=np.int64)
    coarse_coords = np.indices((n_coarse,) * m).reshape(m, -1).T * 2  # in fine units
    coarse_flat = coarse_coords @ strides
    g_coarse = g_fine[coarse_flat]
    n_pts = len(coarse_coords)
    total_pairs = n_pts * (n_pts - 1) // 2

    violations: list[ConcavityViolation] = []
    scanned = 0
    axes_coarse = np.arange(n_coarse) * step
    for i in range(n_pts - 1):
        js = np.arange(i + 1, n_pts)
        mid_flat = ((coarse_coords[i] + coarse_coords[js]) // 2) @ strides
        slack = g_fine[mid_flat] - 0.5 * (g_coarse[i] + g_coarse[js])
        scanned += js.size
        bad = np.nonzero(slack < -_CONCAVITY_TOL)[0]
        for t in bad:
            j = int(js[t])
            xi = tuple(float(v) for v in axes_coarse[(coarse_coords[i] // 2)])
            yj = tuple(float(v) for v in axes_coarse[(coarse_coords[j] // 2)])
            violations.append(
                ConcavityViolation(
                    xi, yj, float(g_coarse[i]), float(g_coarse[j]),
                    float(g_fine[mid_flat[t]]), float(slack[t]),
                )
            )
            if stop_after is not None and len(violations) >= stop_after:
                return violations, scanned, total_pairs
    return violations, scanned, total_pairs

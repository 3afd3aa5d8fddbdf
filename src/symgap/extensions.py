"""Continuous extensions of set functions and concavity probes.

multilinear_F(x) = E[f(S)] with items included independently with
probabilities x; f_exp(x) = multilinear_F(1 - e^{-x}) is the value of the
independent-exponential rounding.  Both estimate by seeded Monte Carlo
sampling and report a standard error.  Exact values come from
exact_F_tabulated on small ground sets (a sum over the 2^m masks of a
tabulated oracle), and from exact_F_blockwise / f_exp_blockwise (a binomial
convolution over the two-block occupancy counts) on two-block valuations.

Every exact value is summed with ufunc reductions in a fixed order, never
through BLAS, so it depends neither on the BLAS kernel nor on how many
points share a call.  exact_F_blockwise has two branches.  With beta = 0
(every two_block_product valuation) nothing couples the two counts, so it
takes each block's mean of phi on its own.  The ramp phi(t) = min(t/alpha,
1) is linear below alpha and E[a/n] = p, so that mean is p/alpha less a sum
over the saturated counts only, about n (1 - alpha) pmf entries per point
and none at alpha = 1.  With beta > 0 the band couples the counts, so each
point sums its two pmf windows against the count values.

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
from .instances import TwoBlockValuation
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


def exact_F_tabulated(table: np.ndarray, points) -> np.ndarray:
    """The multilinear extension at each row of `points`, an (N, m) array of
    inclusion probabilities, of the set function whose values over the 2^m
    masks (bit j <-> item j) are `table`, as tabulate gives them.

    A point's value is a sum over the masks in increasing order of
    table[mask] times the item factors, p_j for an item in the mask and
    1 - p_j for one outside it.  Each product runs left to right from
    table[mask] over items 0..m-1, and the sum runs left to right
    (np.cumsum), so a point's value depends neither on the other points nor
    on the BLAS kernel.
    """
    table = np.asarray(table, dtype=float)
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or table.shape != (1 << points.shape[1],):
        raise GroundSetError(
            f"need (N, m) points and 2^m table values, got {points.shape} and {table.shape}"
        )
    out = np.empty(len(points))
    # a block's terms and their running sums: two 2^m-float rows per point
    step = block_rows(2 * 8 * table.size)
    for lo in range(0, len(points), step):
        p = points[lo : lo + step]
        terms = np.repeat(table[None], len(p), axis=0)
        for j in range(p.shape[1]):
            # item j's bit splits each run of 2^(j+1) masks into a half
            # without the item and a half with it
            halves = terms.reshape(len(p), -1, 2, 1 << j)
            halves *= np.stack([1.0 - p[:, j], p[:, j]], axis=1)[:, None, :, None]
        out[lo : lo + step] = np.cumsum(terms, axis=1)[:, -1]
    return out


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


@lru_cache(maxsize=64)
def _count_rows(n: int, lo: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only rows over the counts k = lo..n: k and n - k as floats, and
    log C(n, k).  With lo > 0 they are views of the rows _count_rows(n, 0).

    binom.pmf given the first row as its k reads all three as they are:
    no int-to-float cast per entry, no range check and no gather."""
    if not 0 <= lo <= n + 1:
        raise ValueError(f"counts must lie in [0, {n}]")
    if lo:
        return tuple(row[lo:] for row in _count_rows(n, 0))
    k = np.arange(n + 1, dtype=float)
    rows = (k, n - k, _log_binom_coeffs(n))
    for row in rows[:2]:
        row.flags.writeable = False
    return rows


def _binom_pmf(k, n: int, p, out: np.ndarray | None = None) -> np.ndarray:
    """Bin(n, p) pmf at k; k and p broadcast against each other like
    scipy.stats.binom.pmf, n is one integer.  p = 0 and p = 1 give exact
    one-hot values.  k is an integer count or array of counts, or the float
    row _count_rows(n, lo)[0] of the counts lo..n; `out`, when given, is an
    array of the broadcast shape that receives the pmf and is returned."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"counts must lie in [0, {n}]")
    if isinstance(k, np.ndarray) and k.dtype.kind == "f":
        rows = _count_rows(n, n + 1 - k.size)
        if k is not rows[0]:
            raise ValueError("float counts must be the row _count_rows(n, lo)[0]")
        _, n_minus_k, logc = rows
    else:
        k = np.asarray(k)
        if ((k < 0) | (k > n)).any():
            raise ValueError(f"counts must lie in [0, {n}]")
        n_minus_k, logc = n - k, _log_binom_coeffs(n)[k]
    p = np.asarray(p, dtype=float)
    if out is None:
        out = np.empty(np.broadcast_shapes(k.shape, p.shape))
    # (logc[k] + k log p) + (n - k) log1p(-p) in `out` and one temporary:
    # k log p + logc[k] is the same float as logc[k] + k log p
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(k, np.log(p), out=out)
        out += logc
        out += n_minus_k * np.log1p(-p)
        np.exp(out, out=out)
    for edge, count in ((0.0, 0), (1.0, n)):
        at_edge = p == edge
        if at_edge.any():
            np.copyto(out, k == count, where=at_edge)
    return out[()]


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
    pair gives a float, arrays give an array of their broadcast shape.  One
    of two branches computes it, with ufunc reductions and no BLAS call, so
    its values do not depend on the BLAS kernel, nor a point's value on the
    other points of its call:

    - beta = 0 (every two_block_product valuation), at any block size: no
      band couples the counts, so value(a, b) = lam * psi(a/n, b/n) and F =
      lam * (1 - (1 - E phi(a/n)) (1 - E phi(b/n))).  With phi(t) =
      min(t/alpha, 1) and E[a/n] = p, each one-block mean is
          E phi(a/n) = p/alpha - sum_{k : (k/n)/alpha > 1} P(k) ((k/n)/alpha - 1),
      a pmf over the about n (1 - alpha) saturated counts only: none at
      alpha = 1, where F = lam * (xA + xB - xA xB) with no pmf at all.  The
      points go a block at a time within setfn.BLOCK_BYTES.
      F(xA, xB) == F(xB, xA) bit for bit.
    - beta > 0: the band couples the counts, so each point sums the values
      of the counts in its retained pmf windows (count_values()), over b
      for each a and then over a.
    """
    xA, xB = np.broadcast_arrays(np.asarray(xA, dtype=float), np.asarray(xB, dtype=float))
    if not (((0.0 <= xA) & (xA <= 1.0)) & ((0.0 <= xB) & (xB <= 1.0))).all():
        raise GroundSetError("block probabilities must lie in [0, 1]")
    shape = xA.shape
    pa, pb = xA.ravel(), xB.ravel()
    out = np.empty(pa.size)
    n = block_val.block_size
    if block_val.beta == 0.0:
        # phi(t) = t/alpha - max(t/alpha - 1, 0) and E[a/n] = p, so E phi(a/n)
        # = p/alpha - sum over the saturated counts, (k/n)/alpha > 1, of
        # P(k) ((k/n)/alpha - 1): a pmf over about n (1 - alpha) counts
        alpha = block_val.phi.alpha
        ramp = _count_rows(n, 0)[0] / n / alpha
        saturated = int(np.searchsorted(ramp, 1.0, side="right"))
        ks = _count_rows(n, saturated)[0]
        excess = ramp[saturated:] - 1.0
        # per point, two saturated-count rows are live at once, a pmf and its
        # temporary, and at most five floats more: the two means and their
        # temporaries.  A row's sum against excess does not depend on its block
        step = block_rows(8 * (2 * ks.size + 5))
        pmf = np.empty((min(step, out.size), ks.size))
        means = np.empty((2, len(pmf)))
        for lo in range(0, out.size, step):
            rows, (ea, eb) = pmf[: out.size - lo], means[:, : out.size - lo]
            for p, mean in ((pa[lo : lo + step], ea), (pb[lo : lo + step], eb)):
                if ks.size:  # no count saturates at alpha = 1
                    binom.pmf(ks, n, p[:, None], out=rows)
                    rows *= excess
                np.add.reduce(rows, axis=1, out=mean)
                np.subtract(p / alpha, mean, out=mean)
            # psi = 1 - (1 - ea)(1 - eb) as ea + eb - ea eb: the sum is at least
            # half of ea + eb, so small values keep their relative accuracy
            np.multiply(block_val.lam, ea + eb - ea * eb, out=out[lo : lo + step])
    else:
        values = block_val.count_values()
        for i, (a, b) in enumerate(zip(pa.tolist(), pb.tolist())):
            ka, wa = _pmf_window(n, a)
            kb, wb = _pmf_window(n, b)
            rows = values(ka[:, None], kb[None, :]) * wb
            out[i] = np.add.reduce(wa * np.add.reduce(rows, axis=1))
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
    # stream is consumed in sample order whatever the block size.  The draw
    # and its inclusion bits are live at once: 9 bytes per item and sample
    step = block_rows(9 * m)
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
    g_fine = exact_F_tabulated(table, 1.0 - np.exp(-pts))

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

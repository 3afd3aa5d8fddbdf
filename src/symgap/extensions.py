"""Continuous extensions of set functions and concavity probes.

multilinear_F(x) = E[f(S)] with items included independently with
probabilities x; f_exp(x) = multilinear_F(1 - e^{-x}) is the value of the
independent-exponential rounding.  Three estimator modes:

  monte_carlo      seeded sampling, any ground size, stderr reported
  exact_enum       all 2^m inclusion patterns, m <= 24
  exact_blockwise  binomial convolution over the two-block occupancy counts,
                   exact for block-symmetric functions up to ~1e5 per block

The concavity probe evaluates midpoint inequalities g((x+y)/2) >=
(g(x)+g(y))/2 over a pair source; the grid scan is its deterministic
exhaustive counterpart for small ground sets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy.stats import binom

from .setfn import GroundSetError, tabulate, words_from_bits
from .instances import GRID_MAX_BLOCK, TwoBlockValuation
from .instances import _count_grid as _cached_count_grid  # perfbench reads its cache_info

_PMF_TAIL = 1e-16


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "monte_carlo"
    samples: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("monte_carlo", "exact_enum", "exact_blockwise"):
            raise ValueError(f"unknown estimator mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(frozen=True)
class EstimateResult:
    value: float
    stderr: float
    mode: str
    samples: int
    seed: int | None

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


def _pmf_window(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Binomial pmf restricted to indices carrying all but ~1e-16 of the mass."""
    ks = np.arange(n + 1)
    pmf = binom.pmf(ks, n, p)
    if n <= GRID_MAX_BLOCK:
        return ks, pmf
    keep = np.nonzero(pmf > _PMF_TAIL / (n + 1))[0]
    lo, hi = int(keep[0]), int(keep[-1]) + 1
    return ks[lo:hi], pmf[lo:hi]


def exact_F_blockwise(block_val: TwoBlockValuation, xA: float, xB: float) -> float:
    """Multilinear extension at the block-uniform point (xA on A, xB on B).

    Exact binomial convolution: F = sum_a sum_b Bin(|A|, xA)(a) Bin(|B|, xB)(b)
    * value(a, b).  Small blocks go through the shared count grid; large
    blocks map only the counts in the retained pmf windows to values.
    """
    if not 0.0 <= xA <= 1.0 or not 0.0 <= xB <= 1.0:
        raise GroundSetError("block probabilities must lie in [0, 1]")
    n = block_val.block_size
    if n <= GRID_MAX_BLOCK:
        grid = block_val.count_grid()
        pa = binom.pmf(np.arange(n + 1), n, xA)
        pb = binom.pmf(np.arange(n + 1), n, xB)
        return float(pa @ grid @ pb)
    ka, pa = _pmf_window(n, xA)
    kb, pb = _pmf_window(n, xB)
    return float(pa @ block_val.count_values()(ka[:, None], kb[None, :]) @ pb)


def f_exp_blockwise(block_val: TwoBlockValuation, xA: float, xB: float) -> float:
    """Exponential-rounding value at the block-uniform fractional point."""
    if xA < 0 or xB < 0:
        raise GroundSetError("fractional coordinates must be >= 0")
    return exact_F_blockwise(block_val, 1.0 - math.exp(-xA), 1.0 - math.exp(-xB))


def _block_uniform_coords(block_val: TwoBlockValuation, x: np.ndarray) -> tuple[float, float]:
    a_idx = block_val.A.indices()
    b_idx = block_val.B.indices()
    xa = x[a_idx]
    xb = x[b_idx]
    if xa.size and (np.abs(xa - xa[0]) > 1e-12).any():
        raise GroundSetError("exact_blockwise needs a block-uniform point on A")
    if xb.size and (np.abs(xb - xb[0]) > 1e-12).any():
        raise GroundSetError("exact_blockwise needs a block-uniform point on B")
    return float(xa[0]), float(xb[0])


def multilinear_F(oracle, x, config: EstimatorConfig | None = None) -> EstimateResult:
    """E[f(S)] under independent inclusion with probabilities x."""
    if config is None:
        config = EstimatorConfig()
    m = oracle.m
    x = _validate_point(x, m)

    if config.mode == "exact_enum":
        table = tabulate(oracle)
        value = float(enum_weights(x) @ table)
        return EstimateResult(value, 0.0, "exact_enum", 1 << m, None)

    if config.mode == "exact_blockwise":
        desc = getattr(oracle, "descriptor", None)
        if desc is None:
            raise GroundSetError("oracle carries no descriptor for blockwise mode")
        bv = TwoBlockValuation.from_descriptor(desc)
        xA, xB = _block_uniform_coords(bv, x)
        value = exact_F_blockwise(bv, xA, xB)
        return EstimateResult(value, 0.0, "exact_blockwise", 0, None)

    # monte_carlo: deterministic per (seed, workers) via per-worker substreams
    total = config.samples
    per_worker = [total // config.workers] * config.workers
    for i in range(total % config.workers):
        per_worker[i] += 1
    children = np.random.SeedSequence(config.seed).spawn(config.workers)
    acc_sum = 0.0
    acc_sq = 0.0
    for child, count in zip(children, per_worker):
        rng = np.random.default_rng(child)
        done = 0
        while done < count:
            batch = min(count - done, 1 << 11)
            bits = rng.random((batch, m)) < x
            # accumulate in sample order, as a scalar loop would
            for v in oracle.eval_many(words_from_bits(bits)).tolist():
                acc_sum += v
                acc_sq += v * v
            done += batch
    mean = acc_sum / total
    if total > 1:
        var = max(0.0, (acc_sq - total * mean * mean) / (total - 1))
        stderr = math.sqrt(var / total)
    else:
        stderr = float("inf")
    return EstimateResult(mean, stderr, "monte_carlo", total, config.seed)


def f_exp(oracle, x, config: EstimatorConfig | None = None) -> EstimateResult:
    """F(1 - e^{-x}): expected value of the independent-exponential rounding."""
    m = oracle.m
    x = _validate_point(x, m)
    return multilinear_F(oracle, 1.0 - np.exp(-x), config)


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


def random_pair_source(
    dim: int, trials: int, rng: np.random.Generator, low: float = 0.0, high: float = 1.0
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    for _ in range(trials):
        yield rng.uniform(low, high, size=dim), rng.uniform(low, high, size=dim)


def concavity_probe(
    g: Callable[[np.ndarray], float],
    pairs: Iterable[tuple[np.ndarray, np.ndarray]],
    tol: float = 1e-9,
    max_violations: int | None = None,
) -> tuple[list[ConcavityViolation], int]:
    """Midpoint-concavity check of g over a pair source.

    Returns (violations, pairs_checked); stops early once max_violations
    have been collected.
    """
    violations: list[ConcavityViolation] = []
    checked = 0
    for x, y in pairs:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        gx = float(g(x))
        gy = float(g(y))
        gm = float(g(0.5 * (x + y)))
        checked += 1
        slack = gm - 0.5 * (gx + gy)
        if slack < -tol:
            violations.append(
                ConcavityViolation(tuple(x), tuple(y), gx, gy, gm, slack)
            )
            if max_violations is not None and len(violations) >= max_violations:
                break
    return violations, checked


_GRID_POINT_CAP = 5_000_000


def concavity_grid_scan(
    oracle,
    step: float = 0.1,
    tol: float = 1e-9,
    transform: str = "exp",
    stop_after: int | None = 1,
    max_pairs: int | None = None,
) -> tuple[list[ConcavityViolation], int, int]:
    """Deterministic exhaustive midpoint scan of g over a coordinate grid.

    g is the exact multilinear extension of `oracle` (composed with the
    exponential reparametrization when transform='exp').  All grid values
    are tabulated up front (midpoints land on the half-step grid), then
    pairs are scanned in lexicographic order.  Returns
    (violations, pairs_scanned, total_pairs).
    """
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
    p = 1.0 - np.exp(-pts) if transform == "exp" else pts
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
    for i in range(n_pts):
        if max_pairs is not None and scanned >= max_pairs:
            break
        js = np.arange(i + 1, n_pts)
        if js.size == 0:
            continue
        if max_pairs is not None:
            js = js[: max_pairs - scanned]
        mid_flat = ((coarse_coords[i] + coarse_coords[js]) // 2) @ strides
        slack = g_fine[mid_flat] - 0.5 * (g_coarse[i] + g_coarse[js])
        scanned += js.size
        bad = np.nonzero(slack < -tol)[0]
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

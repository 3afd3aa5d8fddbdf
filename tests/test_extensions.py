"""Fractional extensions and the exponential rounding.

The blockwise engine is cross-checked against three independent paths: a
from-scratch subset enumeration (itertools over inclusion patterns), a
binomial pmf built by the multiplicative recurrence (no library calls), and plain
Monte-Carlo sampling.  The tabulated evaluator is checked against the same
enumeration and against the inclusion-pattern weights of reference_oracles.
"""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from symgap import setfn
from symgap.setfn import (
    GroundSetError, check_monotone_submodular, make_additive, make_budget_additive, pack,
    scale_oracle, tabulate,
)
from symgap.instances import (
    GRID_MAX_BLOCK, PhiAlpha, TwoBlockValuation, _count_grid, make_symgap_valuation,
    psi_tilde, two_block_product_instance,
)
from symgap.mechanisms import BalancedPrefixCPP
from symgap.extensions import (
    ConcavityViolation,
    concavity_grid_scan,
    concavity_probe,
    exact_F_blockwise,
    exact_F_tabulated,
    f_exp,
    f_exp_blockwise,
    multilinear_F,
    _count_rows,
    _log_binom_coeffs,
    _pmf_window,
    binom,
    random_pair_source,
)
from reference_oracles import binom_mean_exact, enum_weights

# frozen in the build notes before the engine existed: exact values of the
# two-block alpha=1/2 construction at blocks of 200
ONE_BLOCK_200 = 0.9999988664075135
MIDPOINT_200 = 0.9545954265557745


def binom_pmf_recurrence(n: int, p: float) -> list:
    """pmf via pmf(k+1) = pmf(k) (n-k)/(k+1) p/(1-p); no library calls."""
    if p == 0.0:
        return [1.0] + [0.0] * n
    if p == 1.0:
        return [0.0] * n + [1.0]
    pmf = [0.0] * (n + 1)
    pmf[0] = (1.0 - p) ** n
    ratio = p / (1.0 - p)
    for k in range(n):
        pmf[k + 1] = pmf[k] * (n - k) / (k + 1) * ratio
    return pmf


def binom_pmf_lgamma(n: int, p: float) -> np.ndarray:
    """pmf in log space through math.lgamma, one scalar term per count; for
    0 < p < 1, at sizes where the recurrence's (1-p)^n start underflows."""
    return np.array([
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * math.log(p) + (n - k) * math.log1p(-p))
        for k in range(n + 1)
    ])


def brute_force_F(oracle, x) -> float:
    m = oracle.m
    total = 0.0
    for bits in itertools.product((0, 1), repeat=m):
        w = 1.0
        for j, b in enumerate(bits):
            w *= x[j] if b else 1.0 - x[j]
        total += w * oracle.eval(pack(np.flatnonzero(bits), m))
    return total


class TestEnumWeights:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0, 1, 4)
        w = enum_weights(p)
        assert w.shape == (16,)
        assert w.sum() == pytest.approx(1.0)
        for mask in range(16):
            expect = 1.0
            for j in range(4):
                expect *= p[j] if (mask >> j) & 1 else 1 - p[j]
            assert w[mask] == pytest.approx(expect, abs=1e-15)


class TestExactFTabulated:
    @staticmethod
    def _case(m: int, seed: int):
        """A budget-additive oracle on m items, and ten points: four random
        corners of the cube, then six random interior points."""
        rng = np.random.default_rng(seed)
        w = rng.uniform(0, 0.3, m)
        oracle = make_budget_additive([float(v) for v in w], float(0.6 * w.sum()))
        corners = rng.integers(0, 2, (4, m)).astype(float)
        return oracle, np.concatenate([corners, rng.uniform(0, 1, (6, m))])

    @pytest.mark.parametrize("m", range(9))
    def test_matches_reference_weights_and_brute_force(self, m):
        oracle, points = self._case(m, m)
        table = tabulate(oracle)
        values = exact_F_tabulated(table, points)
        assert values.shape == (len(points),)
        for x, value in zip(points, values.tolist()):
            assert value == pytest.approx(float(enum_weights(x) @ table), rel=1e-13, abs=1e-15)
            assert value == pytest.approx(brute_force_F(oracle, x), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("m", [1, 5, 8])
    def test_sums_masks_then_items_in_order(self, m):
        """Bit for bit the sum over masks in increasing order, left to right
        from 0.0, of table[mask] times the item factors, left to right over
        items 0..m-1."""
        oracle, points = self._case(m, 10 + m)
        table = tabulate(oracle).tolist()
        expect = []
        for x in points.tolist():
            total = 0.0
            for mask, value in enumerate(table):
                term = value
                for j, p in enumerate(x):
                    term *= p if mask >> j & 1 else 1.0 - p
                total += term
            expect.append(total)
        np.testing.assert_array_equal(exact_F_tabulated(tabulate(oracle), points), expect)

    # one point a block, two points a block, and the default budget
    @pytest.mark.parametrize("block_bytes", [1, 2 * 2 * 8 * 2**6, setfn.BLOCK_BYTES])
    def test_point_value_does_not_depend_on_its_block(self, monkeypatch, block_bytes):
        oracle, points = self._case(6, 3)
        points = np.concatenate([points] * 5)
        single = [exact_F_tabulated(tabulate(oracle), x[None])[0] for x in points]
        monkeypatch.setattr(setfn, "BLOCK_BYTES", block_bytes)
        np.testing.assert_array_equal(exact_F_tabulated(tabulate(oracle), points), single)

    def test_rejects_mismatched_shapes(self):
        table = tabulate(make_additive([0.5, 0.25]))
        for points in (np.full(2, 0.5), np.full((3, 3), 0.5)):
            with pytest.raises(GroundSetError):
                exact_F_tabulated(table, points)


class TestMultilinearF:
    def test_exact_enum_matches_brute_force(self):
        rng = np.random.default_rng(2)
        w = rng.uniform(0, 0.3, 6)
        oracle = make_budget_additive([float(v) for v in w], float(0.5 * w.sum()))
        x = rng.uniform(0, 1, 6)
        value = exact_F_tabulated(tabulate(oracle), x[None])[0]
        assert value == pytest.approx(brute_force_F(oracle, x), abs=1e-12)

    def test_additive_extension_is_linear(self):
        w = [0.2, 0.5, 0.1]
        oracle = make_additive(w)
        x = np.array([0.3, 0.9, 0.5])
        value = exact_F_tabulated(tabulate(oracle), x[None])[0]
        assert value == pytest.approx(float(np.dot(w, x)))

    def test_monte_carlo_agrees_with_exact(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0, 0.3, 8)
        oracle = make_budget_additive([float(v) for v in w], float(0.6 * w.sum()))
        x = rng.uniform(0, 1, 8)
        exact = exact_F_tabulated(tabulate(oracle), x[None])[0]
        mc = multilinear_F(oracle, x, 40_000, 17)
        assert abs(mc.value - exact) <= 4 * mc.stderr + 1e-3

    def test_monte_carlo_deterministic_per_seed(self):
        oracle = make_additive([0.4, 0.3, 0.2])
        x = [0.5, 0.5, 0.5]
        a = multilinear_F(oracle, x, 5_000, 11)
        b = multilinear_F(oracle, x, 5_000, 11)
        assert a.value == b.value and a.stderr == b.stderr

    def test_point_validation(self):
        oracle = make_additive([0.5, 0.5])
        with pytest.raises(GroundSetError):
            multilinear_F(oracle, [0.5])
        with pytest.raises(GroundSetError):
            multilinear_F(oracle, [0.5, 1.5])
        # one sample has no standard error
        with pytest.raises(ValueError, match="samples must be >= 2"):
            multilinear_F(oracle, [0.5, 0.5], samples=1)


PMF_PS = (0.0, 1e-12, 0.37, 1.0 - 1e-12, 1.0)


class TestBinomPmf:
    @pytest.mark.parametrize("n", [8, 200])
    def test_matches_recurrence(self, n):
        rows = binom.pmf(np.arange(n + 1), n, np.array(PMF_PS)[:, None])
        assert rows.shape == (len(PMF_PS), n + 1)
        for p, row in zip(PMF_PS, rows):
            # the recurrence starts from (1-p)^n, which underflows for p near
            # 1: use Bin(n, p)(k) = Bin(n, 1-p)(n-k) there (1 - p is exact)
            if p <= 0.5:
                ref = binom_pmf_recurrence(n, p)
            else:
                ref = binom_pmf_recurrence(n, 1.0 - p)[::-1]
            np.testing.assert_allclose(row, ref, rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("n", [8, 200])
    def test_matches_exact_rational_pmf(self, n):
        # C(n, k) p^k (1-p)^(n-k) in exact rationals, rounded once; a pmf
        # whose log coefficients come from lgamma differences is off by ~2e-13
        for p in PMF_PS[1:-1] + (1.0 - math.exp(-1.0),):
            q = Fraction(p)
            exact = np.array([
                float(math.comb(n, k) * q**k * (1 - q) ** (n - k)) for k in range(n + 1)
            ])
            row = binom.pmf(np.arange(n + 1), n, p)
            normal = exact > 1e-300
            assert (np.abs(row - exact)[normal] <= 1e-13 * exact[normal]).all()

    def test_matches_lgamma_reference_above_grid_size(self):
        n = 1100
        for p in PMF_PS[1:-1]:
            row = binom.pmf(np.arange(n + 1), n, p)
            np.testing.assert_allclose(row, binom_pmf_lgamma(n, p), rtol=1e-11, atol=1e-300)

    @pytest.mark.parametrize("n", [8, 200, 1100])
    def test_rows_sum_to_one_and_edges_are_one_hot(self, n):
        rows = binom.pmf(np.arange(n + 1), n, np.array(PMF_PS)[:, None])
        assert np.abs(rows.sum(1) - 1.0).max() <= 1e-12
        one_hot = np.zeros(n + 1)
        one_hot[0] = 1.0
        assert (rows[0] == one_hot).all()
        assert (rows[-1] == one_hot[::-1]).all()
        assert (binom.pmf(np.arange(n + 1), n, 0.0) == one_hot).all()

    def test_broadcasts_k_against_p(self):
        p = np.array([[0.2], [0.7]])
        out = binom.pmf(np.array([0, 3, 5]), 5, p)
        assert out.shape == (2, 3)
        assert out[1, 2] == pytest.approx(0.7**5, rel=1e-14)
        assert binom.pmf(2, 4, 0.5) == pytest.approx(6 / 16, rel=1e-14)
        with pytest.raises(ValueError):
            binom.pmf(np.arange(7), 5, 0.5)

    @pytest.mark.parametrize("n", [1, 8, 200, 1100])
    def test_in_place_sum_equals_one_expression(self, n):
        """The pmf built in one array with out= gives the one-expression
        formula's entries bit for bit, for a row of points (also from the
        cached float row of counts into a caller's buffer), a 1-D row and
        scalars; a scalar pair gives a numpy scalar."""

        def one_expression(k, p):
            k, p = np.asarray(k), np.asarray(p, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.exp(_log_binom_coeffs(n)[k] + k * np.log(p) + (n - k) * np.log1p(-p))
            zero, one = p == 0.0, p == 1.0
            if zero.any() or one.any():
                out = np.where(zero, k == 0, np.where(one, k == n, out))
            return out

        def bits(values):
            return np.asarray(values, dtype=float).view(np.int64)

        ks = np.arange(n + 1)
        ps = np.concatenate(
            ([0.0, 1.0, 1e-300, 0.5, 1.0 - 2.0**-53], np.random.default_rng(n).uniform(0, 1, 40))
        )
        expect = bits(one_expression(ks, ps[:, None]))
        np.testing.assert_array_equal(bits(binom.pmf(ks, n, ps[:, None])), expect)
        # the cached float row of every count, written into a given buffer
        out = np.full((len(ps), n + 1), np.nan)
        binom.pmf(_count_rows(n)[0], n, ps[:, None], out=out)
        np.testing.assert_array_equal(bits(out), expect)
        for p in ps.tolist():
            np.testing.assert_array_equal(bits(binom.pmf(ks, n, p)), bits(one_expression(ks, p)))
            for k in (0, n // 2, n):
                value = binom.pmf(k, n, p)
                assert type(value) is np.float64
                assert bits(value) == bits(one_expression(k, p))


class TestBlockwise:
    def test_matches_enumeration_small_blocks(self):
        val = make_symgap_valuation(
            6,
            pack([0, 1, 2], 6),
            pack([3, 4, 5], 6),
            PhiAlpha(0.5),
            0.2,
        )
        oracle = val.oracle()
        rng = np.random.default_rng(4)
        for _ in range(10):
            xA, xB = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            x = np.array([xA] * 3 + [xB] * 3)
            assert exact_F_blockwise(val, xA, xB) == pytest.approx(
                brute_force_F(oracle, x), abs=1e-12
            )

    def test_matches_binomial_recurrence_at_scale(self):
        val = two_block_product_instance(200, 0.5)
        p = 1.0 - math.exp(-1.0)
        pmf = binom_pmf_recurrence(200, p)
        expect = sum(pmf[a] * min(a / 100.0, 1.0) for a in range(201))
        assert f_exp_blockwise(val, 1.0, 0.0) == pytest.approx(expect, abs=1e-12)

    def test_windowed_path_above_grid_size(self):
        """Blocks of 1100 evaluate only the pmf windows; the reference sums the
        full grid against a log-space pmf, since the recurrence's (1-p)^n
        start underflows to 0 at this n."""
        n = 1100
        ks = np.arange(n + 1)
        pmf = lambda p: binom_pmf_lgamma(n, p)
        A, B = pack(range(n), 2 * n), pack(range(n, 2 * n), 2 * n)
        for val in (
            two_block_product_instance(n, 0.5),
            make_symgap_valuation(2 * n, A, B, PhiAlpha(0.3), 0.05, 0.7),
        ):
            grid = val.lam * psi_tilde(val.phi, val.beta, ks[:, None] / n, ks[None, :] / n)
            for xA, xB in ((0.3, 0.7), (0.5, 0.5), (0.9, 0.1)):
                assert len(_pmf_window(n, xA)[0]) < n + 1
                expect = pmf(xA) @ grid @ pmf(xB)
                assert exact_F_blockwise(val, xA, xB) == pytest.approx(expect, rel=1e-9)

    @pytest.mark.parametrize("n", [8, 200, 1100])
    def test_batch_matches_scalar_calls(self, n):
        A, B = pack(range(n), 2 * n), pack(range(n, 2 * n), 2 * n)
        rng = np.random.default_rng(n)
        xA = np.concatenate([[0.0, 1.0, 0.0, 1.0, 0.5], rng.uniform(0, 1, 40)])
        xB = np.concatenate([[0.0, 0.0, 1.0, 1.0, 0.5], rng.uniform(0, 1, 40)])
        for val in (
            two_block_product_instance(n, 0.5),
            make_symgap_valuation(2 * n, A, B, PhiAlpha(0.3), 0.05, 0.7),
        ):
            batch = exact_F_blockwise(val, xA, xB)
            scalar = [exact_F_blockwise(val, a, b) for a, b in zip(xA.tolist(), xB.tolist())]
            assert all(type(v) is float for v in scalar)
            np.testing.assert_array_equal(batch, scalar)
            grid = exact_F_blockwise(val, xA.reshape(5, 9), xB.reshape(5, 9))
            np.testing.assert_array_equal(grid, batch.reshape(5, 9))
            exp_batch = f_exp_blockwise(val, xA, xB)
            exp_scalar = [f_exp_blockwise(val, a, b) for a, b in zip(xA.tolist(), xB.tolist())]
            np.testing.assert_allclose(exp_batch, exp_scalar, rtol=1e-14, atol=0)

    # one point a block, 8 * 9 * 700 bytes (350 points a block with beta =
    # 0), and the default budget (one block of the 5,000 points).  A
    # band-free point sums its pmf rows with ufunc reductions, row by row,
    # and a banded point sums its own pmf windows, so neither value depends
    # on its block.
    @pytest.mark.parametrize("block_bytes", [1, 8 * 9 * 700, setfn.BLOCK_BYTES])
    def test_batch_spans_several_chunks(self, monkeypatch, block_bytes):
        A, B = pack(range(8), 16), pack(range(8, 16), 16)
        band_free = two_block_product_instance(8, 0.5)
        banded = make_symgap_valuation(16, A, B, PhiAlpha(0.5), 0.25, 0.7)
        rng = np.random.default_rng(3)
        xA, xB = rng.uniform(0, 1, (2, 5000))
        scalar = {
            val: [exact_F_blockwise(val, a, b) for a, b in zip(xA.tolist(), xB.tolist())]
            for val in (band_free, banded)
        }
        monkeypatch.setattr(setfn, "BLOCK_BYTES", block_bytes)
        for val in (band_free, banded):
            np.testing.assert_array_equal(exact_F_blockwise(val, xA, xB), scalar[val])

    @pytest.mark.parametrize("alpha, lam", [(0.5, 1.0), (1.0, 0.7)])
    def test_band_free_matches_exact_one_block_sums(self, alpha, lam):
        """With beta = 0 the blocks are summed one at a time: F = lam (1 - (1 -
        E phi(a/n)) (1 - E phi(b/n))).  Against those sums in exact
        rationals at n = 200, at gap955's segment points, the endpoints,
        values near 0 and random points, the error is the pmf's own (~3e-14
        relative per entry)."""
        n = 200
        val = TwoBlockValuation(
            2 * n, pack(range(n), 2 * n), pack(range(n, 2 * n), 2 * n), PhiAlpha(alpha), 0.0, lam
        )
        phis = [min(k / n / alpha, 1.0) for k in range(n + 1)]
        ts = np.arange(21) / 20.0
        rng = np.random.default_rng(5)
        # 1 - (1 - ea)(1 - eb) would lose 7 digits at (1e-9, 0)
        xA = np.concatenate(
            [1.0 - np.exp(ts - 1.0), [0.0, 1.0, 0.0, 1e-9, 1e-6], rng.uniform(0, 1, 8)]
        )
        xB = np.concatenate([1.0 - np.exp(-ts), [0.0, 0.0, 1.0, 0.0, 1e-7], rng.uniform(0, 1, 8)])
        mean = {p: binom_mean_exact(phis, n, p) for p in set(xA.tolist() + xB.tolist())}
        expect = [
            float(Fraction(lam) * (1 - (1 - mean[a]) * (1 - mean[b])))
            for a, b in zip(xA.tolist(), xB.tolist())
        ]
        np.testing.assert_allclose(exact_F_blockwise(val, xA, xB), expect, rtol=3e-14, atol=0)

    @pytest.mark.parametrize("n", [8, 200, 1100])
    def test_band_free_matches_the_grid_contraction(self, n):
        """The one-block sums agree with the two-block contraction pmf @
        grid @ pmf over the count grid lam * psi(a/n, b/n) to 1e-13."""
        val = two_block_product_instance(n, 0.5)
        ks = np.arange(n + 1)
        grid = psi_tilde(val.phi, 0.0, ks[:, None] / n, ks[None, :] / n)
        rng = np.random.default_rng(n)
        xA = np.concatenate([[0.0, 1.0, 0.5], rng.uniform(0, 1, 12)])
        xB = np.concatenate([[1.0, 0.0, 0.5], rng.uniform(0, 1, 12)])
        pmf = lambda p: binom.pmf(ks, n, p[:, None])
        expect = ((pmf(xA) @ grid) * pmf(xB)).sum(1)
        np.testing.assert_allclose(exact_F_blockwise(val, xA, xB), expect, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("n", [8, 200])
    def test_banded_matches_the_grid_contraction(self, n):
        """The windowed sums of a beta > 0 valuation agree with the full
        contraction pmf @ grid @ pmf over its count grid to 1e-13, as the
        band-free sums do: the windows drop under 1e-16 of each pmf's mass."""
        A, B = pack(range(n), 2 * n), pack(range(n, 2 * n), 2 * n)
        val = make_symgap_valuation(2 * n, A, B, PhiAlpha(0.3), 0.05, 0.7)
        ks = np.arange(n + 1)
        rng = np.random.default_rng(n)
        xA = np.concatenate([[0.0, 1.0, 0.5, 1e-9], rng.uniform(0, 1, 12)])
        xB = np.concatenate([[1.0, 0.0, 0.5, 0.0], rng.uniform(0, 1, 12)])
        pmf = lambda p: binom.pmf(ks, n, p[:, None])
        expect = ((pmf(xA) @ val.count_grid()) * pmf(xB)).sum(1)
        np.testing.assert_allclose(exact_F_blockwise(val, xA, xB), expect, rtol=1e-13, atol=0)

    def test_band_free_is_symmetric_bit_for_bit(self):
        """F(xA, xB) == F(xB, xA) to the bit on the product instance, at
        gap955's segment points and at random pairs."""
        val = two_block_product_instance(200, 0.5)
        ts = np.arange(21) / 20.0
        xA = np.concatenate([1.0 - ts, np.random.default_rng(7).uniform(0, 1, 40)])
        xB = np.concatenate([ts, np.random.default_rng(8).uniform(0, 1, 40)])
        np.testing.assert_array_equal(
            f_exp_blockwise(val, xA, xB), f_exp_blockwise(val, xB, xA)
        )
        assert exact_F_blockwise(val, 1.0, 0.0) == exact_F_blockwise(val, 0.0, 1.0)

    def test_float_blocks_stay_within_the_budget(self):
        """A block that a caller builds holds at most about setfn.BLOCK_BYTES
        at once, whatever the number of points, samples, triples or
        prefixes: 30,000 points at n = 200 on a warm grid, 600 samples at
        m = 4,000, and 2,000 sampled triples and 20,000 balanced prefixes
        at m = 40,000 each peak under two blocks, as do 5,000 points of a
        tabulated extension at m = 8.  A count grid, built a block of rows
        at a time, peaks under its own bytes and 1.5 blocks."""
        val = two_block_product_instance(200, 0.5)
        val.count_grid()
        xA, xB = np.random.default_rng(3).uniform(0, 1, (2, 30_000))
        table = tabulate(make_additive([0.1] * 8))
        points = np.random.default_rng(4).uniform(0, 1, (5_000, 8))
        oracle = two_block_product_instance(2000, 0.5).oracle()
        x = np.full(oracle.m, 0.5)
        wide = two_block_product_instance(20_000, 0.5).oracle()
        # the first np.unique of a process imports what it needs (about 1 MB)
        BalancedPrefixCPP().allocate([wide], 2, np.random.default_rng(0))

        def peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for call in (
            lambda: exact_F_blockwise(val, xA, xB),
            lambda: exact_F_tabulated(table, points),
            lambda: multilinear_F(oracle, x, 600, seed=1),
            lambda: check_monotone_submodular(wide, "sampled", 2000, np.random.default_rng(1)),
            lambda: BalancedPrefixCPP().allocate([wide], 20_000, np.random.default_rng(2)),
        ):
            assert peak(call) < 2 * setfn.BLOCK_BYTES
        for n in (200, GRID_MAX_BLOCK):
            _count_grid.cache_clear()
            grid_bytes = 8 * (n + 1) ** 2
            built = peak(lambda: _count_grid(n, PhiAlpha(0.5), 0.0, 1.0))
            assert built < grid_bytes + 1.5 * setfn.BLOCK_BYTES

    @pytest.mark.parametrize("n", [8, 1100])
    def test_out_of_range_element_anywhere_raises(self, n):
        val = two_block_product_instance(n, 0.5)
        ok = np.full(6, 0.5)
        for bad in (1.5, -0.1, float("nan")):
            for pos in (0, 3, 5):
                xs = ok.copy()
                xs[pos] = bad
                with pytest.raises(GroundSetError):
                    exact_F_blockwise(val, xs, ok)
                with pytest.raises(GroundSetError):
                    exact_F_blockwise(val, ok, xs)
        with pytest.raises(GroundSetError):
            f_exp_blockwise(val, [0.5, 2.0, -1e-9], 0.5)
        with pytest.raises(GroundSetError):
            f_exp_blockwise(val, 0.5, np.array([[0.5, 3.0], [-0.5, 0.1]]))

    def test_frozen_gap_constants(self):
        val = two_block_product_instance(200, 0.5)
        assert f_exp_blockwise(val, 1.0, 0.0) == pytest.approx(ONE_BLOCK_200, abs=1e-12)
        assert f_exp_blockwise(val, 0.5, 0.5) == pytest.approx(MIDPOINT_200, abs=1e-12)

    def test_degenerate_points(self):
        val = make_symgap_valuation(
            4,
            pack([0, 1], 4),
            pack([2, 3], 4),
            PhiAlpha(0.5),
            0.1,
        )
        assert f_exp_blockwise(val, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
        # at xA = 1, xB = 0 the rounded set is exactly A w.p. 1 - e^{-1} per item
        p = 1.0 - math.exp(-1.0)
        pmf = binom_pmf_recurrence(2, p)
        from test_instances import ref_psi_tilde

        expect = sum(pmf[a] * ref_psi_tilde(0.5, 0.1, a / 2, 0.0) for a in range(3))
        assert f_exp_blockwise(val, 1.0, 0.0) == pytest.approx(expect, abs=1e-14)

    def test_blockwise_vs_monte_carlo_composition(self):
        val = make_symgap_valuation(
            16,
            pack(range(8), 16),
            pack(range(8, 16), 16),
            PhiAlpha(0.5),
            0.25,
        )
        exact = f_exp_blockwise(val, 0.5, 0.5)
        res = f_exp(val.oracle(), np.full(16, 0.5), 60_000, 5)
        assert abs(res.value - exact) <= 3 * res.stderr + 1e-9

    def test_rejects_negative_coordinates(self):
        val = two_block_product_instance(3, 0.5)
        with pytest.raises(GroundSetError):
            f_exp_blockwise(val, -0.1, 0.5)


class TestConcavity:
    def test_alpha_one_probe_clean(self):
        val = two_block_product_instance(8, 1.0)
        g = lambda pts: f_exp_blockwise(val, pts[:, 0], pts[:, 1])
        rng = np.random.default_rng(6)
        assert concavity_probe(g, random_pair_source(2, 400, rng)) == []

    def test_alpha_half_engineered_violation(self):
        val = two_block_product_instance(200, 0.5)
        g = lambda pts: f_exp_blockwise(val, pts[:, 0], pts[:, 1])
        pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
        violations = concavity_probe(g, pairs)
        assert len(violations) == 1
        assert violations[0].slack <= -0.04

    def test_grid_scan_finds_budget_additive_violation(self):
        oracle = scale_oracle(make_budget_additive([1.0, 1.0, 1.0, 2.0], 2.0), 0.5)
        violations, scanned, total = concavity_grid_scan(oracle, step=0.1, stop_after=1)
        assert total == math.comb(11**4, 2)
        assert len(violations) == 1
        v = violations[0]
        # independently recompute the three values at the flagged pair
        def g(pt):
            x = 1.0 - np.exp(-np.asarray(pt))
            return brute_force_F(oracle, x)

        mid = g(0.5 * (np.array(v.x) + np.array(v.y)))
        assert mid - 0.5 * (g(v.x) + g(v.y)) == pytest.approx(v.slack, abs=1e-12)
        assert v.slack < -1e-9

    def test_grid_scan_clean_on_additive(self):
        oracle = make_additive([0.2, 0.3, 0.1])
        violations, scanned, total = concavity_grid_scan(oracle, step=0.5, stop_after=1)
        assert violations == []
        assert scanned == total

    def test_grid_scan_cap(self):
        oracle = make_additive([0.01] * 12)
        with pytest.raises(GroundSetError):
            concavity_grid_scan(oracle, step=0.1)

    def test_probe_is_one_batch_call_in_pair_order(self):
        # g(t) = t^2 has slack -(x-y)^2/4: pairs 1, 3 and 4 violate
        pairs = np.array([[0.2, 0.2], [0.1, 0.9], [0.5, 0.5], [0.3, 0.8], [0.0, 1.0]])[:, :, None]
        calls = []

        def g(pts):
            calls.append(pts.shape)
            return pts[:, 0] ** 2

        violations = concavity_probe(g, pairs)
        assert calls == [(15, 1)]
        assert [(v.x, v.y) for v in violations] == [
            ((0.1,), (0.9,)), ((0.3,), (0.8,)), ((0.0,), (1.0,))
        ]
        assert violations[1].slack == pytest.approx(-0.25 * 0.5**2, rel=1e-12)

    def test_pair_source_matches_per_pair_draws(self):
        pairs = random_pair_source(3, 1000, np.random.default_rng(np.random.SeedSequence((7, 1))))
        rng = np.random.default_rng(np.random.SeedSequence((7, 1)))
        for x, y in pairs:
            assert (x == rng.uniform(0.0, 1.0, size=3)).all()
            assert (y == rng.uniform(0.0, 1.0, size=3)).all()

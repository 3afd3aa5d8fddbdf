"""Hard-instance families.

The reference values below are computed by straight-line reimplementations
of the defining formulas (inline in each test), independent of the package
code paths under test.
"""
import math

import numpy as np
import pytest

from symgap.setfn import (
    GroundSetError,
    OracleContractError,
    check_monotone_submodular,
    pack,
)
from symgap.instances import (
    AuctionInstance,
    CPPInstance,
    CPPLevelParams,
    PhiAlpha,
    PhiTable,
    TwoBlockValuation,
    _count_grid,
    expected_union_size,
    make_symgap_valuation,
    psi,
    psi_tilde,
    random_cpp_instance,
    sample_bisection_sequence,
    two_block_product_instance,
)
from reference_oracles import mask_of, row_of


def ref_phi(alpha, t):
    return min(t / alpha, 1.0)


def ref_psi(alpha, x, y):
    return 1.0 - (1.0 - ref_phi(alpha, x)) * (1.0 - ref_phi(alpha, y))


def ref_psi_tilde(alpha, beta, x, y):
    # three-case band construction, written out independently
    if abs(x - y) <= beta:
        mid = (x + y) / 2.0
        return ref_psi(alpha, mid, mid)
    if x - y > beta:
        return ref_psi(alpha, x - beta / 2.0, y + beta / 2.0)
    return ref_psi(alpha, x + beta / 2.0, y - beta / 2.0)


class TestPhi:
    def test_phi_alpha_values(self):
        assert PhiAlpha(0.5).value(0.25) == pytest.approx(0.5)
        assert PhiAlpha(0.5).value(0.5) == pytest.approx(1.0)
        assert PhiAlpha(0.5).value(0.9) == pytest.approx(1.0)
        assert PhiAlpha(1.0).value(0.3) == pytest.approx(0.3)

    def test_phi_alpha_vectorized(self):
        t = np.linspace(0, 1, 11)
        np.testing.assert_allclose(PhiAlpha(0.5).value(t), np.minimum(2 * t, 1.0))

    def test_phi_alpha_domain(self):
        with pytest.raises(OracleContractError):
            PhiAlpha(0.0)
        with pytest.raises(OracleContractError):
            PhiAlpha(1.5)

    def test_phi_table_interpolates_concave_knots(self):
        tab = PhiTable((0.0, 0.5, 1.0), (0.0, 0.8, 1.0))
        assert tab.value(0.25) == pytest.approx(0.4)
        assert tab.value(0.75) == pytest.approx(0.9)
        assert tab.value(1.0) == pytest.approx(1.0)

    def test_phi_table_rejects_nonconcave(self):
        with pytest.raises(OracleContractError):
            PhiTable((0.0, 0.5, 1.0), (0.0, 0.2, 1.0))  # convex kink

    def test_phi_table_rejects_unnormalized(self):
        with pytest.raises(OracleContractError):
            PhiTable((0.0, 1.0), (0.1, 1.0))


class TestPsi:
    def test_psi_against_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            alpha = float(rng.uniform(0.1, 1.0))
            x, y = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert psi(PhiAlpha(alpha), x, y) == pytest.approx(
                ref_psi(alpha, x, y), abs=1e-15
            )

    def test_psi_absorbs_at_one(self):
        for y in (0.0, 0.3, 1.0):
            assert psi(PhiAlpha(0.5), 1.0, y) == pytest.approx(1.0)

    def test_psi_quarter_point(self):
        # phi_{1/2}: psi(1/4, 1/4) = 1 - (1 - 1/2)^2 = 0.75
        assert psi(PhiAlpha(0.5), 0.25, 0.25) == pytest.approx(0.75)


class TestPsiTilde:
    def test_three_cases_against_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            alpha = float(rng.uniform(0.2, 1.0))
            beta = float(rng.uniform(0.01, 0.4))
            x, y = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert psi_tilde(PhiAlpha(alpha), beta, x, y) == pytest.approx(
                ref_psi_tilde(alpha, beta, x, y), abs=1e-15
            )

    def test_diagonal_reduces_to_psi(self):
        assert psi_tilde(PhiAlpha(0.5), 0.1, 0.3, 0.3) == pytest.approx(
            ref_psi(0.5, 0.3, 0.3)
        )

    def test_beta_zero_degenerates_to_psi(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            assert psi_tilde(PhiAlpha(0.5), 0.0, x, y) == pytest.approx(
                ref_psi(0.5, x, y), abs=1e-15
            )

    def test_continuity_at_band_edges(self):
        phi = PhiAlpha(0.5)
        for x in np.linspace(0.2, 0.9, 15):
            inside = psi_tilde(phi, 0.1, float(x), float(x) - 0.1)
            outside = psi_tilde(phi, 0.1, float(x), float(x) - 0.1 - 1e-12)
            assert abs(inside - outside) < 1e-9

    def test_band_value_depends_on_sum_only(self):
        phi = PhiAlpha(0.7)
        a = psi_tilde(phi, 0.2, 0.45, 0.35)
        b = psi_tilde(phi, 0.2, 0.5, 0.3)
        assert a == pytest.approx(b, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        phi = PhiAlpha(0.5)
        xs = np.linspace(0, 1, 23)
        ys = np.linspace(1, 0, 23)
        vec = psi_tilde(phi, 0.1, xs, ys)
        for i in range(23):
            assert vec[i] == pytest.approx(psi_tilde(phi, 0.1, float(xs[i]), float(ys[i])))


class TestTwoBlockValuation:
    def test_from_descriptor_rejects_other_kinds(self):
        with pytest.raises(GroundSetError):
            TwoBlockValuation.from_descriptor({"kind": "additive", "params": {}})

    def test_eval_depends_only_on_occupancies(self):
        A, B = pack([0, 1, 2], 8), pack([3, 4, 5], 8)
        val = make_symgap_valuation(8, A, B, PhiAlpha(0.5), 0.2)
        oracle = val.oracle()
        # items 6, 7 are outside A ∪ B and contribute nothing
        assert oracle.eval(pack([0, 6, 7], 8)) == pytest.approx(oracle.eval(pack([2], 8)))

    def test_eval_matches_psi_tilde_of_counts(self):
        A, B = pack([0, 1, 2, 3], 8), pack([4, 5, 6, 7], 8)
        val = make_symgap_valuation(8, A, B, PhiAlpha(0.5), 0.25)
        oracle = val.oracle()
        rng = np.random.default_rng(6)
        for _ in range(60):
            mask = int(rng.integers(0, 256))
            a = bin(mask & mask_of(A)).count("1")
            b = bin(mask & mask_of(B)).count("1")
            assert oracle.eval(row_of(mask, 8)) == pytest.approx(
                ref_psi_tilde(0.5, 0.25, a / 4, b / 4), abs=1e-14
            )

    def test_block_saturation_values(self):
        A, B = pack([0, 1], 4), pack([2, 3], 4)
        val = make_symgap_valuation(4, A, B, PhiAlpha(0.5), 0.1)
        oracle = val.oracle()
        assert oracle.eval(A) == pytest.approx(ref_psi_tilde(0.5, 0.1, 1.0, 0.0))
        assert oracle.eval(A | B) == pytest.approx(1.0)

    def test_scaled_valuation(self):
        A, B = pack([0, 1], 4), pack([2, 3], 4)
        lam = 0.37
        val = make_symgap_valuation(4, A, B, PhiAlpha(0.5), 0.1, lam)
        plain = make_symgap_valuation(4, A, B, PhiAlpha(0.5), 0.1)
        for mask in range(16):
            assert val.oracle().eval(row_of(mask, 4)) == pytest.approx(
                lam * plain.oracle().eval(row_of(mask, 4)), abs=1e-15
            )
        with pytest.raises(OracleContractError):
            make_symgap_valuation(4, A, B, PhiAlpha(0.5), 0.1, -0.5)

    def test_count_grid_matches_direct(self):
        A, B = pack([0, 1, 2], 6), pack([3, 4, 5], 6)
        val = make_symgap_valuation(6, A, B, PhiAlpha(0.5), 0.2)
        grid = val.count_grid()
        assert grid.shape == (4, 4)
        for a in range(4):
            for b in range(4):
                assert grid[a, b] == pytest.approx(ref_psi_tilde(0.5, 0.2, a / 3, b / 3))

    def test_bisections_of_one_size_share_one_read_only_grid(self):
        m = 12
        halves = [(range(6), range(6, 12)), (range(0, 12, 2), range(1, 12, 2))]
        vals = [
            make_symgap_valuation(m, pack(a, m), pack(b, m), PhiAlpha(0.5), 0.1, 0.8)
            for a, b in halves
        ]
        _count_grid.cache_clear()
        grid = vals[0].count_grid()
        assert vals[1].count_grid() is grid
        vals[1].oracle()
        info = _count_grid.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        assert grid[0, 0] == 0.0

    def test_construction_validation(self):
        A = pack([0, 1], 6)
        with pytest.raises(OracleContractError):
            make_symgap_valuation(6, A, pack([1, 2], 6), PhiAlpha(0.5), 0.1)
        with pytest.raises(OracleContractError):
            make_symgap_valuation(6, A, pack([2, 3, 4], 6), PhiAlpha(0.5), 0.1)
        with pytest.raises(OracleContractError):
            make_symgap_valuation(6, A, pack([2, 3], 6), PhiAlpha(0.5), 0.0)
        with pytest.raises(GroundSetError):  # a block with a bit outside [0, m)
            make_symgap_valuation(6, A, pack([2, 6], 7), PhiAlpha(0.5), 0.1)

    def test_beta_zero_allowed_for_product_instance(self):
        val = two_block_product_instance(3, 0.5)
        assert val.beta == 0.0
        oracle = val.oracle()
        # product of two saturating block functions
        assert oracle.eval(pack([0, 1], 6)) == pytest.approx(1.0)

    def test_pointwise_floor_all_sets(self):
        # f(R) >= phi(|R ∩ A|/|A| - beta) over every subset
        A, B = pack([0, 1, 2], 6), pack([3, 4, 5], 6)
        for beta in (0.05, 0.25):
            oracle = make_symgap_valuation(6, A, B, PhiAlpha(0.5), beta).oracle()
            for mask in range(64):
                x = bin(mask & mask_of(A)).count("1") / 3
                assert oracle.eval(row_of(mask, 6)) >= ref_phi(0.5, max(x - beta, 0.0)) - 1e-12


class TestBisection:
    @pytest.mark.parametrize("m", [2, 130, 400])
    def test_structure_invariants(self, m):
        A, B = sample_bisection_sequence(m, np.random.default_rng(8))
        A, B = mask_of(A), mask_of(B)
        assert A.bit_count() == B.bit_count() == m // 2
        assert (A & B) == 0
        assert (A | B) == (1 << m) - 1

    @pytest.mark.parametrize("m", [0, 1, 3, 31])
    def test_odd_or_tiny_m_rejected(self, m):
        with pytest.raises(GroundSetError):
            sample_bisection_sequence(m, np.random.default_rng(0))

    @pytest.mark.parametrize("m", [2, 130, 400])
    def test_same_stream_as_list_shuffles(self, m):
        # the list-and-int-mask form the packed rows replaced
        rng, ref_rng = np.random.default_rng(m), np.random.default_rng(m)
        halves = sample_bisection_sequence(m, rng)
        perm = [int(i) for i in ref_rng.permutation(m)]
        expected = [sum(1 << j for j in perm[: m // 2]), sum(1 << j for j in perm[m // 2 :])]
        assert halves.shape == (2, -(-m // 64))
        assert [mask_of(halves[0]), mask_of(halves[1])] == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestLevelParams:
    def test_level_one_paper_parameters(self):
        p = CPPLevelParams(1)
        assert (p.m, p.k, p.n) == (400, 200, 2)
        assert p.beta == pytest.approx(0.1)
        # beta = n m^{-1/2}
        assert p.beta == pytest.approx(p.n / math.sqrt(p.m))

    def test_level_two_paper_parameters(self):
        p = CPPLevelParams(2)
        assert (p.m, p.k, p.n) == (160_000, 40_000, 4)
        assert p.beta == pytest.approx(0.01)

    def test_level_three_refused(self):
        with pytest.raises((GroundSetError, OracleContractError)):
            CPPLevelParams(3)


class TestBasicAuction:
    def test_expected_union_closed_form(self):
        # E|union| = m (1 - (1 - 1/n)^n), independently: inclusion-exclusion per item
        for n, m in ((2, 4), (4, 16), (16, 160)):
            per_item = 1.0 - (1.0 - 1.0 / n) ** n
            assert expected_union_size(n, m) == pytest.approx(m * per_item)
            assert expected_union_size(n, m) > m / 2


class TestRandomInstances:
    def test_random_cpp_instance_contract(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            inst = random_cpp_instance(rng, m_max=12, k_max=4)
            assert isinstance(inst, CPPInstance)
            assert 0 < inst.k <= inst.m
            for o in inst.oracles:
                assert o.eval(pack((), inst.m)) == 0.0

    def test_small_instances_submodular(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            inst = random_cpp_instance(rng, m_max=8, k_max=3)
            for o in inst.oracles:
                assert check_monotone_submodular(o).passed


class TestInstanceContainers:
    def test_cpp_instance_validation(self):
        from symgap.setfn import make_additive

        o = make_additive([0.5, 0.5])
        with pytest.raises(GroundSetError):
            CPPInstance((o,), 3)
        assert CPPInstance((o,), 1).m == 2

    def test_auction_instance_validation(self):
        from symgap.setfn import make_additive

        with pytest.raises(OracleContractError):
            AuctionInstance(())
        with pytest.raises(GroundSetError):
            AuctionInstance((make_additive([0.5]), make_additive([0.5, 0.5])))

"""Hard-instance families.

The reference values below are computed by straight-line reimplementations
of the defining formulas (inline in each test), independent of the package
code paths under test.
"""
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    TwoBlockValuation,
    _count_grid,
    expected_union_size,
    extension_answers,
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

    @example(n=4, a=3, b=1, beta=0.5, on_edge=False, alpha=0.5, lam=1.0)
    @example(n=10, a=7, b=2, beta=0.0, on_edge=True, alpha=1.0, lam=0.7)
    @settings(max_examples=500, deadline=None)
    @given(
        n=st.integers(1, 200_000),
        a=st.integers(0, 200_000),
        b=st.integers(0, 200_000),
        beta=st.one_of(st.just(0.0), st.just(0.01), st.floats(0.0, 1.0)),
        on_edge=st.booleans(),
        alpha=st.floats(1e-3, 1.0),
        lam=st.floats(0.0, 10.0),
    )
    def test_scalar_path_equals_array_path_bit_for_bit(self, n, a, b, beta, on_edge, alpha, lam):
        """lam * psi_tilde at the occupancy fractions of counts (a, b), as a
        two-block oracle above GRID_MAX_BLOCK asks for it: two floats give a
        float with the bits of a one-entry array's value, on the band edge
        |x - y| = beta too."""
        a, b = a % (n + 1), b % (n + 1)
        x, y = a / n, b / n
        if on_edge:
            beta = abs(x - y)
        phi = PhiAlpha(alpha)
        scalar = lam * psi_tilde(phi, beta, x, y)
        array = lam * psi_tilde(phi, beta, np.array([x]), np.array([y]))
        assert type(scalar) is float
        assert np.array([scalar]).view(np.int64)[0] == array.view(np.int64)[0]


@dataclass(frozen=True)
class ConvexRamp:
    """A planted profile defect: phi(t) = t^2 is normalized and increasing
    but convex, so psi on it is not submodular."""

    def value(self, t):
        return np.asarray(t, dtype=float) ** 2

    def to_param_dict(self) -> dict:
        return {"kind": "convex_ramp"}


class TestTwoBlockValuation:
    def test_from_descriptor_rejects_other_kinds(self):
        with pytest.raises(GroundSetError):
            TwoBlockValuation.from_descriptor({"kind": "additive", "params": {}})

    def test_from_descriptor_rejects_other_phi_kinds(self):
        desc = two_block_product_instance(3, 0.5).descriptor()
        assert TwoBlockValuation.from_descriptor(desc).phi == PhiAlpha(0.5)
        desc["params"]["phi"] = {"kind": "table", "knots_t": [0.0, 1.0], "knots_v": [0.0, 1.0]}
        with pytest.raises(ValueError, match="'table'"):
            TwoBlockValuation.from_descriptor(desc)

    @pytest.mark.parametrize("m", [4, 8, 10])
    def test_planted_nonconcave_profile_fails_the_structure_check(self, m):
        A, B = pack(range(0, m, 2), m), pack(range(1, m, 2), m)

        def check(phi):
            return check_monotone_submodular(TwoBlockValuation(m, A, B, phi, 0.0).oracle())

        planted = check(ConvexRamp())
        assert not planted.passed
        assert planted.submodular_violation_count > 0 and planted.monotone_violation_count == 0
        # the same blocks with the ramp profile pass
        assert check(PhiAlpha(1.0)).passed

    def test_eval_depends_only_on_occupancies(self):
        A, B = pack([0, 1, 2], 8), pack([3, 4, 5], 8)
        val = make_symgap_valuation(8, A, B, PhiAlpha(0.5), 0.2)
        oracle = val.oracle()
        # items 6, 7 are outside A ∪ B and contribute nothing
        assert oracle.eval(pack([0, 6, 7], 8)) == pytest.approx(oracle.eval(pack([2], 8)))

    def test_extension_classes_on_a_partial_last_word(self):
        """At m = 150 the last word holds 22 items; the row of the items
        outside both blocks covers exactly those items and no bit from m
        up, whatever the set asked about."""
        m = 150
        perm = np.random.default_rng(9).permutation(m)
        A, B = pack(perm[:50], m), pack(perm[50:100], m)
        val = make_symgap_valuation(m, A, B, PhiAlpha(0.5), 0.1)
        answer = extension_answers(val, val.count_values())
        blocks = mask_of(A) | mask_of(B)
        outside = ((1 << m) - 1) & ~blocks
        _, groups, found = answer(pack((), m))
        assert [mask_of(g) for g in groups] == [outside, blocks]
        assert found == [(50, 0, 0), (50, 1, 0), (50, 0, 1)]
        S = pack(perm[[0, 60, 100, 149]], m)
        _, groups, found = answer(S)
        assert [mask_of(g) for g in groups] == [outside & ~mask_of(S), blocks & ~mask_of(S)]
        assert found == [(48, 1, 1), (49, 2, 1), (49, 1, 2)]

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

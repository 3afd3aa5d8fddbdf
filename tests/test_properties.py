"""Property-based invariants over randomized inputs."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symgap.setfn import (
    compose_product,
    from_hex,
    intersection_sizes,
    make_additive,
    make_budget_additive,
    make_coverage,
    check_monotone_submodular,
    pack,
    to_hex,
    unpack,
)
from symgap.instances import PhiAlpha, psi, psi_tilde
from symgap.audit import quadrant_feasible_exact, separate_quadrant
from reference_oracles import enum_weights


idx_lists = st.lists(st.integers(min_value=0, max_value=9), max_size=10)


def _items(row) -> set[int]:
    return set(unpack(row, 10).tolist())


class TestRowAlgebra:
    """Sets are packed rows: the word-wise bit operators are the set algebra."""

    @given(idx_lists, idx_lists)
    def test_union_intersection_difference(self, a, b):
        A, B = pack(a, 10), pack(b, 10)
        sa, sb = set(a), set(b)
        assert _items(A | B) == sa | sb
        assert _items(A & B) == sa & sb
        assert _items(A & ~B) == sa - sb
        assert len(unpack(A, 10)) == len(sa)
        assert intersection_sizes(A[None], B).tolist() == [len(sa & sb)]

    @given(idx_lists)
    def test_complement_partitions(self, a):
        A = pack(a, 10)
        C = A ^ pack(range(10), 10)
        assert len(unpack(A, 10)) + len(unpack(C, 10)) == 10
        assert intersection_sizes(A[None], C).tolist() == [0]
        assert _items(A | C) == set(range(10))

    @given(idx_lists)
    def test_hex_roundtrip(self, a):
        A = pack(a, 10)
        assert (from_hex(to_hex(A, 10), 10) == A).all()


class TestPsiTildeProperties:
    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_bounds_and_symmetry(self, alpha, beta, x, y):
        phi = PhiAlpha(alpha)
        v = psi_tilde(phi, beta, x, y)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(psi_tilde(phi, beta, y, x), abs=1e-12)
        # smoothing never drops below the balanced-part floor
        assert v >= phi.value(max(min(x, y) - beta, 0.0)) - 1e-12

    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.0, max_value=0.98),
        st.floats(min_value=0.0, max_value=0.98),
        st.floats(min_value=0.001, max_value=0.02),
    )
    @settings(max_examples=300)
    def test_coordinatewise_monotone(self, alpha, beta, x, y, h):
        phi = PhiAlpha(alpha)
        assert psi_tilde(phi, beta, x + h, y) >= psi_tilde(phi, beta, x, y) - 1e-12
        assert psi_tilde(phi, beta, x, y + h) >= psi_tilde(phi, beta, x, y) - 1e-12

    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_psi_dominates_phi(self, alpha, x, y):
        phi = PhiAlpha(alpha)
        v = psi(phi, x, y)
        assert v >= phi.value(x) - 1e-12
        assert v >= phi.value(y) - 1e-12
        assert v <= 1.0 + 1e-12


class TestEnumWeights:
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_weights_form_distribution(self, p):
        w = enum_weights(np.array(p))
        assert w.shape == (2 ** len(p),)
        assert (w >= -1e-15).all()
        assert float(w.sum()) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
    )
    def test_marginals_recovered(self, p, j):
        j = j % len(p)
        w = enum_weights(np.array(p))
        masks = np.arange(2 ** len(p))
        marginal = float(w[(masks >> j) & 1 == 1].sum())
        assert marginal == pytest.approx(p[j], abs=1e-9)


class TestSeparationProperty:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-2, max_value=2, allow_nan=False),
                st.floats(min_value=-2, max_value=2, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
        st.floats(min_value=-2, max_value=2, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_branch_soundness(self, pts, q0, p0):
        res = separate_quadrant(pts, q0, p0)
        # both directions, against the exact oracle: an exactly reachable
        # quadrant gets a witness, and a witness reaches the quadrant grown by
        # twice the 1e-12 snap, within which separate_quadrant's float snapping decides
        witness = res.branch == "witness"
        assert quadrant_feasible_exact(pts, q0, p0, slack=0.0) <= witness
        assert witness <= quadrant_feasible_exact(pts, q0, p0, slack=2e-12)
        if res.branch == "witness":
            q = sum(w * pts[i][0] for i, w in zip(res.indices, res.weights))
            p = sum(w * pts[i][1] for i, w in zip(res.indices, res.weights))
            assert q >= q0 - 1e-9 and p <= p0 + 1e-9
        else:
            ref = res.lam_q * q0 - res.lam_p * p0
            for q, p in pts:
                assert res.lam_q * q - res.lam_p * p < ref


class TestCompositionSubmodularity:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_products_stay_submodular(self, data):
        m = data.draw(st.integers(min_value=2, max_value=5))
        w1 = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=m, max_size=m
            )
        )
        w2 = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0), min_size=m, max_size=m
            )
        )
        total = sum(w1) or 1.0
        f1 = make_additive([x / total for x in w1])
        cap = data.draw(st.floats(min_value=0.1, max_value=1.0))
        f2 = make_budget_additive([min(x, cap) for x in w2], cap)
        rng = np.random.default_rng(0)
        rep = check_monotone_submodular(
            compose_product(f1, f2), mode="exhaustive", rng=rng
        )
        assert rep.passed

    @given(st.integers(min_value=0, max_value=2**8 - 1))
    def test_coverage_exhaustive(self, seed_mask):
        cover = [[e for e in range(3) if (seed_mask >> (3 * j + e)) & 1] for j in range(2)]
        oracle = make_coverage([0.3, 0.4, 0.3], cover + [[0], [1, 2]])
        rng = np.random.default_rng(1)
        rep = check_monotone_submodular(oracle, mode="exhaustive", rng=rng)
        assert rep.passed

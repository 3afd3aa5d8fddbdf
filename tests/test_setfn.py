"""Oracle layer: packed-row sets, query-counted valuations, structure checks.

Expected values for the concrete families are recomputed inside the tests by
independent brute-force implementations (plain Python sets and loops), never
by calling the code under test twice.
"""
import json
import math
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from symgap import setfn
from symgap.setfn import (
    STRUCT_TOL,
    GroundSetError,
    OracleContractError,
    ValuationOracle,
    check_monotone_submodular,
    compose_product,
    make_additive,
    make_budget_additive,
    make_coverage,
    make_polar,
    scale_oracle,
    StructureReport,
    from_hex,
    pack,
    tabulate,
    to_hex,
    unpack,
    word_count,
)
from symgap.instances import (
    PhiAlpha,
    TwoBlockValuation,
    make_symgap_valuation,
    two_block_product_instance,
)
from reference_oracles import (
    mask_hex, mask_of, masks_from_words, oracle_from_scalar, row_of, scalar_value,
)

ROW_SIZES = (0, 1, 63, 64, 65, 130)
# (m, mask) with mask a subset of [0, m), for each m of ROW_SIZES
sized_masks = st.sampled_from(ROW_SIZES).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << m) - 1))
)


def _items(mask: int, m: int) -> list[int]:
    return [j for j in range(m) if mask >> j & 1]


class TestRows:
    """pack, unpack and the hex pair against the int-mask reference."""

    def test_roundtrip_indices(self):
        s = pack([0, 3, 7], 8)
        assert unpack(s, 8).tolist() == [0, 3, 7]
        assert mask_of(s) == 0b10001001

    @given(sized_masks)
    def test_pack_unpack_roundtrip(self, case):
        m, mask = case
        items = _items(mask, m)
        row = pack(items, m)
        assert row.dtype == np.uint64 and row.shape == (word_count(m),)
        assert mask_of(row) == mask
        assert unpack(row, m).tolist() == items
        # order and repeats do not matter
        assert mask_of(pack(items[::-1] + items, m)) == mask

    @given(sized_masks)
    def test_hex_matches_int_format(self, case):
        m, mask = case
        digits = to_hex(row_of(mask, m), m)
        assert digits == mask_hex(mask, m)
        assert mask_of(from_hex(digits, m)) == mask

    @pytest.mark.parametrize("m", ROW_SIZES)
    def test_from_hex_reads_any_digit_width(self, m):
        mask = (1 << m) - 1 if m < 64 else 1 << (m - 1) | 5
        for digits in (format(mask, "x"), "000" + format(mask, "x"), mask_hex(mask, m)):
            row = from_hex(digits, m)
            assert row.dtype == np.uint64 and row.shape == (word_count(m),)
            assert mask_of(row) == mask
        assert mask_of(from_hex("", m)) == 0

    def test_hex_roundtrip_wide_mask(self):
        m = 400
        s = pack([0, 399], m)
        assert (from_hex(to_hex(s, m), m) == s).all()

    @pytest.mark.parametrize("m", ROW_SIZES)
    def test_out_of_range_rejected(self, m):
        for j in (-1, m, m + 64):
            with pytest.raises(GroundSetError):
                pack([j], m)
        with pytest.raises(GroundSetError):
            from_hex(format(1 << m, "x"), m)
        if m % 64:  # a row with a bit at m
            with pytest.raises(GroundSetError):
                to_hex(pack([m], m + 1)[: word_count(m)], m)


class TestValuationOracle:
    def test_query_counting_thread_safe_counter(self):
        oracle = make_additive([0.1, 0.2])
        base = oracle.query_count
        oracle.eval(row_of(0b11, 2))
        oracle.eval(pack([0], 2))
        assert oracle.query_count == base + 2
        oracle.restricted_view().eval(pack([1], 2))  # a view's queries count on the oracle
        assert oracle.query_count == base + 3

    def test_wrapper_counts_stay_exact_under_threads(self):
        # more threads than cores, switching often: a lost update on any
        # counter of the wrapper tree would show in the totals
        f1, f2 = make_additive([0.01] * 70), make_budget_additive([0.2] * 70, 1.0)
        prod = compose_product(scale_oracle(f1, 0.5), f2)
        rows = np.zeros((3, word_count(70)), dtype=np.uint64)

        def ask():
            for _ in range(300):
                prod.eval_many(rows)
                prod.eval_extensions(rows[0])

        threads = [threading.Thread(target=ask) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [f.query_count for f in (prod, f1, f2)] == [8 * 300 * (3 + 70)] * 3

    def test_normalization_enforced(self):
        with pytest.raises(OracleContractError):
            oracle_from_scalar(2, lambda mask: 1.0, {"kind": "bad"})

    def test_query_outside_ground_set(self):
        oracle = make_additive([0.5])
        with pytest.raises(GroundSetError):
            oracle.eval(row_of(0b10, 2))
        with pytest.raises(GroundSetError):  # one row, not an int mask
            oracle.eval(1)

    def test_restricted_view_hides_descriptor(self):
        oracle = make_additive([0.5, 0.5])
        view = oracle.restricted_view()
        assert not hasattr(view, "descriptor")
        assert view.m == 2


class TestFamilies:
    def test_additive_against_direct_sum(self):
        w = [0.3, 0.1, 0.25, 0.05]
        oracle = make_additive(w)
        rng = np.random.default_rng(0)
        for _ in range(30):
            idx = [int(i) for i in rng.choice(4, size=rng.integers(0, 5), replace=False)]
            assert oracle.eval(pack(idx, 4)) == pytest.approx(
                sum(w[i] for i in idx), abs=1e-15
            )

    def test_budget_additive_caps(self):
        oracle = make_budget_additive([0.6, 0.6], 1.0)
        assert oracle.eval(pack([0], 2)) == pytest.approx(0.6)
        assert oracle.eval(pack([0, 1], 2)) == pytest.approx(1.0)

    def test_coverage_against_set_union(self):
        weights = [0.2, 0.5, 0.1, 0.4]
        cover = [[0, 1], [1, 2], [3]]
        oracle = make_coverage(weights, cover)
        rng = np.random.default_rng(1)
        for _ in range(20):
            idx = [int(i) for i in rng.choice(3, size=rng.integers(0, 4), replace=False)]
            covered = set()
            for i in idx:
                covered |= set(cover[i])
            expect = sum(weights[u] for u in covered)
            assert oracle.eval(pack(idx, 3)) == pytest.approx(expect, abs=1e-15)

    def test_polar_two_rates(self):
        oracle = make_polar(4, pack([0, 1], 4), 0.125)
        # v(S) = |A ∩ S| + omega |S \ A|
        assert oracle.eval(pack([0], 4)) == pytest.approx(1.0)
        assert oracle.eval(pack([2], 4)) == pytest.approx(0.125)
        assert oracle.eval(pack([0, 1, 2, 3], 4)) == pytest.approx(2.25)

    def test_polar_omega_domain(self):
        A = pack([0], 2)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(OracleContractError):
                make_polar(2, A, bad)

    def test_scale_oracle(self):
        oracle = scale_oracle(make_additive([0.4, 0.4]), 0.5)
        assert oracle.eval(pack([0, 1], 2)) == pytest.approx(0.4)
        with pytest.raises(OracleContractError):
            scale_oracle(oracle, -1.0)


class TestNaNInputs:
    """NaN compares False with 0, so a `x < 0` test lets it through and the
    structure check then passes on NaN values; every nonnegativity test
    rejects it instead."""

    NAN = float("nan")

    def test_nan_weight(self):
        with pytest.raises(OracleContractError):
            make_additive([self.NAN, 1.0, 0.5])
        with pytest.raises(OracleContractError):
            make_budget_additive([0.5, self.NAN], 1.0)

    def test_nan_budget(self):
        with pytest.raises(OracleContractError):
            make_budget_additive([0.5, 0.25], self.NAN)

    def test_nan_coverage_weight(self):
        with pytest.raises(OracleContractError):
            make_coverage([0.5, self.NAN], [[0], [1]])

    def test_nan_scale_factor(self):
        with pytest.raises(OracleContractError):
            scale_oracle(make_additive([0.5, 0.5]), self.NAN)

    def test_nan_at_the_empty_set(self):
        with pytest.raises(OracleContractError):
            oracle_from_scalar(2, lambda mask: self.NAN, {"kind": "bad"})
        A, B = pack([0], 2), pack([1], 2)
        for beta, lam in ((self.NAN, 1.0), (0.1, self.NAN)):
            with pytest.raises(OracleContractError):
                TwoBlockValuation(2, A, B, PhiAlpha(1.0), beta, lam).oracle()


class TestComposeProduct:
    def test_identity_formula(self):
        f1 = make_budget_additive([0.3, 0.5, 0.2], 0.8)
        f2 = make_additive([0.1, 0.2, 0.3])
        comp = compose_product(f1, f2)
        for mask in range(8):
            a, b = f1.eval(row_of(mask, 3)), f2.eval(row_of(mask, 3))
            assert comp.eval(row_of(mask, 3)) == pytest.approx(1 - (1 - a) * (1 - b), abs=1e-15)

    def test_one_query_per_component(self):
        f1 = make_additive([0.5, 0.5])
        f2 = make_additive([0.25, 0.25])
        comp = compose_product(f1, f2)
        q1, q2 = f1.query_count, f2.query_count
        comp.eval(pack([1], 2))
        assert (f1.query_count, f2.query_count) == (q1 + 1, q2 + 1)

    def test_rejects_range_violation(self):
        f1 = make_additive([0.9, 0.9])  # f(full) = 1.8 > 1
        f2 = make_additive([0.1, 0.1])
        with pytest.raises(OracleContractError):
            compose_product(f1, f2)

    def test_preserves_monotone_submodular(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w1 = rng.uniform(0, 0.2, 6)
            w2 = rng.uniform(0, 1, 6)
            f1 = make_additive([float(x) for x in w1])
            f2 = make_budget_additive([float(x) for x in w2], float(0.4 * w2.sum()))
            f2 = scale_oracle(f2, 1.0 / f2.eval(pack(range(6), 6)))
            rep = check_monotone_submodular(compose_product(f1, f2))
            assert rep.passed


class TestStructureCheck:
    def test_tabulate_indexing(self):
        oracle = make_additive([0.25, 0.5])
        table = tabulate(oracle)
        assert table.tolist() == [0.0, 0.25, 0.5, 0.75]

    def test_exhaustive_flags_planted_supermodular(self):
        # f(S) = (|S|/2)^2 is supermodular: marginal gains increase
        oracle = oracle_from_scalar(
            4, lambda mask: (mask.bit_count() / 2.0) ** 2, {"kind": "planted"}
        )
        rep = check_monotone_submodular(oracle)
        assert not rep.passed
        assert rep.submodular_violation_count > 0
        assert rep.monotone_violation_count == 0

    def test_exhaustive_flags_planted_nonmonotone(self):
        oracle = oracle_from_scalar(
            3, lambda mask: 1.0 - mask.bit_count() / 4.0 if mask else 0.0, {"kind": "planted"}
        )
        rep = check_monotone_submodular(oracle)
        assert rep.monotone_violation_count > 0

    def test_sampled_mode_consistent(self):
        oracle = make_budget_additive([0.2, 0.3, 0.1, 0.4, 0.15], 0.7)
        rep = check_monotone_submodular(
            oracle, mode="sampled", trials=2000, rng=np.random.default_rng(3)
        )
        assert rep.passed
        assert rep.checked > 0


def _reference_scan(oracle) -> StructureReport:
    """The exhaustive scan as a loop over items i and pairs i < j, one array
    pass each."""
    m = oracle.m
    table = tabulate(oracle)
    masks = np.arange(1 << m, dtype=np.int64)
    mono_count = sub_count = checked = 0
    for i in range(m):
        bit_i = 1 << i
        no_i = masks[(masks & bit_i) == 0]
        gain_i = table[no_i | bit_i] - table[no_i]
        checked += no_i.size
        mono_count += np.nonzero(gain_i < -STRUCT_TOL)[0].size
        for j in range(i + 1, m):
            bit_j = 1 << j
            base = no_i[(no_i & bit_j) == 0]
            lhs = table[base | bit_i] - table[base]
            rhs = table[base | bit_i | bit_j] - table[base | bit_j]
            diff = lhs - rhs
            checked += base.size
            sub_count += np.nonzero(diff < -STRUCT_TOL)[0].size
    passed = mono_count == 0 and sub_count == 0
    return StructureReport(passed, checked, mono_count, sub_count)


def _planted(m: int, seed: int, noise: float) -> ValuationOracle:
    """Coverage-like values with a few entries moved by up to `noise`: noise
    0 is monotone submodular, larger noise plants violations of both kinds."""
    rng = np.random.default_rng(seed)
    table = np.sqrt(np.bitwise_count(np.arange(1 << m, dtype=np.int64)).astype(float))
    moved = rng.random(1 << m) < 0.05
    table[moved] += rng.uniform(-noise, noise, int(moved.sum()))
    table[0] = 0.0
    values = table.tolist()
    return oracle_from_scalar(m, values.__getitem__, {"kind": "planted"})


class TestExhaustiveScanMatchesLoop:
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 8, 10, 13, 16])
    @pytest.mark.parametrize("noise", [0.0, 0.05, 3.0])
    def test_report_is_identical(self, m, noise):
        oracle = _planted(m, seed=m, noise=noise)
        assert pickle.dumps(check_monotone_submodular(oracle)) == pickle.dumps(
            _reference_scan(oracle)
        )

    def test_planted_violations_are_found(self):
        rep = check_monotone_submodular(_planted(10, seed=10, noise=3.0))
        assert min(rep.monotone_violation_count, rep.submodular_violation_count) > 100
        assert check_monotone_submodular(_planted(10, seed=10, noise=0.0)).passed


def _reference_triples(m: int, trials: int, rng: np.random.Generator):
    """The sampled check's triples (mask, i, j) as int masks: every i, then
    every j from the other m - 1 items, then per trial one 64-bit draw per
    word, the bits at or above m and bits i, j cleared."""
    items_i = [int(x) for x in rng.integers(0, m, trials)]
    items_j = [int(x) for x in rng.integers(0, m - 1, trials)]
    items_j = [j + (j >= i) for i, j in zip(items_i, items_j)]
    width = -(-m // 64)
    for i, j in zip(items_i, items_j):
        mask = 0
        for w, word in enumerate(rng.integers(0, 1 << 64, width, dtype=np.uint64).tolist()):
            mask |= word << (64 * w)
        yield mask & ((1 << m) - 1) & ~(1 << i) & ~(1 << j), i, j


def _reference_sampled(oracle, trials: int, rng: np.random.Generator) -> StructureReport:
    """The sampled check as a loop of four single queries per trial."""
    m = oracle.m
    mono_count = sub_count = 0
    ev = oracle.eval
    for mask, i, j in _reference_triples(m, trials, rng):
        f_s = ev(row_of(mask, m))
        f_si = ev(row_of(mask | (1 << i), m))
        gain = f_si - f_s
        if gain < -STRUCT_TOL:
            mono_count += 1
        f_sj = ev(row_of(mask | (1 << j), m))
        f_sij = ev(row_of(mask | (1 << i) | (1 << j), m))
        diff = gain - (f_sij - f_sj)
        if diff < -STRUCT_TOL:
            sub_count += 1
    passed = mono_count == 0 and sub_count == 0
    return StructureReport(passed, trials, mono_count, sub_count)


SAMPLED_CASES = {
    "planted_m2": lambda: _planted(2, seed=2, noise=3.0),
    "planted_m10": lambda: _planted(10, seed=10, noise=3.0),
    "budget_additive_m5": lambda: make_budget_additive([0.2, 0.3, 0.1, 0.4, 0.15], 0.7),
    # supermodular over two words
    "square_m70": lambda: oracle_from_scalar(
        70, lambda mask: float(mask.bit_count() ** 2), {"kind": "planted"}
    ),
    "polar_m130": lambda: make_polar(130, pack(range(0, 130, 3), 130), 0.25),
}


class TestSampledCheckMatchesLoop:
    # blocks of 7 words (56 bytes): many blocks, some holding violations
    @pytest.mark.parametrize("block_bytes", [setfn.BLOCK_BYTES, 8 * 7])
    @pytest.mark.parametrize("trials", [0, 1, 3000])
    @pytest.mark.parametrize("case", sorted(SAMPLED_CASES))
    def test_report_is_identical(self, monkeypatch, case, trials, block_bytes):
        monkeypatch.setattr(setfn, "BLOCK_BYTES", block_bytes)
        oracle, ref_oracle = SAMPLED_CASES[case](), SAMPLED_CASES[case]()
        got = check_monotone_submodular(
            oracle, mode="sampled", trials=trials, rng=np.random.default_rng(trials)
        )
        expected = _reference_sampled(ref_oracle, trials, np.random.default_rng(trials))
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert oracle.query_count == ref_oracle.query_count == 4 * trials

    def test_planted_violations_are_recorded(self):
        rep = check_monotone_submodular(
            SAMPLED_CASES["square_m70"](), mode="sampled", trials=300
        )
        assert rep.submodular_violation_count > 100
        assert rep.monotone_violation_count == 0

    @pytest.mark.parametrize("m", [0, 1])
    def test_fewer_than_two_items_raise(self, m):
        oracle = make_additive([0.5] * m)
        with pytest.raises(GroundSetError, match="m must be >= 2"):
            check_monotone_submodular(oracle, mode="sampled", trials=10)
        assert oracle.query_count == 0


class TestSampledTriples:
    @pytest.mark.parametrize("m", [2, 63, 64, 65, 130])
    def test_pairs_are_distinct_and_sets_hold_neither(self, m):
        asked = []

        def fn_many(words):
            asked.append(masks_from_words(words))
            return np.zeros(len(words))

        oracle = ValuationOracle(m, fn_many, {"kind": "planted"})
        asked.clear()  # the construction-time f(empty) check
        check_monotone_submodular(oracle, mode="sampled", trials=500, rng=np.random.default_rng(m))
        # one block: the rows S, S + i, S + j, S + i + j
        assert len(asked) == 4
        union, pairs = 0, set()
        for s, s_i, s_j, s_ij in zip(*asked):
            i, j = s_i ^ s, s_j ^ s
            assert i.bit_count() == j.bit_count() == 1 and i != j
            assert s & (i | j) == 0 and s_ij == s | i | j
            assert s >> m == 0
            union |= s
            pairs.add((i, j))
        # the tail word keeps its items below m; at m = 2 both orders occur
        assert union == (0 if m == 2 else (1 << m) - 1)
        assert pairs == {(1, 2), (2, 1)} if m == 2 else len(pairs) > 400


class TestDescriptor:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_additive([0.1, 0.7, 0.3]),
            lambda: make_budget_additive([0.5, 0.5, 0.5], 1.2),
            lambda: make_coverage([0.4, 0.6], [[0], [0, 1], [1]]),
            lambda: make_polar(4, pack([0, 2], 4), 0.25),
            lambda: scale_oracle(make_additive([0.4, 0.2]), 0.3),
            lambda: compose_product(
                make_budget_additive([0.4, 0.5], 0.8), make_additive([0.2, 0.1])
            ),
            lambda: make_symgap_valuation(
                4, pack([0, 3], 4), pack([1, 2], 4),
                PhiAlpha(0.3), 0.25, 0.6,
            ).oracle(),
            lambda: two_block_product_instance(3, 0.5).oracle(),
        ],
    )
    def test_descriptor_alone_gives_every_value(self, build):
        oracle = build()
        # the descriptor survives JSON, and the scalar reference reads
        # nothing but it
        descriptor = json.loads(json.dumps(oracle.descriptor))
        for mask in range(1 << oracle.m):
            assert oracle.eval(row_of(mask, oracle.m)) == scalar_value(descriptor, mask)

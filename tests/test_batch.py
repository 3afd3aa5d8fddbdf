"""Batch value queries: eval_many against the scalar reference.

Every family evaluates sets only as packed rows.  eval_many must return, bit
for bit, what the descriptor-driven scalar reference in reference_oracles
gives on the same sets, and count one query per row.
"""
import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symgap import setfn
from symgap.extensions import multilinear_F
from symgap.instances import (
    GRID_MAX_BLOCK,
    PhiAlpha,
    TwoBlockValuation,
    make_symgap_valuation,
    psi,
    psi_tilde,
)
from symgap.mechanisms import greedy_cpp
from symgap.setfn import (
    GroundSetError,
    ValuationOracle,
    bits_from_words,
    compose_product,
    intersection_sizes,
    make_additive,
    make_budget_additive,
    make_coverage,
    make_polar,
    pack,
    scale_oracle,
    singleton_words,
    tabulate,
    unpack,
    word_count,
    words_from_bits,
)
from reference_oracles import (
    KINDS,
    KnotProfile,
    extension_vector,
    mask_of,
    masks_from_words,
    row_of,
    scalar_value,
    scalar_values,
)

SIZES = (2, 63, 64, 65, 130, 400)
PHIS = (
    PhiAlpha(0.3),
    PhiAlpha(0.5),
    PhiAlpha(1.0),
    KnotProfile((0.0, 0.25, 0.6, 1.0), (0.0, 0.5, 0.8, 1.0)),
)
BETAS = (0.0, 0.05, 0.1, 0.25)
FALLBACK_KINDS = ("additive", "budget_additive", "coverage", "polar", "product", "scaled")
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _split(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    perm = rng.permutation(m)
    half = m // 2
    return pack(perm[:half], m), pack(perm[half : 2 * half], m)


def _two_block(m, phi, beta, rng) -> TwoBlockValuation:
    A, B = _split(m, rng)
    return TwoBlockValuation(m, A, B, phi, beta, float(rng.uniform(0.5, 2.0)))


def _fallback(kind: str, m: int, rng: np.random.Generator):
    w = rng.uniform(0.0, 1.0, m)
    if kind == "additive":
        return make_additive(w.tolist())
    if kind == "budget_additive":
        return make_budget_additive(w.tolist(), float(0.4 * w.sum()))
    if kind == "coverage":
        universe = 2 * m
        cover = [rng.choice(universe, size=3, replace=False).tolist() for _ in range(m)]
        return make_coverage(rng.uniform(0.0, 1.0, universe).tolist(), cover)
    A, _ = _split(m, rng)
    if kind == "polar":
        return make_polar(m, A, 0.3)
    if kind == "scaled":
        return scale_oracle(make_polar(m, A, 0.3), 0.25)
    return compose_product(
        make_additive((w / w.sum()).tolist()),
        make_budget_additive(rng.uniform(0.0, 1.0, m).tolist(), 1.0),
    )


def _random_rows(m: int, rng: np.random.Generator, batch: int = 40) -> np.ndarray:
    """Packed rows from empty to full, with per-row densities in between."""
    p = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, batch - 2)])
    return words_from_bits(rng.random((batch, m)) < p[:, None])


class TestPacking:
    @given(seeds, st.sampled_from(SIZES))
    def test_bits_masks_and_words_agree(self, seed, m):
        rng = np.random.default_rng(seed)
        bits = rng.random((10, m)) < rng.uniform(0.0, 1.0)
        masks = [sum(1 << j for j in np.flatnonzero(row).tolist()) for row in bits]
        words = words_from_bits(bits)
        assert words.dtype == np.uint64 and words.shape == (10, word_count(m))
        assert np.array_equal(words, np.stack([row_of(mask, m) for mask in masks]))
        assert masks_from_words(words) == masks
        assert np.array_equal(bits_from_words(words, m), bits)

    @pytest.mark.parametrize("m", (0,) + SIZES)
    def test_singleton_words(self, m):
        assert masks_from_words(singleton_words(m)) == [1 << j for j in range(m)]

    def test_word_count(self):
        assert [word_count(m) for m in (0, 1, 63, 64, 65, 128, 400)] == [0, 1, 1, 1, 2, 2, 7]


def _descriptor_kinds() -> set[str]:
    """The oracle descriptor kinds written in the package: the "kind" of a
    dict literal that also has "params", and each `kind=` keyword argument
    (the two-block families)."""
    kinds = set()
    for path in Path(setfn.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
                if {"kind", "params"} <= set(keys):
                    value = node.values[keys.index("kind")]
                    if isinstance(value, ast.Constant):
                        kinds.add(value.value)
            elif isinstance(node, ast.keyword) and node.arg == "kind":
                if isinstance(node.value, ast.Constant):
                    kinds.add(node.value.value)
    return kinds


def test_every_descriptor_kind_has_a_scalar_reference():
    kinds = _descriptor_kinds()
    assert {"additive", "product", "symgap"} <= kinds
    assert kinds == KINDS
    with pytest.raises(KeyError):
        scalar_value({"kind": "hidden"}, 0)


class TestEvalMany:
    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("phi", PHIS, ids=lambda p: str(p.to_param_dict()))
    @pytest.mark.parametrize("beta", BETAS)
    def test_two_block_bit_identical(self, m, phi, beta):
        rng = np.random.default_rng(m)
        oracle = _two_block(m, phi, beta, rng).oracle()
        words = _random_rows(m, rng)
        assert oracle.eval_many(words).tobytes() == scalar_values(oracle, words).tobytes()

    @given(seeds, st.sampled_from(SIZES), st.sampled_from(PHIS), st.sampled_from(BETAS))
    @settings(max_examples=60, deadline=None)
    def test_two_block_bit_identical_random(self, seed, m, phi, beta):
        rng = np.random.default_rng(seed)
        oracle = _two_block(m, phi, beta, rng).oracle()
        words = _random_rows(m, rng, batch=8)
        assert oracle.eval_many(words).tobytes() == scalar_values(oracle, words).tobytes()

    @given(seeds, st.sampled_from(SIZES), st.sampled_from(FALLBACK_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_fallback_families_match(self, seed, m, kind):
        rng = np.random.default_rng(seed)
        oracle = _fallback(kind, m, rng)
        words = _random_rows(m, rng, batch=8)
        assert oracle.eval_many(words).tobytes() == scalar_values(oracle, words).tobytes()

    @pytest.mark.parametrize("m", SIZES)
    @pytest.mark.parametrize("kind", ("two_block",) + FALLBACK_KINDS)
    def test_counts_one_query_per_row(self, m, kind):
        rng = np.random.default_rng(7)
        if kind == "two_block":
            oracle = _two_block(m, PhiAlpha(0.5), 0.1, rng).oracle()
        else:
            oracle = _fallback(kind, m, rng)
        view = oracle.restricted_view()
        words = _random_rows(m, rng, batch=13)
        oracle.eval(pack((), m))
        oracle.eval_many(words)
        assert oracle.query_count == 14
        view.eval_many(words[:5])
        assert oracle.query_count == 19
        assert oracle.eval_many(words[:0]).shape == (0,)
        assert oracle.query_count == 19

    def test_product_components_count_each_row(self):
        rng = np.random.default_rng(3)
        f1 = make_additive([0.01] * 65)
        f2 = make_budget_additive([0.2] * 65, 1.0)
        prod = compose_product(f1, f2)
        before = (prod.query_count, f1.query_count, f2.query_count)
        prod.eval_many(_random_rows(65, rng, batch=9))
        after = (prod.query_count, f1.query_count, f2.query_count)
        assert [b - a for a, b in zip(before, after)] == [9, 9, 9]

    def test_building_wrappers_asks_their_components_nothing(self):
        """The f(empty) check of a wrapper counts nowhere; afterwards each
        query counted on a wrapper is counted once on every component,
        through nested wrappers too."""
        rng = np.random.default_rng(3)
        f1 = make_additive([0.01] * 65)
        f2 = make_budget_additive([0.2] * 65, 1.0)
        scaled = scale_oracle(f1, 0.5)
        prod = compose_product(scaled, f2)
        parts = (prod, scaled, f1, f2)
        assert [f.query_count for f in parts] == [0, 0, 0, 0]
        prod.eval_many(_random_rows(65, rng, batch=9))
        prod.eval_extensions(pack([0, 64], 65))
        assert [f.query_count for f in parts] == [9 + 63] * 4

    @pytest.mark.parametrize("batch", (5, 10, 13))
    @pytest.mark.parametrize("m", (5, 65))
    @pytest.mark.parametrize("kind", ("two_block",) + FALLBACK_KINDS)
    def test_chunked_rows_match_scalar(self, monkeypatch, batch, m, kind):
        # chunks of 5 rows: one whole chunk, two whole chunks, and a short last one
        monkeypatch.setattr(setfn, "_EVAL_CHUNK", 5)
        rng = np.random.default_rng(batch)
        if kind == "two_block":
            oracle = _two_block(m, PhiAlpha(0.5), 0.1, rng).oracle()
        else:
            oracle = _fallback(kind, m, rng)
        words = _random_rows(m, rng, batch=batch)
        values = oracle.eval_many(words)
        assert oracle.query_count == batch
        assert values.dtype == np.float64 and values.flags.c_contiguous
        assert values.tobytes() == scalar_values(oracle, words).tobytes()

    def test_tabulate_sends_at_most_one_chunk_per_call(self):
        m, sizes = 17, []

        def fn_many(words: np.ndarray) -> np.ndarray:
            sizes.append(len(words))
            return np.bitwise_count(words[:, 0]).astype(float)

        oracle = ValuationOracle(m, fn_many, {})
        assert sizes == [1]  # the f(empty) check at construction
        sizes.clear()
        table = tabulate(oracle)
        assert sizes == [setfn._EVAL_CHUNK] * ((1 << m) // setfn._EVAL_CHUNK)
        assert table.tobytes() == np.bitwise_count(np.arange(1 << m)).astype(float).tobytes()
        assert oracle.query_count == 1 << m

    @pytest.mark.parametrize("m", [m for m in SIZES if m % 64])
    def test_stray_high_bits_raise(self, m):
        oracle = _two_block(m, PhiAlpha(1.0), 0.1, np.random.default_rng(0)).oracle()
        words = np.zeros((3, word_count(m)), dtype=np.uint64)
        words[1, -1] = np.uint64(1) << np.uint64(m % 64)
        with pytest.raises(GroundSetError):
            oracle.eval_many(words)
        words[1, -1] = np.uint64(1) << np.uint64(63)
        with pytest.raises(GroundSetError):
            oracle.eval_many(words)
        assert oracle.query_count == 0

    @pytest.mark.parametrize("m", SIZES)
    def test_wrong_shapes_and_types_raise(self, m):
        oracle = _fallback("additive", m, np.random.default_rng(0))
        w = word_count(m)
        bad = [
            np.zeros(w, dtype=np.uint64),  # one row, not a batch
            np.zeros((2, w + 1), dtype=np.uint64),
            np.zeros((2, w - 1), dtype=np.uint64),
            np.zeros((2, w), dtype=np.int64),
            np.zeros((2, 1, w), dtype=np.uint64),
            [[0] * w],
        ]
        for words in bad:
            with pytest.raises(GroundSetError):
                oracle.eval_many(words)
        assert oracle.query_count == 0


def _all_rows(m: int) -> np.ndarray:
    """Every subset of [0, m) as one packed row, in mask order."""
    return np.arange(1 << m, dtype=np.uint64)[:, None][:, : word_count(m)]


def _assert_matches_scalar(oracle, words: np.ndarray) -> None:
    batch = oracle.eval_many(words)
    assert batch.dtype == np.float64 and batch.flags.c_contiguous
    assert batch.tobytes() == scalar_values(oracle, words).tobytes()


EDGE_WEIGHTS = (
    [-0.0],  # one item: a bare cumsum would give -0.0 where the loop gives 0.0
    [-0.0, -0.0, -0.0],
    [0.0, -0.0, 0.5, 0.0],
    [0.25, math.inf, 0.0, 3.0],
    [math.inf, -0.0, math.inf],
)


class TestEdgeCases:
    """Inputs where a plain vectorised sum would differ from the scalar loop:
    signed zeros, infinities, budgets met exactly, uncovered elements, an
    empty ground set and an empty batch."""

    @pytest.mark.parametrize("weights", EDGE_WEIGHTS, ids=repr)
    def test_additive_weights(self, weights):
        m = len(weights)
        for oracle in (
            make_additive(weights),
            scale_oracle(make_additive(weights), 0.5),
            make_coverage(weights, [[j] for j in range(m)]),
            make_coverage(weights, [[j, (j + 1) % m] for j in range(m)]),
        ):
            _assert_matches_scalar(oracle, _all_rows(m))

    @pytest.mark.parametrize("weights", EDGE_WEIGHTS, ids=repr)
    @pytest.mark.parametrize("budget", (0.0, -0.0, 0.5, 3.25, math.inf))
    def test_budget_additive_weights(self, weights, budget):
        oracle = make_budget_additive(weights, budget)
        _assert_matches_scalar(oracle, _all_rows(len(weights)))

    def test_budget_met_by_a_prefix_sum(self):
        oracle = make_budget_additive([1.0, 1.0, 1.0, 2.0], 2.0)
        _assert_matches_scalar(oracle, _all_rows(4))
        assert tabulate(oracle)[[0b0001, 0b0011, 0b0111, 0b1000, 0b1001]].tolist() == [
            1.0, 2.0, 2.0, 2.0, 2.0,
        ]
        rng = np.random.default_rng(4)
        w = rng.uniform(0.0, 1.0, 9).tolist()
        for size in range(1, 10):
            prefix = 0.0
            for x in w[:size]:
                prefix += x
            _assert_matches_scalar(make_budget_additive(w, prefix), _all_rows(9))

    def test_coverage_with_uncovered_elements(self):
        # elements 1, 3 and 5 are covered by no item; their weights never count
        weights = [0.5, math.inf, 0.25, -0.0, 0.125, 7.0]
        oracle = make_coverage(weights, [[0], [2, 4], [0, 2], []])
        _assert_matches_scalar(oracle, _all_rows(4))
        assert oracle.eval(pack(range(4), 4)) == 0.875

    def test_coverage_over_an_empty_universe(self):
        oracle = make_coverage([], [[], [], []])
        _assert_matches_scalar(oracle, _all_rows(3))
        assert tabulate(oracle).tolist() == [0.0] * 8

    @pytest.mark.parametrize("omega", (1e-300, 0.3, 1.0 - 2.0**-53))
    def test_polar_rates(self, omega):
        for members in ([], [0, 2], [0, 1, 2, 3, 4]):
            _assert_matches_scalar(make_polar(5, pack(members, 5), omega),
                                   _all_rows(5))

    def test_empty_ground_set(self):
        empty = pack((), 0)
        oracles = [
            make_additive([]),
            make_budget_additive([], 1.0),
            make_coverage([0.5, math.inf], []),
            make_polar(0, empty, 0.5),
            scale_oracle(make_polar(0, empty, 0.5), 2.0),
            compose_product(make_additive([]), make_coverage([0.5], [])),
        ]
        for oracle in oracles:
            for batch in (3, 0):
                _assert_matches_scalar(oracle, np.zeros((batch, 0), dtype=np.uint64))
            assert tabulate(oracle).tolist() == [0.0]

    @pytest.mark.parametrize("m", (2, 5, 70))
    @pytest.mark.parametrize("kind", FALLBACK_KINDS)
    def test_empty_batch(self, m, kind):
        oracle = _fallback(kind, m, np.random.default_rng(m))
        _assert_matches_scalar(oracle, np.zeros((0, word_count(m)), dtype=np.uint64))
        assert oracle.query_count == 0

    def test_eval_is_a_one_row_batch(self):
        rows = []

        def fn_many(words: np.ndarray) -> np.ndarray:
            rows.append(words.copy())
            return 0.5 * np.bitwise_count(words).sum(1)

        oracle = ValuationOracle(70, fn_many, {"kind": "custom"})
        value = oracle.eval(pack([1, 2, 66], 70))
        assert type(value) is float and value == 1.5
        assert oracle.eval(row_of(1 << 69, 70)) == 0.5
        # f(empty) is checked at construction on one row, and counts nothing
        assert [r.tolist() for r in rows] == [[[0, 0]], [[6, 4]], [[0, 1 << 5]]]
        assert oracle.query_count == 2
        bad = (
            np.array([0, 1 << 6], dtype=np.uint64),  # bit 70
            np.array([6, 4], dtype=np.int64),
            np.zeros(1, dtype=np.uint64),
            np.zeros((1, 2), dtype=np.uint64),  # a batch, not one row
            6,
        )
        for row in bad:
            with pytest.raises(GroundSetError):
                oracle.eval(row)
        assert oracle.query_count == 2


class TestAboveGridSize:
    """Blocks larger than GRID_MAX_BLOCK evaluate psi_tilde on the counts
    asked about instead of reading the count grid."""

    @pytest.mark.parametrize("phi", (PHIS[1], PHIS[-1]), ids=lambda p: p.to_param_dict()["kind"])
    def test_eval_and_eval_many_equal_psi_tilde_of_counts(self, phi):
        n, beta, rng = GRID_MAX_BLOCK + 76, 0.05, np.random.default_rng(11)
        m = 2 * n
        val = _two_block(m, phi, beta, rng)
        # occupancy drawn per block, so rows fall inside and on both sides of the band
        batch = 24
        bits = np.zeros((batch, m), dtype=bool)
        for block in (val.A, val.B):
            p = rng.uniform(0.0, 1.0, batch)
            bits[:, unpack(block, m)] = rng.random((batch, n)) < p[:, None]
        words = words_from_bits(bits)
        ref = np.array(
            [
                val.lam * float(psi_tilde(phi, beta, (mask & mask_of(val.A)).bit_count() / n,
                                          (mask & mask_of(val.B)).bit_count() / n))
                for mask in masks_from_words(words)
            ]
        )
        a = intersection_sizes(words, val.A) / n
        b = intersection_sizes(words, val.B) / n
        assert (a - b > beta).any() and (b - a > beta).any() and (abs(a - b) <= beta).any()
        oracle = val.oracle()
        assert oracle.eval_many(words).tobytes() == ref.tobytes()
        assert scalar_values(oracle, words).tobytes() == ref.tobytes()
        single = [oracle.eval(row) for row in words]
        assert np.array(single).tobytes() == ref.tobytes()


class TestTabulate:
    @pytest.mark.parametrize("m", (2, 5, 8))
    @pytest.mark.parametrize("kind", ("two_block",) + FALLBACK_KINDS)
    def test_equals_eval_loop_with_2_to_m_queries(self, m, kind):
        rng = np.random.default_rng(m)
        if kind == "two_block":
            oracle = _two_block(m, PHIS[-1], 0.1, rng).oracle()
        else:
            oracle = _fallback(kind, m, rng)
        view = oracle.restricted_view()
        table = tabulate(oracle)
        assert oracle.query_count == 1 << m
        assert tabulate(view).tobytes() == table.tobytes()
        assert oracle.query_count == 2 << m
        loop = np.array([oracle.eval(row_of(mask, m)) for mask in range(1 << m)], dtype=float)
        assert table.tobytes() == loop.tobytes()

    def test_empty_ground_set(self):
        oracle = make_additive([])
        assert tabulate(oracle).tolist() == [0.0]
        assert oracle.query_count == 1

    def test_product_components_count_2_to_m(self):
        f1 = make_additive([0.1] * 6)
        f2 = make_budget_additive([0.3] * 6, 1.0)
        prod = compose_product(f1, f2)
        before = (prod.query_count, f1.query_count, f2.query_count)
        tabulate(prod.restricted_view())
        after = (prod.query_count, f1.query_count, f2.query_count)
        assert [b - a for a, b in zip(before, after)] == [64, 64, 64]


EXTENSION_KINDS = (
    ("two_block", "large_two_block") + FALLBACK_KINDS + ("scaled_two_block", "product_two_block")
)


def _extension_oracle(kind: str, m: int, seed: int):
    """An oracle of `kind` on [0, m) and the component oracles it queries;
    equal seeds build equal oracles with fresh query counts."""
    rng = np.random.default_rng(seed)
    phi, beta = PHIS[seed % len(PHIS)], BETAS[seed % len(BETAS)]
    if kind == "two_block":
        return _two_block(m, phi, beta, rng).oracle(), []
    if kind == "large_two_block":
        # blocks above GRID_MAX_BLOCK: values from psi_tilde, not the grid
        return _two_block(2 * GRID_MAX_BLOCK + 10, phi, beta, rng).oracle(), []
    if kind in ("scaled", "scaled_two_block"):
        A, _ = _split(m, rng)
        inner = make_polar(m, A, 0.3) if kind == "scaled" else _two_block(m, phi, beta, rng).oracle()
        return scale_oracle(inner, 0.25), [inner]
    if kind in ("product", "product_two_block"):
        w = rng.uniform(0.0, 1.0, m)
        f1 = make_additive((w / max(w.sum(), 1.0)).tolist())
        if kind == "product":
            f2 = make_budget_additive(rng.uniform(0.0, 1.0, m).tolist(), 1.0)
        else:
            A, B = _split(m, rng)
            f2 = TwoBlockValuation(m, A, B, phi, beta, 1.0).oracle()
        return compose_product(f1, f2), [f1, f2]
    return _fallback(kind, m, rng), []


def _extension_rows(words: np.ndarray, m: int) -> np.ndarray:
    """The rows S + j for each item j outside S, in increasing j."""
    free = np.setdiff1d(np.arange(m), unpack(words, m))
    return singleton_words(m)[free] | words


def _all_but(free, m: int) -> np.ndarray:
    """The packed set of every item of [0, m) outside `free`."""
    return pack(np.setdiff1d(np.arange(m), free), m)


class TestEvalExtensions:
    """eval_extensions(S) against eval_many over the rows S + j it stands
    for, j outside S: the answer decoded item by item gives the same values
    bit for bit, and the query counts on the oracle, its view and every
    component are the same.  Two-block oracles answer with level sets, the
    other families with one group per free item."""

    @given(
        seeds,
        st.sampled_from(SIZES),
        st.sampled_from(EXTENSION_KINDS),
        st.sampled_from(("empty", "random", "full")),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_eval_many_on_the_rows(self, seed, m, kind, which, through_view):
        oracle, parts = _extension_oracle(kind, m, seed)
        ref, ref_parts = _extension_oracle(kind, m, seed)
        m = oracle.m
        rng = np.random.default_rng(seed)
        density = {"empty": 0.0, "random": rng.uniform(0.0, 1.0), "full": 1.0}[which]
        inside = rng.random(m) < density
        words = words_from_bits(inside[None])[0]
        asker = oracle.restricted_view() if through_view else oracle
        # building a product queries each component once, at the empty set
        before = [p.query_count for p in parts + ref_parts]
        answer = asker.eval_extensions(words)
        expected = ref.eval_many(_extension_rows(words, m))
        outside = m - int(inside.sum())
        assert extension_vector(answer, words, m).tobytes() == expected.tobytes()
        assert oracle.query_count == ref.query_count == outside
        after = [p.query_count for p in parts + ref_parts]
        assert [b - a for a, b in zip(before, after)] == [outside] * len(after)

    @pytest.mark.parametrize("phi", (PHIS[1], PHIS[-1]), ids=lambda p: p.to_param_dict()["kind"])
    @pytest.mark.parametrize("n", (5, GRID_MAX_BLOCK + 3))
    def test_full_block_classes(self, phi, n):
        # S holds all of A, all of B or both; the full block's class is empty
        m = 2 * n + 1
        val = TwoBlockValuation(
            m, pack(range(0, 2 * n, 2), m), pack(range(1, 2 * n, 2), m), phi, 0.1, 0.75
        )
        oracle = val.oracle()
        a, b = unpack(val.A, m).tolist(), unpack(val.B, m).tolist()
        for members in (a, b, a + b[:2], list(range(2 * n))):
            words = pack(members, m)
            expected = val.oracle().eval_many(_extension_rows(words, m))
            decoded = extension_vector(oracle.eval_extensions(words), words, m)
            assert decoded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ("two_block", "additive", "product", "product_two_block"))
    def test_rejects_bad_rows_without_counting(self, kind):
        m = 70
        oracle, parts = _extension_oracle(kind, m, 5)
        before = [p.query_count for p in parts]
        words = row_of(0b1011 | 1 << 66, m)
        bad_words = [
            words[None],  # a batch, not one row
            words[:-1],
            words.astype(np.int64),
            np.concatenate([words[:-1], [np.uint64(1) << np.uint64(m % 64)]]),  # bit m
        ]
        for row in bad_words:
            with pytest.raises(GroundSetError):
                oracle.eval_extensions(row)
        assert oracle.query_count == 0
        assert [p.query_count for p in parts] == before

    @pytest.mark.parametrize("kind", EXTENSION_KINDS)
    def test_full_set(self, kind):
        oracle, parts = _extension_oracle(kind, 65, 2)
        before = [p.query_count for p in parts]
        values, groups = oracle.eval_extensions(pack(range(oracle.m), oracle.m))
        assert values.shape == (0,) and values.dtype == np.float64
        assert groups.shape == (0, word_count(oracle.m)) and groups.dtype == np.uint64
        assert oracle.query_count == 0
        assert [p.query_count for p in parts] == before

    def test_empty_ground_set(self):
        empty = pack((), 0)
        for oracle in (
            make_additive([]),
            make_budget_additive([], 1.0),
            make_coverage([0.5], []),
            make_polar(0, empty, 0.5),
            scale_oracle(make_polar(0, empty, 0.5), 2.0),
            compose_product(make_additive([]), make_coverage([0.5], [])),
        ):
            values, groups = oracle.eval_extensions(empty)
            assert values.shape == (0,) and groups.shape == (0, 0)
            with pytest.raises(GroundSetError):
                oracle.eval_extensions(np.zeros(1, dtype=np.uint64))
            assert oracle.query_count == 0

    @pytest.mark.parametrize("table_words", (0, setfn._SINGLETON_TABLE_WORDS))
    @pytest.mark.parametrize("kind", ("additive", "coverage", "product"))
    def test_rows_are_built_a_chunk_at_a_time(self, monkeypatch, kind, table_words):
        # with no room for a shared table the singletons are built, not copied
        monkeypatch.setattr(setfn, "_EVAL_CHUNK", 5)
        monkeypatch.setattr(setfn, "_SINGLETON_TABLE_WORDS", table_words)
        oracle, _ = _extension_oracle(kind, 65, 9)
        ref, _ = _extension_oracle(kind, 65, 9)
        for size in (5, 10, 13):
            # S leaves `size` items outside it, in both of its words
            free = np.union1d(np.arange(size - 2), [63, 64])
            words = _all_but(free, 65)
            expected = ref.eval_many(_extension_rows(words, 65))
            decoded = extension_vector(oracle.eval_extensions(words), words, 65)
            assert decoded.tobytes() == expected.tobytes()
        assert oracle.query_count == ref.query_count == 28

    @pytest.mark.parametrize("kind", EXTENSION_KINDS)
    def test_returned_rows_do_not_alias_oracle_state(self, kind):
        oracle, _ = _extension_oracle(kind, 65, 4)
        m = oracle.m
        rng = np.random.default_rng(4)
        words = words_from_bits((rng.random(m) < 0.3)[None])[0]
        first = oracle.eval_extensions(words)
        expected = extension_vector(first, words, m).tobytes()
        for part in first:
            part[...] = part.dtype.type(0)  # writable, and written
        again = oracle.eval_extensions(words)
        assert extension_vector(again, words, m).tobytes() == expected
        assert oracle.query_count == 2 * (m - int(np.bitwise_count(words).sum()))

    @given(seeds, st.sampled_from(SIZES), st.sampled_from(EXTENSION_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_groups_sharing_a_value_are_single_items(self, seed, m, kind):
        # a group of several items is a level set: no other group has its value
        oracle, _ = _extension_oracle(kind, m, seed)
        rng = np.random.default_rng(seed)
        words = words_from_bits((rng.random(oracle.m) < rng.uniform(0.0, 1.0))[None])[0]
        values, groups = oracle.restricted_view().eval_extensions(words)
        sizes = np.bitwise_count(groups).sum(axis=1)
        for g in np.flatnonzero(sizes > 1).tolist():
            assert np.count_nonzero(values == values[g]) == 1

    @pytest.mark.parametrize("m", (2, 64, 400, 2 * GRID_MAX_BLOCK + 2))
    def test_symgap_answer_at_the_empty_set_is_one_group(self, m):
        # every single item added to the empty set gives the same value, so
        # the answer cannot tell A from B
        rng = np.random.default_rng(m)
        A, B = _split(m, rng)
        for phi, beta in ((PhiAlpha(0.5), 0.1), (PhiAlpha(1.0), 1e-6), (PHIS[-1], 0.25)):
            view = make_symgap_valuation(m, A, B, phi, beta).oracle().restricted_view()
            values, groups = view.eval_extensions(pack((), m))
            assert len(values) == 1
            assert groups.tolist() == [pack(range(m), m).tolist()]

    def test_singleton_table_is_shared_and_read_only(self):
        setfn._singleton_table.cache_clear()
        for _ in range(2):
            make_additive([0.5] * 9).eval_extensions(_all_but([2, 3], 9))
        info = setfn._singleton_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        table = setfn._singleton_table(9)
        assert masks_from_words(table) == [1 << j for j in range(9)]
        with pytest.raises(ValueError):
            table[0, 0] = 0


def _scalar_greedy(oracles, k, tol=1e-12):
    """Greedy by single queries: lowest index wins ties, stop without gain."""
    m = oracles[0].m
    chosen: set[int] = set()
    mask, current = 0, 0.0
    for _ in range(k):
        best = None
        best_val = current + tol
        for j in range(m):
            if j in chosen:
                continue
            val = 0.0
            for o in oracles:
                val += o.eval(row_of(mask | 1 << j, m))
            if val > best_val:
                best, best_val = j, val
        if best is None:
            break
        chosen.add(best)
        mask |= 1 << best
        current = best_val
    return mask, current


class TestBatchedGreedy:
    @given(seeds, st.integers(min_value=1, max_value=200), st.integers(1, 2))
    @settings(max_examples=4, deadline=None)
    def test_matches_scalar_greedy_on_symgap_instances(self, seed, k, players):
        rng = np.random.default_rng(seed)
        vals = []
        for _ in range(players):
            A, B = _split(400, rng)
            phi = PhiAlpha(float(rng.choice([0.3, 0.5, 1.0])))
            beta = float(rng.choice([0.05, 0.1, 0.25]))
            vals.append(make_symgap_valuation(400, A, B, phi, beta, float(rng.uniform(0.5, 1.5))))
        batch_side = [v.oracle() for v in vals]
        scalar_side = [v.oracle() for v in vals]
        res = greedy_cpp([o.restricted_view() for o in batch_side], k)
        mask, value = _scalar_greedy(scalar_side, k)
        assert mask_of(res.S) == mask
        assert res.value == value
        assert [o.query_count for o in batch_side] == [o.query_count for o in scalar_side]

    def test_matches_scalar_greedy_at_64_words(self):
        m = 4096
        A, B = _split(m, np.random.default_rng(17))
        val = make_symgap_valuation(m, A, B, PhiAlpha(0.5), 0.05, 1.25)
        batch_side, scalar_side = val.oracle(), val.oracle()
        res = greedy_cpp([batch_side.restricted_view()], 6)
        mask, value = _scalar_greedy([scalar_side], 6)
        assert (mask_of(res.S), res.value) == (mask, value)
        assert batch_side.query_count == scalar_side.query_count == sum(m - t for t in range(6))

    def test_thousand_steps_on_the_ell_two_ground_set(self):
        m, k = 160_000, 1000
        A, B = _split(m, np.random.default_rng(18))
        oracle = make_symgap_valuation(m, A, B, PhiAlpha(1.0), 0.01).oracle()
        res = greedy_cpp([oracle.restricted_view()], k)
        assert res.steps == k == int(np.bitwise_count(res.S).sum())
        assert oracle.query_count == sum(m - t for t in range(k))

    @given(seeds, st.sampled_from(SIZES), st.sampled_from(FALLBACK_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_greedy_with_fallback_families(self, seed, m, kind):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, min(m, 12) + 1))
        two_block = _two_block(m, PhiAlpha(0.5), 0.1, rng)
        other_seed = int(rng.integers(2**32))
        batch_side = [two_block.oracle(), _fallback(kind, m, np.random.default_rng(other_seed))]
        scalar_side = [two_block.oracle(), _fallback(kind, m, np.random.default_rng(other_seed))]
        res = greedy_cpp(batch_side, k)
        mask, value = _scalar_greedy(scalar_side, k)
        assert (mask_of(res.S), res.value) == (mask, value)
        assert [o.query_count for o in batch_side] == [o.query_count for o in scalar_side]


def _psi_tilde_three_branch(phi, beta, x, y):
    """The three-psi-call form of psi_tilde: one psi per case, then select."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mid = psi(phi, 0.5 * (x + y), 0.5 * (x + y))
    hi = psi(phi, x - 0.5 * beta, y + 0.5 * beta)
    lo = psi(phi, x + 0.5 * beta, y - 0.5 * beta)
    return np.where(np.abs(x - y) <= beta, mid, np.where(x - y > beta, hi, lo))


@pytest.mark.parametrize("n", [1, 3, 200])
@pytest.mark.parametrize("phi", PHIS, ids=lambda p: str(p.to_param_dict()))
@pytest.mark.parametrize("beta", BETAS)
def test_psi_tilde_matches_three_branch_form(n, phi, beta):
    xs = np.arange(n + 1) / n
    new = psi_tilde(phi, beta, xs[:, None], xs[None, :])
    old = _psi_tilde_three_branch(phi, beta, xs[:, None], xs[None, :])
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
def test_phi_alpha_array_path_is_clip(alpha):
    t = np.array([-0.0, 0.0, -1e-300, -5.0, 5e-324, 0.3, alpha, 1.0, 1.5, np.inf, -np.inf, np.nan])
    t = np.concatenate([t, np.random.default_rng(0).uniform(-1.0, 2.0, 200)])
    assert PhiAlpha(alpha).value(t).tobytes() == np.clip(t / alpha, 0.0, 1.0).tobytes()


# one sample a block, and the default budget (1008 samples a block at m = 130)
@pytest.mark.parametrize("block_bytes", [1, setfn.BLOCK_BYTES])
def test_monte_carlo_matches_scalar_accumulation(monkeypatch, block_bytes):
    """The batched estimator draws the same sets as the scalar loop it
    replaces and sums their values in the same order, whatever the block
    size."""
    monkeypatch.setattr(setfn, "BLOCK_BYTES", block_bytes)
    m, samples, seed = 130, 3000, 5
    val = _two_block(m, PhiAlpha(0.5), 0.1, np.random.default_rng(1))
    x = np.random.default_rng(2).uniform(0.0, 1.0, m)
    res = multilinear_F(val.oracle(), x, samples, seed)
    oracle = val.oracle()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    bits = rng.random((samples, m)) < x
    acc_sum = acc_sq = 0.0
    for row in bits:
        v = oracle.eval(pack(np.flatnonzero(row), m))
        acc_sum += v
        acc_sq += v * v
    mean = acc_sum / samples
    var = max(0.0, (acc_sq - samples * mean * mean) / (samples - 1))
    assert res.value == mean
    assert res.stderr == math.sqrt(var / samples)

"""Baseline mechanisms: greedy, exhaustive optima, VCG, Poisson rounding.

Reference optima and payments are recomputed in the tests by direct
enumeration over outcomes, not by the module's own search code.
"""
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symgap.setfn import (
    GroundSetError,
    make_additive,
    make_budget_additive,
    make_coverage,
    pack,
    unpack,
)
from symgap.instances import (
    AuctionInstance,
    CPPInstance,
    PhiAlpha,
    TwoBlockValuation,
    make_symgap_valuation,
    random_cpp_instance,
    two_block_product_instance,
)
from reference_oracles import mask_of, masks_from_words, row_of
from symgap import mechanisms, setfn
from symgap.mechanisms import (
    GAIN_TOL,
    BalancedPrefixCPP,
    GreedyCPP,
    InfeasibleOutcomeError,
    NonConcaveClassError,
    Outcome,
    PayYourBidGreedyAuction,
    RandomSubsetCPP,
    VCGExhaustiveAuction,
    _assignment_masks,
    _cpp_candidates,
    exhaustive_opt_cpp,
    greedy_cpp,
    poisson_midr_cpp,
    run_trials,
    vcg_auction_exhaustive,
)


def ref_opt_cpp(oracles, k):
    m = oracles[0].m
    best = 0.0
    best_mask = 0
    for size in range(k + 1):
        for combo in itertools.combinations(range(m), size):
            mask = 0
            for j in combo:
                mask |= 1 << j
            v = sum(o.eval(row_of(mask, m)) for o in oracles)
            if v > best + 1e-15:
                best, best_mask = v, mask
    return best_mask, best


class TestGreedy:
    def test_matches_reference_on_modular(self):
        oracle = make_additive([0.1, 0.9, 0.4, 0.7])
        res = greedy_cpp([oracle], 2)
        assert unpack(res.S, 4).tolist() == [1, 3]
        assert res.value == pytest.approx(1.6)

    def test_ties_resolve_to_lowest_index(self):
        oracle = make_additive([0.5, 0.5, 0.5])
        res = greedy_cpp([oracle], 2)
        assert unpack(res.S, 3).tolist() == [0, 1]

    def test_ties_across_refined_groups_resolve_to_lowest_index(self):
        # the two-block answer lists its level sets by class, the items
        # outside both blocks (8 and 9) first, so the groups refined by the
        # additive answer are out of item order; every item ties at 0.25
        m = 10
        blocks = TwoBlockValuation(m, pack(range(4), m), pack(range(4, 8), m), PhiAlpha(1.0), 0.0)
        oracles = [blocks.oracle(), make_additive([0.0] * 8 + [0.25] * 2)]
        res = greedy_cpp(oracles, 1)
        assert (unpack(res.S, m).tolist(), res.value) == ([0], 0.25)

    def test_early_stop_when_no_gain(self):
        oracle = make_budget_additive([0.6, 0.6, 0.6], 0.6)
        res = greedy_cpp([oracle], 3)
        assert len(res.S) == 1
        assert res.steps == 1

    def test_guarantee_on_random_instances(self):
        from symgap.instances import random_cpp_instance

        rng = np.random.default_rng(10)
        floor = 1.0 - 1.0 / math.e
        for _ in range(25):
            inst = random_cpp_instance(rng, m_max=10, k_max=3)
            g = greedy_cpp(inst.oracles, inst.k)
            _, opt = ref_opt_cpp(inst.oracles, inst.k)
            assert g.value >= floor * opt - 1e-9

    def test_k_validation(self):
        oracle = make_additive([0.5])
        with pytest.raises(GroundSetError):
            greedy_cpp([oracle], 0)
        with pytest.raises(GroundSetError):
            greedy_cpp([oracle], 2)


class TestExhaustiveOpt:
    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        w = rng.uniform(0, 1, 8)
        oracles = [make_budget_additive([float(x) for x in w], float(0.5 * w.sum()))]
        res = exhaustive_opt_cpp(oracles, 3)
        ref_mask, ref_val = ref_opt_cpp(oracles, 3)
        assert res.value == pytest.approx(ref_val, abs=1e-12)

    @staticmethod
    def scalar_opt(oracles, k):
        """The scalar scan: sizes 1..k in lexicographic order, one eval per
        oracle per set summed in oracle order, first maximum kept."""
        m = oracles[0].m
        best_mask, best_val = 0, 0.0
        for size in range(1, k + 1):
            for combo in itertools.combinations(range(m), size):
                mask = 0
                for j in combo:
                    mask |= 1 << j
                val = 0.0
                for o in oracles:
                    val += o.eval(row_of(mask, m))
                if val > best_val + GAIN_TOL:
                    best_mask, best_val = mask, val
        return best_mask, best_val

    @pytest.mark.parametrize("seed", range(12))
    def test_batched_scan_matches_scalar_scan(self, seed):
        inst = random_cpp_instance(np.random.default_rng(seed))
        ref = random_cpp_instance(np.random.default_rng(seed))
        res = exhaustive_opt_cpp(inst.oracles, inst.k)
        assert (mask_of(res.S), res.value) == self.scalar_opt(ref.oracles, ref.k)
        counts = [o.query_count for o in inst.oracles]
        assert counts == [o.query_count for o in ref.oracles]
        sets = sum(math.comb(inst.oracles[0].m, t) for t in range(1, inst.k + 1))
        assert counts == [sets] * len(counts)

    def test_ties_keep_first_maximum(self):
        # {2, 3} beats {0, 1} by 2e-13, inside GAIN_TOL: the first maximum stays
        weights = [0.25, 0.25, 0.25 + 1e-13, 0.25 + 1e-13, 0.25, 0.25]
        for oracles in (
            [make_additive([0.25] * 6)],
            [make_additive(weights), make_additive([0.1] * 6)],
        ):
            res = exhaustive_opt_cpp(oracles, 2)
            ref_mask, ref_val = self.scalar_opt(oracles, 2)
            assert (mask_of(res.S), res.value) == (ref_mask, ref_val)
            assert unpack(res.S, 6).tolist() == [0, 1]

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, GAIN_TOL, 2 * GAIN_TOL, -1.0, math.nan, math.inf]),
                # values a fraction of GAIN_TOL apart: ties and near-ties
                st.builds(
                    lambda base, step: base + step * 0.5 * GAIN_TOL,
                    st.sampled_from([0.5, 1.0, 3.0]),
                    st.integers(-4, 4),
                ),
                st.floats(allow_nan=True, allow_infinity=True),
            ),
            max_size=60,
        )
    )
    @example([])
    @example([math.nan, 0.5, 1.0])  # no record before the first number
    @example([1.0, 1.0 + 0.5 * GAIN_TOL, 1.0 + 1.5 * GAIN_TOL, 1.0 + 2.5 * GAIN_TOL])
    @settings(max_examples=300, deadline=None)
    def test_record_scan_matches_the_full_scan(self, vals):
        # the reference: a scan over every row
        best_row, best_val = -1, 0.0
        for row, val in enumerate(vals):
            if val > best_val + GAIN_TOL:
                best_row, best_val = row, val
        assert mechanisms._first_max(np.array(vals, dtype=float)) == (best_row, best_val)

    def test_enumeration_cap(self):
        oracle = make_additive([0.01] * 64)
        with pytest.raises(GroundSetError):
            exhaustive_opt_cpp([oracle], 32)

    def test_candidates_are_cached_per_m_and_k(self):
        oracles = [make_additive([0.125 * (j % 3) for j in range(11)])]
        _cpp_candidates.cache_clear()
        first = exhaustive_opt_cpp(oracles, 3)
        assert _cpp_candidates.cache_info()[:2] == (0, 1)  # (hits, misses)
        again = exhaustive_opt_cpp(oracles, 3)
        assert (mask_of(again.S), again.value) == (mask_of(first.S), first.value)
        assert _cpp_candidates.cache_info()[:2] == (1, 1)
        assert (mask_of(first.S), first.value) == self.scalar_opt(oracles, 3)
        words = _cpp_candidates(11, 3)
        assert words.shape == (sum(math.comb(11, t) for t in (1, 2, 3)), 1)
        with pytest.raises(ValueError):
            words[0, 0] = 0

    def test_large_enumerations_are_not_cached(self):
        # 300 + C(300, 2) sets of 5 words each: past the cached size
        oracles = [make_additive([0.001 * (j % 7) for j in range(300)])]
        _cpp_candidates.cache_clear()
        res = exhaustive_opt_cpp(oracles, 2)
        assert _cpp_candidates.cache_info().currsize == 0
        assert unpack(res.S, 300).tolist() == [6, 13]
        assert res.value == 0.012

    def test_no_gain_keeps_the_empty_set(self):
        res = exhaustive_opt_cpp([make_additive([0.0] * 5)], 2)
        assert (mask_of(res.S), res.value) == (0, 0.0)

    def test_cap_raises_before_caching(self):
        oracle = make_additive([0.01] * 40)
        _cpp_candidates.cache_clear()
        with pytest.raises(GroundSetError):
            exhaustive_opt_cpp([oracle], 10)
        assert _cpp_candidates.cache_info().currsize == 0
        assert oracle.query_count == 0


class TestVCG:
    def test_hand_computed_payments(self):
        # p1 additive (0.5, 0.3, 0.2, 0.1); p2 = min(0.4 |S|, 1.0)
        v1 = make_additive([0.5, 0.3, 0.2, 0.1])
        v2 = make_budget_additive([0.4] * 4, 1.0)
        out = vcg_auction_exhaustive([v1, v2])
        assert unpack(out.sets[0], 4).tolist() == [0, 1]
        assert unpack(out.sets[1], 4).tolist() == [2, 3]
        # pivots: without p1 others get 1.0, at opt others get 0.8 -> 0.2
        #         without p2 others get 1.1, at opt others get 0.8 -> 0.3
        assert out.payments[0] == pytest.approx(0.2, abs=1e-12)
        assert out.payments[1] == pytest.approx(0.3, abs=1e-12)

    def test_individual_rationality_and_nonnegative_payments(self):
        rng = np.random.default_rng(12)
        for _ in range(15):
            oracles = [
                make_additive([float(x) for x in rng.uniform(0, 1, 5)]) for _ in range(2)
            ]
            out = vcg_auction_exhaustive(oracles)
            for i, o in enumerate(oracles):
                assert out.payments[i] >= -1e-12
                assert o.eval(out.sets[i]) - out.payments[i] >= -1e-12

    def test_exact_dominant_strategy_on_enumerable_deviations(self):
        # truthfulness checked exactly: every alternative declaration from a
        # small catalogue gives at most the truthful utility
        rng = np.random.default_rng(13)
        truths = [
            make_additive([float(x) for x in rng.uniform(0, 1, 4)]) for _ in range(2)
        ]
        catalogue = [
            make_additive([float(x) for x in rng.uniform(0, 1, 4)]) for _ in range(6)
        ]
        base = vcg_auction_exhaustive(truths)
        for i in range(2):
            u_truth = truths[i].eval(base.sets[i]) - base.payments[i]
            for dev in catalogue:
                declared = list(truths)
                declared[i] = dev
                out = vcg_auction_exhaustive(declared)
                u_dev = truths[i].eval(out.sets[i]) - out.payments[i]
                assert u_dev <= u_truth + 1e-9


class TestOutcome:
    def test_overlap_rejected(self):
        a, b = pack([0, 1], 4), pack([1, 2], 4)
        with pytest.raises(InfeasibleOutcomeError):
            Outcome(np.stack([a, b]), (0.0, 0.0))
        # bundles that meet only in a second word overlap too
        a, b, c = pack([0, 70], 130), pack([1, 129], 130), pack([2, 70], 130)
        Outcome(np.stack([a, b]), (0.0, 0.0))
        with pytest.raises(InfeasibleOutcomeError):
            Outcome(np.stack([a, b, c]), (0.0, 0.0, 0.0))

    def test_payment_arity(self):
        with pytest.raises(ValueError):
            Outcome(pack([0], 4)[None], (0.0, 0.0))


class TestPoissonMIDR:
    def test_additive_walks_to_waterfill_optimum(self):
        w = np.array([0.9, 0.5, 0.1, 0.05])
        oracle = make_additive([float(x) for x in w])
        res = poisson_midr_cpp(oracle, 2)
        # independent reference: fine scan over the common-marginal multiplier
        best = 0.0
        for lam in np.linspace(1e-4, 0.9, 4000):
            x = np.clip(np.log(w / lam), 0.0, 1.0)
            scale = min(1.0, 2.0 / x.sum()) if x.sum() > 0 else 0.0
            val = float(w @ (1.0 - np.exp(-x * scale)))
            best = max(best, val)
        assert res.value == pytest.approx(best, abs=1e-5)
        assert not res.heuristic

    def test_single_universe_coverage_closed_form(self):
        # one universe element of weight w covered by items {0,1,2}: the
        # optimum puts x=1 on min(k, 3) covering items
        w = 0.8
        oracle = make_coverage([w], [[0], [0], [0], []])
        res = poisson_midr_cpp(oracle, 2)
        expect = w * (1.0 - math.exp(-2.0))
        assert res.value == pytest.approx(expect, abs=1e-6)

    def test_two_block_alpha_one_closed_form(self):
        oracle = two_block_product_instance(4, 1.0).oracle()
        res = poisson_midr_cpp(oracle, 2)
        assert res.value == pytest.approx(1.0 - math.exp(-0.5), abs=1e-6)

    def test_budget_constraint_and_rounding(self):
        w = np.array([0.7, 0.6, 0.5, 0.2, 0.1])
        oracle = make_additive([float(x) for x in w])
        res = poisson_midr_cpp(oracle, 3)
        x = np.array(res.x_star)
        assert x.sum() <= 3 + 1e-9
        assert (x >= -1e-12).all() and (x <= 1 + 1e-12).all()
        np.testing.assert_allclose(
            res.distribution.marginals, 1.0 - np.exp(-x), atol=1e-12
        )
        rng = np.random.default_rng(14)
        samples = [oracle.eval(res.distribution.sample(rng)) for _ in range(4000)]
        se = np.std(samples, ddof=1) / math.sqrt(len(samples))
        assert abs(np.mean(samples) - res.value) <= 4 * se + 1e-9

    def test_non_concave_class_refused_without_force(self):
        oracle = make_budget_additive([1.0, 1.0, 1.0, 2.0], 2.0)
        with pytest.raises(NonConcaveClassError):
            poisson_midr_cpp(oracle, 2)
        res = poisson_midr_cpp(oracle, 2, force=True)
        assert res.heuristic

    def test_symgap_kind_not_whitelisted(self):
        val = make_symgap_valuation(
            4,
            pack([0, 1], 4),
            pack([2, 3], 4),
            PhiAlpha(0.5),
            0.1,
        )
        with pytest.raises(NonConcaveClassError):
            poisson_midr_cpp(val.oracle(), 2)


class TestHarness:
    def _instance(self, m=6, k=3):
        rng = np.random.default_rng(15)
        w = rng.uniform(0, 1, m)
        return CPPInstance(
            (make_budget_additive([float(x) for x in w], float(0.6 * w.sum())),), k
        )

    @staticmethod
    def _masks(runs):
        return masks_from_words(runs.words[:, 0])

    def test_feasibility_and_column_shape(self):
        inst = self._instance()
        runs = run_trials(RandomSubsetCPP(), inst, trials=20, seed=3)
        assert runs.words.shape == (20, 1, 1)
        assert runs.payments.tolist() == [[0.0]] * 20
        assert [mask.bit_count() for mask in self._masks(runs)] == [3] * 20
        assert len(set(self._masks(runs))) > 1

    def test_deterministic_reruns(self):
        inst = self._instance()
        a = run_trials(RandomSubsetCPP(), inst, trials=10, seed=7)
        b = run_trials(RandomSubsetCPP(), inst, trials=10, seed=7)
        assert a.words.tolist() == b.words.tolist()

    def test_query_accounting(self):
        inst = self._instance(m=6, k=2)
        oracle = inst.oracles[0]
        greedy_cpp([oracle.restricted_view()], 2)
        # greedy on m=6, k=2 queries 6 + 5 candidates
        assert oracle.query_count == 11
        # replicated across trials: one more allocate call
        run_trials(GreedyCPP(), inst, trials=4, seed=1)
        assert oracle.query_count == 22

    def test_balanced_prefix_respects_budget(self):
        inst = self._instance(m=8, k=3)
        runs = run_trials(BalancedPrefixCPP(), inst, trials=10, seed=2)
        assert all(mask.bit_count() <= 3 for mask in self._masks(runs))

    # blocks of 1 and 3 words (8 and 24 bytes): one and three prefixes a block
    @pytest.mark.parametrize("block_bytes", [setfn.BLOCK_BYTES, 8 * 1, 8 * 3])
    @pytest.mark.parametrize("k", [10, 3])
    def test_balanced_prefix_stops_at_the_first_prefix_reaching_the_share(
        self, monkeypatch, k, block_bytes
    ):
        # item 5 holds most of the value, and the prefix one item past it is
        # the first to reach the share: 4.37 of 4.79 against 4.30 for the
        # prefix that ends at it.  At k = 3 no prefix reaches it.
        monkeypatch.setattr(setfn, "BLOCK_BYTES", block_bytes)
        m, seed = 12, 0
        w = [0.05] * m
        w[5] = 4.0
        oracles = (make_additive(w), make_additive([0.02] * m))
        perm = np.random.default_rng(seed).permutation(m).tolist()
        assert perm.index(5) == 4
        S = BalancedPrefixCPP().allocate(
            tuple(o.restricted_view() for o in oracles), k, np.random.default_rng(seed)
        )
        assert unpack(S, m).tolist() == sorted(perm[: 6 if k == 10 else k])
        # the full set and every prefix up to k, early stop or not
        assert [o.query_count for o in oracles] == [k + 1, k + 1]

    # m = 200 packs a row in 4 words: blocks of 1 and 5 rows, and one block
    @pytest.mark.parametrize("block_bytes", [8 * 4, 8 * 4 * 5, setfn.BLOCK_BYTES])
    def test_balanced_prefix_asks_every_prefix_across_words(self, monkeypatch, block_bytes):
        monkeypatch.setattr(setfn, "BLOCK_BYTES", block_bytes)
        m, k, seed = 200, 150, 4
        oracle, asked = make_additive([1.0] * m), []

        def record(words):
            asked.append(words.copy())
            return oracle.eval_many(words)

        view = SimpleNamespace(m=m, eval_many=record)
        BalancedPrefixCPP().allocate((view,), k, np.random.default_rng(seed))
        perm = np.random.default_rng(seed).permutation(m)
        expected = np.stack([pack(range(m), m)] + [pack(perm[: t + 1], m) for t in range(k)])
        assert np.concatenate(asked).tobytes() == expected.tobytes()

    def test_exhaustive_opt_dominates_greedy(self):
        oracles = self._instance(m=8, k=3).oracles
        assert exhaustive_opt_cpp(oracles, 3).value >= greedy_cpp(oracles, 3).value - 1e-12


class TestPayYourBid:
    def test_understating_keeps_allocation_cuts_payment(self):
        big = make_additive([10.0, 10.0])
        small = make_additive([0.5, 0.5])
        shaded = make_additive([1.0, 1.0])
        mech = PayYourBidGreedyAuction()
        rng = np.random.default_rng(0)
        honest = mech.allocate([v.restricted_view() for v in (big, small)], rng)
        assert unpack(honest.sets[0], 2).tolist() == [0, 1]
        assert honest.payments[0] == pytest.approx(20.0)
        out = mech.allocate([v.restricted_view() for v in (shaded, small)], rng)
        assert unpack(out.sets[0], 2).tolist() == [0, 1]
        assert out.payments[0] == pytest.approx(2.0)


def test_assignment_masks_are_shared_and_read_only():
    masks = _assignment_masks(2, 3)
    before = masks.copy()
    assert _assignment_masks(2, 3) is masks
    with pytest.raises(ValueError):
        masks[0, 0] = 0
    assert np.array_equal(masks, before)

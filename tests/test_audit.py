"""Audit layer: truthfulness gates, hidden-partition runs, menu geometry,
amplification certificates, scalar inequalities, exact concentration laws.

Separation results are validated two ways: against an exact rational
mixture oracle and against the defining inequalities of each branch.  The
exact laws are validated against enumeration and scipy.
"""
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symgap.setfn import (
    make_additive,
    make_budget_additive,
    pack,
    scale_oracle,
    singleton_words,
    word_count,
    words_from_bits,
)
from reference_oracles import extension_vector, masks_from_words
from symgap.instances import (
    AuctionInstance,
    CPPInstance,
    PhiAlpha,
    make_symgap_valuation,
)
from symgap.extensions import mean_stderr
from symgap.mechanisms import (
    CPPMechanism,
    DistributionOverOutcomes,
    GreedyCPP,
    RandomSubsetCPP,
    VCGExhaustiveAuction,
    PayYourBidGreedyAuction,
    run_trials,
)
from symgap.audit import (
    AmplificationState,
    amplification_step,
    _SCALING_STREAM,
    audit_truthfulness,
    basic_instance_counting,
    chernoff_bisection_test,
    DELTA_PAPER,
    extract_menu,
    figure_triple,
    hypothesis_satisfying_distribution,
    map_menu_to_qp,
    quadrant_feasible_exact,
    run_amplification,
    scalar_inequality_suite,
    scaling_probe,
    separate_quadrant,
    symmetry_gap_experiment,
    union_size_counts,
)
from symgap import audit


class TestTruthAudit:
    def _auction(self):
        v1 = make_additive([0.6, 0.4, 0.3, 0.2])
        v2 = make_additive([0.5, 0.5, 0.1, 0.4])
        return AuctionInstance((v1, v2))

    def test_vcg_clean(self):
        inst = self._auction()
        devs = [
            (0, make_additive([0.3, 0.2, 0.15, 0.1])),
            (0, make_additive([1.0, 0.8, 0.6, 0.4])),
            (1, make_additive([0.1, 0.9, 0.2, 0.3])),
        ]
        rep = audit_truthfulness(VCGExhaustiveAuction(), inst, devs, trials=50, seed=5)
        assert rep.passed
        assert len(rep.entries) == 3
        for e in rep.entries:
            assert not e.violation
            assert e.gap >= -1e-9

    def test_pay_your_bid_flagged(self):
        big = make_additive([10.0, 10.0])
        small = make_additive([0.5, 0.5])
        inst = AuctionInstance((big, small))
        devs = [(0, make_additive([1.0, 1.0]))]
        rep = audit_truthfulness(PayYourBidGreedyAuction(), inst, devs, trials=50, seed=5)
        assert not rep.passed
        e = rep.entries[0]
        assert e.violation
        # truth: value 20 pay 20 -> 0; shading to (1,1): value 20 pay 2 -> 18
        assert e.gap == pytest.approx(-18.0, abs=1e-9)

    def test_deterministic_reruns(self):
        inst = self._auction()
        devs = [(0, make_additive([0.3, 0.2, 0.15, 0.1]))]
        a = audit_truthfulness(VCGExhaustiveAuction(), inst, devs, trials=20, seed=9)
        b = audit_truthfulness(VCGExhaustiveAuction(), inst, devs, trials=20, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_eps_discounts_deviation_score(self):
        # with eps = 1 the deviation value term vanishes, so even the
        # pay-your-bid shading stops looking profitable on the value side
        big = make_additive([10.0, 10.0])
        small = make_additive([0.5, 0.5])
        inst = AuctionInstance((big, small))
        devs = [(0, make_additive([1.0, 1.0]))]
        rep = audit_truthfulness(
            PayYourBidGreedyAuction(), inst, devs, trials=20, seed=5, eps=1.0
        )
        # truth utility 0 vs deviation -(payment 2) = -2: no violation
        assert rep.passed


class TestSymmetryGapRun:
    def test_small_run_bounds_hold(self):
        rep = symmetry_gap_experiment(
            m=32,
            k=16,
            n=2,
            beta=0.25,
            phi=PhiAlpha(1.0),
            mechanisms=[RandomSubsetCPP(), GreedyCPP()],
            partitions=8,
            seed=21,
        )
        assert rep["passed"]
        assert len(rep["mechanisms"]) == 2
        informed = 0.75  # phi_1(1 - 0.25)
        for stats in rep["mechanisms"]:
            assert stats["ceiling_ok"] and stats["unbalanced_ok"] and stats["planted_ok"]
            assert stats["informed_benchmark"] == pytest.approx(informed)
            assert stats["planted_value"] >= informed - 1e-12
            assert 0.0 <= stats["X_mean"] <= 1.0
            assert stats["queries_total"] > 0

    def test_unbalanced_rate_definition(self):
        rep = symmetry_gap_experiment(
            m=16,
            k=8,
            n=2,
            beta=0.25,
            phi=PhiAlpha(1.0),
            mechanisms=[GreedyCPP()],
            partitions=4,
            seed=3,
        )
        s = rep["mechanisms"][0]
        assert s["unbalanced_rate"] == pytest.approx(
            s["unbalanced_queries"] / s["queries_total"]
        )


class _SampledGreedy(CPPMechanism):
    """Greedy over a random half of the free items at each step.  It asks
    for every candidate S + j through eval_extensions, decoding the answer
    item by item, or with `rows` through eval_many on the packed rows; both
    draw the same halves."""

    def __init__(self, rows: bool):
        self.rows = rows
        self.name = "rows" if rows else "extensions"

    def allocate(self, views, k, rng):
        view, m = views[0], views[0].m
        inside = np.zeros(m, dtype=bool)
        words = np.zeros(word_count(m), dtype=np.uint64)
        for _ in range(k):
            free = np.flatnonzero(~inside)
            if self.rows:
                values = view.eval_many(singleton_words(m)[free] | words)
            else:
                values = extension_vector(view.eval_extensions(words), words, m)
            half = np.flatnonzero(rng.random(free.size) < 0.5)
            if not half.size:
                continue
            inside[free[half[values[half].argmax()]]] = True
            words = words_from_bits(inside[None])[0]
        return words


class _AnswerChecker(CPPMechanism):
    """Walks S through k + 1 growing random prefixes; at each S it asks the
    probe for the extensions of S and for the rows S + j, and holds the
    answer to the extension-answer contract."""

    name = "answers"

    def __init__(self):
        self.asked = 0

    def allocate(self, views, k, rng):
        view, m = views[0], views[0].m
        order = rng.permutation(m)
        for size in range(k + 1):
            words = pack(order[:size], m)
            answer = view.eval_extensions(words)
            rows = singleton_words(m, np.sort(order[size:])) | words
            assert extension_vector(answer, words, m).tobytes() == view.eval_many(rows).tobytes()
            # only level sets group items: the empty set's answer is one
            # group, and a group of several items has a value of its own
            values, groups = answer
            assert size or len(values) == 1
            for g in np.flatnonzero(np.bitwise_count(groups).sum(axis=1) > 1).tolist():
                assert np.count_nonzero(values == values[g]) == 1
            self.asked += 2 * (m - size)
        return pack(order[:k], m)


class TestProbeClassifiesExtensions:
    """The probe answers eval_extensions from count classes.  Its Chernoff
    gate input, the unbalanced-query count, must equal the count of the
    same queries asked as packed rows."""

    @pytest.mark.parametrize("m, beta", [(40, 0.1), (40, 0.3), (130, 0.05)])
    def test_answers_decode_to_the_row_values(self, m, beta):
        checker = _AnswerChecker()
        report = symmetry_gap_experiment(
            m=m, k=m // 2, n=2, beta=beta, phi=PhiAlpha(0.5),
            mechanisms=[checker], partitions=3, seed=5,
        )["mechanisms"][0]
        assert report["queries_total"] == checker.asked

    @pytest.mark.parametrize(
        "m, beta, seed", [(40, 0.1, 0), (40, 0.3, 3), (130, 0.05, 1), (130, 0.02, 2)]
    )
    def test_same_counts_and_values_as_rows(self, m, beta, seed):
        reports = [
            symmetry_gap_experiment(
                m=m, k=m // 2, n=2, beta=beta, phi=PhiAlpha(1.0),
                mechanisms=[_SampledGreedy(rows)], partitions=4, seed=seed,
            )["mechanisms"][0]
            for rows in (False, True)
        ]
        ext, rows = ({k: v for k, v in r.items() if k != "mechanism"} for r in reports)
        assert ext["queries_total"] == rows["queries_total"] > 0
        assert ext["unbalanced_queries"] == rows["unbalanced_queries"] > 0
        assert ext["value_mean"] == rows["value_mean"]
        assert ext == rows


class _QueryRecorder(CPPMechanism):
    """Grows S along a random order.  At each step it asks the extensions of
    S, and as packed rows S + j for the next three items of the order and
    three random sets; it logs every query, one list per partition."""

    name = "recorder"

    def __init__(self):
        self.log = []

    def allocate(self, views, k, rng):
        view, m = views[0], views[0].m
        asked = []
        self.log.append(asked)
        order = rng.permutation(m)
        for size in range(k):
            words = pack(order[:size], m)
            view.eval_extensions(words)
            asked.append(("extensions", words))
            rows = np.vstack([
                singleton_words(m, order[size : size + 3]) | words,
                words_from_bits(rng.random((3, m)) < rng.random()),
            ])
            view.eval_many(rows)
            asked.append(("rows", rows))
        return pack(order[:k], m)


class TestProbeRecount:
    """The probe's unbalanced-query count, recounted from a log of every
    query: the bisection drawn again from each partition's seed, and every
    row and every extension S + j classified one set at a time."""

    @pytest.mark.parametrize("m, beta", [(40, 0.3), (130, 0.05)])
    def test_unbalanced_queries_match_an_independent_recount(self, m, beta):
        seed, partitions = 4, 3
        recorder = _QueryRecorder()
        report = symmetry_gap_experiment(
            m=m, k=m // 2, n=2, beta=beta, phi=PhiAlpha(1.0),
            mechanisms=[recorder], partitions=partitions, seed=seed,
        )["mechanisms"][0]
        half, asked_total = m // 2, 0
        unbalanced = {"rows": 0, "extensions": 0}
        children = np.random.SeedSequence(entropy=(seed, 0)).spawn(partitions)
        for child, asked in zip(children, recorder.log, strict=True):
            # the experiment's first draw from the child: shuffle, then split
            perm = np.random.default_rng(child).permutation(m).tolist()
            A, B = (sum(1 << j for j in perm[lo : lo + half]) for lo in (0, half))
            for kind, words in asked:
                if kind == "rows":
                    masks = masks_from_words(words)
                else:
                    (S,) = masks_from_words(words[None])
                    masks = [S | 1 << j for j in range(m) if not S >> j & 1]
                asked_total += len(masks)
                unbalanced[kind] += sum(
                    abs((T & A).bit_count() - (T & B).bit_count()) / half > beta for T in masks
                )
        assert unbalanced["rows"] > 0 and unbalanced["extensions"] > 0
        assert report["unbalanced_queries"] == unbalanced["rows"] + unbalanced["extensions"]
        assert report["queries_total"] == asked_total


@st.composite
def _menu_columns(draw):
    """(X, P) with 1-4 entries of 1-12 trials each."""
    entries, trials = draw(st.integers(1, 4)), draw(st.integers(1, 12))

    def column(lo, hi):
        row = st.lists(st.floats(lo, hi), min_size=trials, max_size=trials)
        return np.array(draw(st.lists(row, min_size=entries, max_size=entries)))

    return column(0.0, 1.0), column(-1.0, 1.0)


def _weighted_records_qp(X, P, phi, eps, ell):
    """(q, p) per entry from one weighted record per trial, each of weight
    1/(entries * trials): the weighted mean over an entry's records, summed
    in trial order with scalar phi calls."""
    err = 10.0 ** (-ell)
    w = 1.0 / (X.shape[0] * X.shape[1])
    points = []
    for x_row, p_row in zip(X.tolist(), P.tolist()):
        weights = [w] * len(x_row)
        wsum = sum(weights)
        terms = [(1.0 - eps) * float(phi.value(max(x - err, 0.0))) - err for x in x_row]
        q = sum(wt * term for wt, term in zip(weights, terms)) / wsum
        points.append((q, sum(wt * p for wt, p in zip(weights, p_row)) / wsum))
    return points


class TestMenus:
    def _setup(self):
        m = 6
        A, B = pack([0, 1], m), pack([2, 3], m)
        phi = PhiAlpha(0.5)
        family = [
            make_symgap_valuation(m, A, B, phi, 0.25, lam) for lam in (0.5, 1.0)
        ]
        opponent = make_additive([0.0, 0.0, 0.0, 0.0, 0.3, 0.3])
        inst = AuctionInstance((family[1].oracle(), opponent))
        return inst, family

    def test_menu_is_entries_by_trials_columns(self):
        inst, family = self._setup()
        X, P = extract_menu(VCGExhaustiveAuction(), inst, 0, family, trials=4, seed=2)
        assert X.shape == P.shape == (len(family), 4)
        assert X.dtype == P.dtype == np.float64
        assert ((0.0 <= X) & (X <= 1.0)).all()

    def test_qp_formula_against_inline_reference(self):
        phi = PhiAlpha(0.5)
        X = np.array([[0.9, 0.4], [0.7, 0.7]])
        P = np.array([[0.2, 0.1], [0.05, 0.05]])
        eps, ell = 0.02, 1
        err = 0.1

        def phi_v(t):
            return min(t / 0.5, 1.0) if t > 0 else 0.0

        pts = map_menu_to_qp(X, P, phi, eps, ell)
        assert [pt.provenance for pt in pts] == [0, 1]
        q0_ref = 0.5 * ((1 - eps) * phi_v(0.8) - err) + 0.5 * ((1 - eps) * phi_v(0.3) - err)
        assert pts[0].q == pytest.approx(q0_ref, abs=1e-12)
        assert pts[0].p == pytest.approx(0.15, abs=1e-12)
        assert pts[1].q == pytest.approx((1 - eps) * phi_v(0.6) - err, abs=1e-12)
        assert pts[1].p == pytest.approx(0.05, abs=1e-12)

    # the menu-separation demo at --menu-trials 7: a plain mean puts q one
    # ulp below its threshold, where this formula puts it one ulp above
    @example(columns=(np.ones((3, 7)), np.zeros((3, 7))), alpha=0.5, eps=1e-4, ell=1)
    @settings(max_examples=200, deadline=None)
    @given(
        columns=_menu_columns(),
        alpha=st.floats(0.05, 1.0),
        eps=st.floats(0.0, 0.1),
        ell=st.integers(1, 3),
    )
    def test_qp_equals_weighted_records_bit_for_bit(self, columns, alpha, eps, ell):
        X, P = columns
        phi = PhiAlpha(alpha)
        got = [(pt.q, pt.p) for pt in map_menu_to_qp(X, P, phi, eps, ell)]
        assert got == _weighted_records_qp(X, P, phi, eps, ell)


class TestSeparation:
    def _check_result(self, points, q0, p0, res):
        if res.branch == "witness":
            assert len(res.indices) <= 2
            assert sum(res.weights) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= -1e-12 for w in res.weights)
            q = sum(w * points[i][0] for i, w in zip(res.indices, res.weights))
            p = sum(w * points[i][1] for i, w in zip(res.indices, res.weights))
            assert q >= q0 - 1e-9
            assert p <= p0 + 1e-9
            assert res.point == pytest.approx((q, p), abs=1e-12)
        else:
            assert res.lam_q >= 0 and res.lam_p >= 0
            assert res.lam_q + res.lam_p > 0
            assert res.margin > 0
            ref = res.lam_q * q0 - res.lam_p * p0
            for q, p in points:
                assert res.lam_q * q - res.lam_p * p < ref - res.margin + 1e-9

    def test_single_point_witness(self):
        pts = [(0.2, 0.9), (0.8, 0.1)]
        res = separate_quadrant(pts, 0.7, 0.2)
        assert res.branch == "witness"
        assert res.indices == (1,)
        self._check_result(pts, 0.7, 0.2, res)

    def test_pair_witness(self):
        # neither point is in the quadrant but their midpoint is
        pts = [(1.0, 0.5), (0.0, -0.5)]
        res = separate_quadrant(pts, 0.4, 0.1)
        assert res.branch == "witness"
        assert len(res.indices) == 2
        self._check_result(pts, 0.4, 0.1, res)

    def test_dominated_points_get_line(self):
        pts = [(0.1, 0.5), (0.3, 0.9), (0.2, 0.7)]
        res = separate_quadrant(pts, 0.5, 0.1)
        assert res.branch == "line"
        self._check_result(pts, 0.5, 0.1, res)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            separate_quadrant([], 0.0, 0.0)

    def test_agrees_with_exact_oracle(self):
        rng = np.random.default_rng(77)
        witness = line = 0
        for _ in range(120):
            n = int(rng.integers(1, 6))
            pts = [tuple(rng.uniform(-1, 1, 2)) for _ in range(n)]
            q0, p0 = rng.uniform(-1, 1, 2)
            res = separate_quadrant(pts, q0, p0)
            feasible = quadrant_feasible_exact(pts, q0, p0)
            assert (res.branch == "witness") == feasible
            self._check_result(pts, q0, p0, res)
            witness += res.branch == "witness"
            line += res.branch == "line"
        assert witness > 10 and line > 10

    def test_exact_oracle_finds_interval_narrower_than_a_grid(self):
        # feasible exactly for w in [0.50005, 0.50015], between two 1e-3 grid points
        pts = [(1.0, 1.0), (-1.0, -1.0)]
        assert quadrant_feasible_exact(pts, 1e-4, 3e-4)
        assert separate_quadrant(pts, 1e-4, 3e-4).branch == "witness"
        assert not quadrant_feasible_exact(pts, 1e-4, 9e-5)
        assert separate_quadrant(pts, 1e-4, 9e-5).branch == "line"

    def test_exact_oracle_single_points_and_snap(self):
        assert quadrant_feasible_exact([(0.5, 0.5)], 0.5 + 1e-12, 0.5 - 1e-12)
        assert not quadrant_feasible_exact([(0.5, 0.5)], 0.5 + 2e-12, 0.5)
        assert not quadrant_feasible_exact([(0.5, 0.5)], 0.5, 0.5 - 2e-12)


class TestAmplification:
    def test_case1_arithmetic(self):
        st = AmplificationState(0, 1.0, 0.5, 0.05)
        xs = np.array([0.9, 0.6])
        ws = np.array([0.5, 0.5])
        # both atoms above sqrt(0.05) ~ 0.2236: tail 1 > 2*0.05*0.5
        nxt, cert = amplification_step(st, xs, ws)
        assert cert.case == 1
        assert cert.tail_probability == pytest.approx(1.0)
        alpha_next = 0.5 * 1.05
        assert nxt.alpha == pytest.approx(alpha_next)
        xi_ref = 0.5 * min(0.9 / alpha_next, 1.0) + 0.5 * min(0.6 / alpha_next, 1.0)
        assert nxt.xi == pytest.approx(xi_ref, abs=1e-12)
        assert cert.lhs == pytest.approx(nxt.alpha * nxt.xi**1.05, abs=1e-12)
        assert cert.rhs == pytest.approx(0.5 * (1 + 0.05**2) * 1.0 * 0.5**1.05, abs=1e-12)
        assert nxt.j == 1

    def test_case2_arithmetic(self):
        delta = 0.05
        st = AmplificationState(2, 0.8, 0.4, delta)
        xs = np.array([0.1, 0.05])  # below sqrt(delta) * alpha ~ 0.179
        nxt, cert = amplification_step(st, xs)
        assert cert.case == 2
        assert cert.tail_probability == 0.0
        assert nxt.alpha == pytest.approx(math.sqrt(delta) * 0.8)
        xi_ref = 0.5 * min(0.1 / nxt.alpha, 1.0) + 0.5 * min(0.05 / nxt.alpha, 1.0)
        assert nxt.xi == pytest.approx(xi_ref, abs=1e-12)

    def test_quad_and_hypothesis_fields(self):
        st = AmplificationState(0, 1.0, 0.3, 0.05)
        xs, ws = np.array([0.5]), np.array([1.0])
        _, cert = amplification_step(st, xs, ws)
        assert cert.quad_value == pytest.approx(1 - (1 - 0.5) ** 2)
        assert cert.hypothesis_satisfied  # 0.75 >= (1 - 2 eps) 0.3
        assert cert.holds is not None

    def test_vacuous_when_hypothesis_fails(self):
        st = AmplificationState(0, 1.0, 0.9, 0.05)
        xs, ws = np.array([0.01]), np.array([1.0])
        _, cert = amplification_step(st, xs, ws)
        assert not cert.hypothesis_satisfied
        assert cert.holds is None

    def test_weights_must_sum_to_one(self):
        st = AmplificationState(0, 1.0, 0.5, 0.05)
        with pytest.raises(ValueError):
            amplification_step(st, [0.5, 0.6], [0.7, 0.7])

    def test_certificates_hold_on_hypothesis_distributions(self):
        rng = np.random.default_rng(123)
        for delta in (DELTA_PAPER, 0.05):
            state = AmplificationState(0, 1.0, 0.6, delta)
            for _ in range(150):
                xs, ws = hypothesis_satisfying_distribution(state, rng)
                _, cert = amplification_step(state, xs, ws)
                assert cert.hypothesis_satisfied
                assert cert.holds

    def test_run_chains_and_telescopes(self):
        rep = run_amplification(ell=4, delta=0.05, c=0.7, seed=11)
        assert rep["passed"]
        assert rep["telescoping_ok"] and rep["feasibility_floor_ok"]
        assert len(rep["certificates"]) == 4
        target = (0.5 * (1 + 0.05**2)) ** 4 * 0.7**1.05
        assert rep["telescoped_target"] == pytest.approx(target, abs=1e-15)
        assert rep["potential"] >= target * (1 - 1e-9)
        assert rep["final_state"]["j"] == 4

    def test_paper_profile_label(self):
        st = AmplificationState(0, 1.0, 0.5, DELTA_PAPER)
        assert st.profile == "paper"
        assert st.eps == pytest.approx(DELTA_PAPER**4)
        assert AmplificationState(0, 1.0, 0.5, 0.05).profile == "non_paper"

    def test_c_validated(self):
        with pytest.raises(ValueError):
            run_amplification(2, 0.05, 0.0, 1)
        with pytest.raises(ValueError):
            run_amplification(2, 0.05, 1.5, 1)


class TestScalarInequalities:
    def test_suite_passes(self):
        rep = scalar_inequality_suite(grid=20_000)
        assert rep["passed"]
        names = [r["name"] for r in rep["records"]]
        assert names[:3] == ["pow_delta", "case2_chain", "case1_chain"]
        assert len(names) == 5
        for r in rep["records"]:
            assert r["worst_margin"] >= -1e-12
        for b in rep["boundary_equalities"].values():
            assert b["equality_ok"]

    def test_random_spot_checks(self):
        # recompute each inequality with a different float arrangement
        rng = np.random.default_rng(5)
        for d in rng.uniform(1e-12, 1.0, 200):
            assert math.exp(d * math.log1p(d)) <= 1.0 + d * d + 1e-12
        for d in rng.uniform(0.0, 0.25, 200):
            base = 1.0 - 4.0 * d + 2.0 * d**1.5
            assert base ** (1.0 + d) >= 1.0 - 4.0 * d - 1e-12
        for d in rng.uniform(0.0, 0.5, 200):
            base = 1.0 + 2.0 * d * d - 2.0 * d**4
            assert base ** (1.0 + d) >= 1.0 + 2.0 * d * d + d**4 - 1e-12
        delta = 0.05
        for t in rng.uniform(math.sqrt(delta), 1.5, 200):
            lhs = min(2.0 * t, 1.0 + delta)
            rhs = 1.0 - (1.0 - min(t, 1.0)) ** 2 + delta
            assert lhs >= rhs - 1e-12

    def test_figure_triple_shape(self):
        rows = figure_triple(0.05, points=301)
        assert len(rows) == 301
        assert rows[0] == (0.0, 0.0, 0.05, 0.0)
        for t, ramp, shifted, quad in rows:
            assert shifted == pytest.approx(quad + 0.05, abs=1e-15)
            assert ramp == pytest.approx(min(2 * t, 1.05), abs=1e-15)
        assert rows[-1][0] == pytest.approx(1.5)


class TestExactLaws:
    @staticmethod
    def _enumerated_tail(m_prime: int, beta: float) -> float:
        """P(||S∩A| - |S∩B|| > beta m') over every equal bisection, S = first half."""
        half = m_prime // 2
        exceed = sum(
            abs(2 * sum(i < half for i in A) - half) > beta * m_prime
            for A in itertools.combinations(range(m_prime), half)
        )
        return exceed / math.comb(m_prime, half)

    @pytest.mark.parametrize("m_prime", [2, 4, 6, 8, 10, 12])
    @pytest.mark.parametrize("beta", [0.05, 0.1, 0.2, 0.25, 0.5])
    def test_chernoff_tail_matches_enumeration(self, m_prime, beta):
        # beta = 0.25 and 0.5 put beta m' on an integer at some sizes: the tail is strict
        rep = chernoff_bisection_test(m_prime, beta)
        assert rep["exact_tail"] == self._enumerated_tail(m_prime, beta)
        assert rep["passed"] == (rep["exact_tail"] <= rep["bound"])

    @pytest.mark.parametrize("m_prime, beta", [(100, 0.2), (400, 0.1), (400, 0.2)])
    def test_chernoff_tail_matches_scipy_hypergeom(self, m_prime, beta):
        from scipy.stats import hypergeom

        half = m_prime // 2
        a = np.arange(half + 1)
        pmf = hypergeom(m_prime, half, half).pmf(a)
        expected = float(pmf[np.abs(2 * a - half) > beta * m_prime].sum())
        rep = chernoff_bisection_test(m_prime, beta)
        assert rep["exact_tail"] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert rep["passed"]
        assert rep["bound"] == 4 * math.exp(-beta * beta * m_prime / 2)

    def test_chernoff_odd_rejected(self):
        with pytest.raises(ValueError):
            chernoff_bisection_test(101, 0.1)

    @pytest.mark.parametrize("n, m", [(2, 4), (3, 6), (2, 6), (4, 4)])
    def test_union_law_matches_enumeration(self, n, m):
        sets = [set(c) for c in itertools.combinations(range(m), m // n)]
        law = Counter(len(set().union(*seq)) for seq in itertools.product(sets, repeat=n))
        assert union_size_counts(n, m) == [law[u] for u in range(m + 1)]

    def test_counting_small(self):
        rep = basic_instance_counting(2, 4)
        assert rep["passed"] and rep["closed_form_exact"]
        assert rep["exact_mean"] == rep["expected"] == 3.0

    def test_planted_wrong_closed_form_fails(self, monkeypatch):
        monkeypatch.setattr(
            audit, "_union_closed_form",
            lambda n, m: (m * (n ** (n - 1) - (n - 1) ** (n - 1)), n ** (n - 1)),
        )
        for n, m in ((2, 4), (4, 16), (16, 160)):
            rep = basic_instance_counting(n, m)
            assert not rep["closed_form_exact"] and not rep["passed"]

    def test_counting_divisibility(self):
        with pytest.raises(ValueError):
            basic_instance_counting(3, 4)


def _cpp_closure(mech, k):
    """Public-project mechanism as declared oracle -> sampled packed row."""

    def closure(declared, rng):
        views = (declared,) if getattr(mech, "needs_descriptor", False) else (
            declared.restricted_view(),
        )
        res = mech.allocate(views, k, rng)
        return res.sample(rng) if isinstance(res, DistributionOverOutcomes) else res

    return closure


def _auction_closure(mech, others, special):
    """Auction mechanism as the special player's declared oracle -> bundle,
    the other declarations held fixed."""

    def closure(declared, rng):
        oracles = list(others)
        oracles.insert(special, declared)
        return mech.allocate(tuple(o.restricted_view() for o in oracles), rng).sets[special]

    return closure


def _closure_scaling_probe(closure, oracle, schedule, trials, seed, eps=0.0, wm_pairs=()):
    """The scaling probe as a per-trial loop over an allocation closure, one
    rng per schedule point and per pair, each bundle scored with scalar eval:
    an independent reference for a mechanism that draws nothing."""
    children = np.random.SeedSequence(seed).spawn(len(schedule) + len(wm_pairs))
    trace = []
    for idx, alpha in enumerate(schedule):
        declared = scale_oracle(oracle, float(alpha))
        rng = np.random.default_rng(children[idx])
        vals = np.array([oracle.eval(closure(declared, rng)) for _ in range(trials)])
        mean, se = mean_stderr(vals)
        trace.append({"alpha": float(alpha), "value": mean, "stderr": se})
    sup = max(t["value"] for t in trace)
    sup_se = max(t["stderr"] for t in trace)
    tail = trace[-1]
    envelope_ok = tail["value"] >= (1.0 - eps) * sup - 4.0 * math.hypot(
        tail["stderr"], sup_se
    ) - 1e-9
    wm = []
    for pair_idx, (u_orc, v_orc) in enumerate(wm_pairs):
        rng = np.random.default_rng(children[len(schedule) + pair_idx])
        outs_v = [closure(v_orc, rng) for _ in range(trials)]
        outs_u = [closure(u_orc, rng) for _ in range(trials)]
        v_Av, u_Av = (np.array([o.eval(S) for S in outs_v]) for o in (v_orc, u_orc))
        v_Au, u_Au = (np.array([o.eval(S) for S in outs_u]) for o in (v_orc, u_orc))
        lhs = v_Av.mean() - (1.0 - eps) * u_Av.mean()
        rhs = (1.0 - eps) * v_Au.mean() - u_Au.mean()
        se = math.sqrt(
            (np.var(v_Av - (1.0 - eps) * u_Av, ddof=1) + np.var((1.0 - eps) * v_Au - u_Au, ddof=1))
            / trials
        )
        ok = lhs >= rhs - 4.0 * se - 1e-9
        wm.append(
            {"pair": pair_idx, "lhs": float(lhs), "rhs": float(rhs), "stderr": se, "ok": bool(ok)}
        )
    return {
        "experiment": "scaling_probe",
        "params": {"schedule": [float(a) for a in schedule], "trials": trials, "eps": eps},
        "seed": seed,
        "trace": trace,
        "supremum": sup,
        "tail_value": tail["value"],
        "envelope_ok": bool(envelope_ok),
        "weak_monotonicity": wm,
        "passed": bool(envelope_ok and all(e["ok"] for e in wm)),
    }


def _budget_additive(rng, m):
    w = rng.uniform(0.1, 1.0, m)
    return make_budget_additive([float(x) for x in w], float(0.6 * w.sum()))


class TestScalingProbe:
    def test_greedy_cpp_scale_invariant(self):
        oracle = make_additive([0.5, 0.4, 0.3, 0.2, 0.1])
        wm = [
            (scale_oracle(oracle, 0.5), oracle),
            (make_additive([0.1, 0.2, 0.3, 0.4, 0.5]), oracle),
        ]
        rep = scaling_probe(
            GreedyCPP(), CPPInstance((oracle,), 2), schedule=[0.5, 1.0, 2.0], trials=8, seed=9,
            wm_pairs=wm,
        )
        assert rep["passed"]
        # greedy picks the same top-2 items at every scale
        vals = [t["value"] for t in rep["trace"]]
        assert max(vals) - min(vals) <= 1e-12
        assert len(rep["weak_monotonicity"]) == 2

    def test_auction_traces_player_zero(self):
        special = make_additive([0.6, 0.5, 0.1, 0.1])
        other = make_additive([0.2, 0.2, 0.4, 0.4])
        rep = scaling_probe(
            VCGExhaustiveAuction(), AuctionInstance((special, other)),
            schedule=[0.25, 1.0, 4.0], trials=6, seed=3,
        )
        assert rep["envelope_ok"]
        assert rep["trace"][1]["value"] == pytest.approx(1.1)

    @pytest.mark.parametrize("seed", [0, 5, 29, 41])
    def test_greedy_cpp_equals_closure_reference(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 7, 3
        oracle = _budget_additive(rng, m)
        wm = [
            (scale_oracle(oracle, 0.5), oracle),
            (make_additive([float(x) for x in rng.uniform(0.0, 0.5, m)]), oracle),
        ]
        schedule = [0.1, 0.5, 1.0, 3.0]
        got = scaling_probe(GreedyCPP(), CPPInstance((oracle,), k), schedule, 9, seed, wm_pairs=wm)
        expected = _closure_scaling_probe(
            _cpp_closure(GreedyCPP(), k), oracle, schedule, 9, seed, wm_pairs=wm
        )
        assert repr(got) == repr(expected)

    @pytest.mark.parametrize("seed", [0, 5, 29, 41])
    def test_vcg_auction_equals_closure_reference(self, seed):
        rng = np.random.default_rng(seed)
        m = 5
        special, other = _budget_additive(rng, m), make_additive(list(rng.uniform(0.0, 0.6, m)))
        wm = [(scale_oracle(special, 0.7), special), (_budget_additive(rng, m), special)]
        schedule = [0.25, 1.0, 4.0]
        inst = AuctionInstance((special, other))
        got = scaling_probe(VCGExhaustiveAuction(), inst, schedule, 6, seed, eps=0.1, wm_pairs=wm)
        expected = _closure_scaling_probe(
            _auction_closure(VCGExhaustiveAuction(), [other], 0), special, schedule, 6, seed,
            eps=0.1, wm_pairs=wm,
        )
        assert repr(got) == repr(expected)

    def test_each_declaration_runs_on_its_own_stream(self):
        # a mechanism that draws: point i and pair declarations v, u take the
        # entropy (seed, index, _SCALING_STREAM) with index 0, 1, ... in turn
        oracle = make_additive([0.1 * j for j in range(1, 9)])
        u = make_additive([0.05] * 8)
        inst = CPPInstance((oracle,), 3)
        schedule = [0.5, 2.0]
        rep = scaling_probe(RandomSubsetCPP(), inst, schedule, 12, 4, wm_pairs=[(u, oracle)])

        def words(idx, declared):
            runs = run_trials(
                RandomSubsetCPP(), CPPInstance((declared,), 3), 12, (4, idx, _SCALING_STREAM)
            )
            return runs.words[:, 0]

        for idx, alpha in enumerate(schedule):
            vals = oracle.eval_many(words(idx, scale_oracle(oracle, alpha)))
            assert rep["trace"][idx]["value"] == mean_stderr(vals)[0]
        at_v, at_u = words(2, oracle), words(3, u)
        lhs = oracle.eval_many(at_v).mean() - u.eval_many(at_v).mean()
        rhs = oracle.eval_many(at_u).mean() - u.eval_many(at_u).mean()
        assert (rep["weak_monotonicity"][0]["lhs"], rep["weak_monotonicity"][0]["rhs"]) == (
            float(lhs), float(rhs)
        )
        assert not np.array_equal(words(0, oracle), words(1, oracle))


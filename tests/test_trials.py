"""The shared trial runner: the `deterministic` contract, replication of
deterministic mechanisms, and independent random streams per declaration.

Replication is checked against the same mechanism declared
non-deterministic, which re-runs allocate on every trial.  The packed
trial columns, and the batch scoring built on them, are checked against a
scalar reference: one outcome per trial, each scored with one scalar eval,
with equal values and equal query counts.
"""
import inspect

import numpy as np
import pytest

from symgap import mechanisms
from symgap.setfn import (
    OracleView,
    make_additive,
    make_budget_additive,
    pack,
    scale_oracle,
)
from symgap.extensions import mean_stderr
from symgap.instances import (
    AuctionInstance,
    CPPInstance,
    PhiAlpha,
    make_symgap_valuation,
)
from symgap.mechanisms import (
    AuctionMechanism,
    CPPMechanism,
    GreedyCPP,
    InfeasibleOutcomeError,
    Outcome,
    PayYourBidGreedyAuction,
    RandomSubsetCPP,
    VCGExhaustiveAuction,
    run_trials,
)
from symgap.audit import (
    _DEVIATION_STREAM,
    _MENU_STREAM,
    audit_truthfulness,
    extract_menu,
)
from reference_oracles import mask_of, masks_from_words, oracle_from_scalar


def _mechanism_classes():
    bases = (CPPMechanism, AuctionMechanism)
    return [
        cls
        for cls in vars(mechanisms).values()
        if inspect.isclass(cls) and issubclass(cls, bases) and not inspect.isabstract(cls)
    ]


def _deterministic_classes():
    return [cls for cls in _mechanism_classes() if cls.deterministic]


def _additive(rng, m):
    return make_additive([float(w) for w in rng.uniform(0.0, 1.0, m)])


def _declarations(cls):
    """Fixed declared oracles and the allocate arguments that precede rng."""
    rng = np.random.default_rng(21)
    m = 6
    w = rng.uniform(0.0, 1.0, m)
    oracles = (
        _additive(rng, m),
        make_budget_additive([float(x) for x in w], float(0.6 * w.sum())),
    )
    views = tuple(o.restricted_view() for o in oracles)
    args = (views, 3) if issubclass(cls, CPPMechanism) else (views,)
    return oracles, args


def test_deterministic_mechanisms_are_discovered():
    names = {cls.__name__ for cls in _deterministic_classes()}
    assert {"GreedyCPP", "VCGExhaustiveAuction"} <= names


@pytest.mark.parametrize("cls", _deterministic_classes(), ids=lambda c: c.__name__)
def test_deterministic_flag_is_honest(cls):
    oracles, args = _declarations(cls)
    mech = cls()
    results = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        before = sum(o.query_count for o in oracles)
        out = mech.allocate(*args, rng)
        # bundles as lists of words, so that results compare by value
        out = (out.sets.tolist(), out.payments) if isinstance(out, Outcome) else out.tolist()
        results.append((out, sum(o.query_count for o in oracles) - before))
        assert rng.bit_generator.state == state
    assert results[0] == results[1]


class _Spy:
    """Forwards allocate to a real mechanism, counts the calls, and declares
    itself deterministic or not as told."""

    def __init__(self, inner, deterministic):
        self.inner = inner
        self.deterministic = deterministic
        self.name = inner.name
        self.calls = 0

    def allocate(self, *args):
        self.calls += 1
        return self.inner.allocate(*args)


def _both(inner_cls, fn):
    """fn(spy) for a replicated and a re-run spy of one mechanism."""
    replicated, rerun = _Spy(inner_cls(), True), _Spy(inner_cls(), False)
    return (fn(replicated), replicated.calls), (fn(rerun), rerun.calls)


def _auction():
    rng = np.random.default_rng(4)
    return AuctionInstance((_additive(rng, 5), _additive(rng, 5)))


def _cpp():
    return CPPInstance((make_additive([0.5, 0.4, 0.3, 0.2, 0.1]),), 2)


TRIALS = 6


@pytest.mark.parametrize("inner_cls", [VCGExhaustiveAuction, PayYourBidGreedyAuction])
def test_replication_in_audit_truthfulness(inner_cls):
    inst = _auction()
    rng = np.random.default_rng(5)
    devs = [(0, _additive(rng, 5)), (1, _additive(rng, 5)), (0, _additive(rng, 5))]
    (a, calls_a), (b, calls_b) = _both(
        inner_cls, lambda mech: audit_truthfulness(mech, inst, devs, TRIALS, seed=3)
    )
    assert a.to_dict() == b.to_dict()
    assert (calls_a, calls_b) == (1 + len(devs), TRIALS * (1 + len(devs)))


def test_replication_in_extract_menu():
    m = 6
    A, B = pack([0, 1], m), pack([2, 3], m)
    family = [
        make_symgap_valuation(m, A, B, PhiAlpha(0.5), 0.25, lam) for lam in (0.5, 1.0)
    ]
    opponent = make_additive([0.0, 0.0, 0.0, 0.0, 0.3, 0.3])
    inst = AuctionInstance((family[1].oracle(), opponent))
    (a, calls_a), (b, calls_b) = _both(
        VCGExhaustiveAuction, lambda mech: extract_menu(mech, inst, 0, family, TRIALS, seed=2)
    )
    assert [col.tolist() for col in a] == [col.tolist() for col in b]
    assert (calls_a, calls_b) == (len(family), TRIALS * len(family))


def _columns(runs):
    return runs.words.tolist(), runs.payments.tolist()


@pytest.mark.parametrize(
    "inner_cls, instance", [(GreedyCPP, _cpp), (VCGExhaustiveAuction, _auction)]
)
def test_replication_in_run_trials(inner_cls, instance):
    inst, ref_inst = instance(), instance()
    replicated, rerun = _Spy(inner_cls(), True), _Spy(inner_cls(), False)
    a = run_trials(replicated, inst, TRIALS, seed=8)
    b = run_trials(rerun, ref_inst, TRIALS, seed=8)
    assert _columns(a) == _columns(b)
    assert (replicated.calls, rerun.calls) == (1, TRIALS)
    # one allocate call's queries, against one per trial
    spent = [o.query_count for o in inst.oracles]
    assert sum(spent) > 0
    assert [TRIALS * q for q in spent] == [o.query_count for o in ref_inst.oracles]


def test_trial_t_draws_from_child_t_of_the_seed():
    inst = CPPInstance((make_additive([0.1 * j for j in range(1, 9)]),), 3)
    mech = RandomSubsetCPP()
    views = tuple(o.restricted_view() for o in inst.oracles)
    children = np.random.SeedSequence((4, 1, 2)).spawn(TRIALS)
    expected = [mech.allocate(views, 3, np.random.default_rng(c)) for c in children]
    before = inst.oracles[0].query_count
    runs = run_trials(mech, inst, TRIALS, (4, 1, 2))
    assert runs.words.shape == (TRIALS, 1, 1)
    assert masks_from_words(runs.words[:, 0]) == [mask_of(S) for S in expected]
    assert runs.payments.tolist() == [[0.0]] * TRIALS
    # one confirmation query per trial
    assert inst.oracles[0].query_count - before == TRIALS


@pytest.mark.parametrize("cls", _mechanism_classes(), ids=lambda c: c.__name__)
def test_run_trials_call_t_gets_child_t(cls):
    states = []

    class Spy(cls):
        def allocate(self, *args):
            states.append(args[-1].bit_generator.state)
            return super().allocate(*args)

    inst = _cpp() if issubclass(cls, CPPMechanism) else _auction()
    run_trials(Spy(), inst, TRIALS, (4, 1, 2))
    # a deterministic mechanism is allocated once, with child 0
    calls = 1 if cls.deterministic else TRIALS
    children = np.random.SeedSequence((4, 1, 2)).spawn(TRIALS)[:calls]
    assert states == [np.random.default_rng(c).bit_generator.state for c in children]


@pytest.mark.parametrize("cls", _mechanism_classes(), ids=lambda c: c.__name__)
def test_run_trials_hands_every_mechanism_views(cls):
    seen = []

    class Spy(cls):
        def allocate(self, views, *rest):
            seen.append(views)
            return super().allocate(views, *rest)

    inst = _cpp() if issubclass(cls, CPPMechanism) else _auction()
    run_trials(Spy(), inst, TRIALS, seed=2)
    assert len(seen) == (1 if cls.deterministic else TRIALS)
    for views in seen:
        assert [type(v) for v in views] == [OracleView] * inst.n
        with pytest.raises(AttributeError):
            views[0].descriptor


def test_replicated_outcome_fills_every_row():
    inst = _auction()
    outcome = VCGExhaustiveAuction().allocate(inst.oracles, None)
    before = [o.query_count for o in inst.oracles]
    runs = run_trials(VCGExhaustiveAuction(), inst, TRIALS, 5)
    assert runs.words.dtype == np.uint64 and runs.words.shape == (TRIALS, 2, 1)
    for i, S in enumerate(outcome.sets):
        assert masks_from_words(runs.words[:, i]) == [mask_of(S)] * TRIALS
    assert runs.payments.tolist() == [list(outcome.payments)] * TRIALS
    # one allocate call: one 2^5-entry table per player
    assert [o.query_count - q for o, q in zip(inst.oracles, before)] == [2**5, 2**5]


class _Oversized(CPPMechanism):
    """Returns k + 1 items."""

    deterministic = True

    def allocate(self, views, k, rng):
        return pack(range(k + 1), views[0].m)


def test_infeasible_outcome_raises():
    with pytest.raises(InfeasibleOutcomeError, match="exceeds k = 2"):
        run_trials(_Oversized(), _cpp(), TRIALS, 0)


# ---------------------------------------------------------------------------
# batch scoring against a scalar reference: per-trial objects, scalar eval
# ---------------------------------------------------------------------------


def _scalar_trials(mech, instance, trials, seed):
    """The outcome of each trial, allocating once per declaration for a
    deterministic mechanism."""
    views = tuple(o.restricted_view() for o in instance.oracles)
    head = (views, instance.k) if isinstance(instance, CPPInstance) else (views,)
    runs = []
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.default_rng(child)
        if t == 0 or not mech.deterministic:
            out = mech.allocate(*head, rng)
        runs.append(out)
    return runs


def _bundle(out, player):
    return out.sets[player] if isinstance(out, Outcome) else out


def _payment(out, player):
    return out.payments[player] if isinstance(out, Outcome) else 0.0


def _scalar_scores(mech, instance, deviations, trials, seed, eps):
    """(truth mean, stderr, deviation mean, stderr) per deviation, each
    trial scored with one scalar eval."""
    oracles = instance.oracles
    truth = _scalar_trials(mech, instance, trials, seed)
    truth_scores = {}
    rows = []
    for d, (player, dev_oracle) in enumerate(deviations):
        if player not in truth_scores:
            truth_scores[player] = np.array(
                [oracles[player].eval(_bundle(out, player)) - _payment(out, player)
                 for out in truth]
            )
        declared = list(oracles)
        declared[player] = dev_oracle
        if isinstance(instance, CPPInstance):
            dev_instance = CPPInstance(tuple(declared), instance.k)
        else:
            dev_instance = AuctionInstance(tuple(declared))
        dev = _scalar_trials(mech, dev_instance, trials, (seed, d, _DEVIATION_STREAM))
        dev_vals = np.array(
            [(1.0 - eps) * oracles[player].eval(_bundle(out, player)) - _payment(out, player)
             for out in dev]
        )
        rows.append(mean_stderr(truth_scores[player]) + mean_stderr(dev_vals))
    return rows


def _scalar_menu(mech, instance, special, family, trials, seed):
    """(X, P) as nested lists, one row per declared entry and one scalar
    outcome per trial."""
    X, P = [], []
    for prov, entry in enumerate(family):
        level_set = entry.A | entry.B
        declared = list(instance.oracles)
        declared[special] = entry.oracle()
        runs = _scalar_trials(
            mech, AuctionInstance(tuple(declared)), trials, (seed, prov, _MENU_STREAM)
        )
        X.append([
            (mask_of(_bundle(out, special)) & mask_of(level_set)).bit_count()
            / mask_of(level_set).bit_count()
            for out in runs
        ])
        P.append([_payment(out, special) for out in runs])
    return X, P


def _plain_additive(weights):
    """An additive oracle whose batch evaluator runs a scalar function row
    by row."""
    w = [float(x) for x in weights]

    def fn(mask):
        return sum((w[j] for j in range(len(w)) if mask >> j & 1), 0.0)

    return oracle_from_scalar(len(w), fn, {"kind": "additive", "params": {"weights": w}})


def _auction_case(plain=False):
    rng = np.random.default_rng(31)
    build = _plain_additive if plain else make_additive
    truths = tuple(build(rng.uniform(0.0, 1.0, 5)) for _ in range(2))
    w = rng.uniform(0.0, 1.0, 5)
    devs = [
        (0, scale_oracle(truths[0], 0.5)),
        (1, build(rng.uniform(0.0, 1.0, 5))),
        (1, make_budget_additive([float(x) for x in w], float(0.5 * w.sum()))),
        (0, scale_oracle(truths[0], 2.0)),
    ]
    return AuctionInstance(truths), devs


def _two_player_cpp_case(plain=False):
    build = _plain_additive if plain else make_additive
    truths = (build([0.5, 0.4, 0.3, 0.2, 0.1]), build([0.1, 0.3, 0.5, 0.7, 0.9]))
    return CPPInstance(truths, 2), [(1, build([0.2] * 5)), (0, scale_oracle(truths[0], 0.3))]


SCORE_CASES = [
    (VCGExhaustiveAuction, _auction_case),
    (PayYourBidGreedyAuction, _auction_case),
    (GreedyCPP, _two_player_cpp_case),
    (RandomSubsetCPP, _two_player_cpp_case),
]


def _all_oracles(instance, devs):
    return list(instance.oracles) + [o for _, o in devs]


def _ids(case):
    return case.__name__ if inspect.isclass(case) else case.__name__.strip("_")


@pytest.mark.parametrize("plain", [False, True], ids=["fn_many", "scalar_fn"])
@pytest.mark.parametrize("mech_cls, case", SCORE_CASES, ids=_ids)
def test_audit_scores_equal_scalar_reference(mech_cls, case, plain):
    inst, devs = case(plain)
    report = audit_truthfulness(mech_cls(), inst, devs, TRIALS, seed=11, eps=0.1)
    got = [
        (e.truth_score, e.truth_stderr, e.deviation_score, e.deviation_stderr)
        for e in report.entries
    ]
    ref_inst, ref_devs = case(plain)
    expected = _scalar_scores(mech_cls(), ref_inst, ref_devs, TRIALS, 11, 0.1)
    assert repr(got) == repr(expected)
    # one scoring query per trial and scored player, as with scalar eval
    assert [o.query_count for o in _all_oracles(inst, devs)] == [
        o.query_count for o in _all_oracles(ref_inst, ref_devs)
    ]


@pytest.mark.parametrize("plain", [False, True], ids=["fn_many", "scalar_fn"])
@pytest.mark.parametrize("mech_cls, case", SCORE_CASES, ids=_ids)
def test_run_trials_equals_scalar_reference(mech_cls, case, plain):
    inst, _ = case(plain)
    runs = run_trials(mech_cls(), inst, TRIALS, seed=12)
    ref_inst, _ = case(plain)
    ref = _scalar_trials(mech_cls(), ref_inst, TRIALS, 12)
    for i in range(inst.n):
        assert masks_from_words(runs.words[:, i]) == [mask_of(_bundle(out, i)) for out in ref]
        assert runs.payments[:, i].tolist() == [_payment(out, i) for out in ref]
    # allocate's queries, spent once per declaration when replicated
    assert [o.query_count for o in inst.oracles] == [o.query_count for o in ref_inst.oracles]


@pytest.mark.parametrize("mech_cls", [VCGExhaustiveAuction, PayYourBidGreedyAuction])
def test_extract_menu_equals_scalar_reference(mech_cls):
    m = 6
    A, B = pack([0, 1], m), pack([2, 4], m)
    family = [
        make_symgap_valuation(m, A, B, PhiAlpha(0.5), 0.25, lam) for lam in (0.25, 0.5, 1.0)
    ]

    def instance():
        opponent = make_additive([0.05, 0.1, 0.15, 0.2, 0.25, 0.3])
        return AuctionInstance((opponent, family[2].oracle()))

    inst, ref_inst = instance(), instance()
    X, P = extract_menu(mech_cls(), inst, 1, family, TRIALS, seed=4)
    expected = _scalar_menu(mech_cls(), ref_inst, 1, family, TRIALS, 4)
    assert X.shape == P.shape == (len(family), TRIALS)
    assert repr((X.tolist(), P.tolist())) == repr(expected)
    assert len(set(zip(X.ravel().tolist(), P.ravel().tolist()))) > 1
    assert [o.query_count for o in inst.oracles] == [o.query_count for o in ref_inst.oracles]


def test_deviation_stream_does_not_alias_a_truth_stream():
    # deviation 0 at seed 0 once ran on seed 0 + 7919, the truth stream of
    # seed 7919; declaring the truth as the deviation would then score equal
    rng = np.random.default_rng(3)
    truth = _additive(rng, 8)
    inst = CPPInstance((truth,), 3)
    devs = [(0, truth)]
    at_0 = audit_truthfulness(RandomSubsetCPP(), inst, devs, trials=30, seed=0)
    at_7919 = audit_truthfulness(RandomSubsetCPP(), inst, devs, trials=30, seed=7919)
    assert at_0.entries[0].deviation_score != at_7919.entries[0].truth_score

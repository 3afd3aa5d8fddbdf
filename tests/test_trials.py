"""The shared trial runner: the `deterministic` contract, replication of
deterministic mechanisms, and independent random streams per declaration.

Replication is checked against the same mechanism declared
non-deterministic, which re-runs allocate on every trial.
"""
import inspect

import numpy as np
import pytest

from symgap import mechanisms
from symgap.setfn import ItemSet, make_additive, make_budget_additive
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
    PayYourBidGreedyAuction,
    PoissonMIDRCPP,
    RandomSubsetCPP,
    VCGExhaustiveAuction,
    run_mechanism,
    run_trials,
)
from symgap.audit import audit_truthfulness, extract_menu


def _deterministic_classes():
    bases = (CPPMechanism, AuctionMechanism)
    return [
        cls
        for cls in vars(mechanisms).values()
        if inspect.isclass(cls)
        and issubclass(cls, bases)
        and not inspect.isabstract(cls)
        and cls.deterministic
    ]


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
    if getattr(cls, "needs_descriptor", False):
        # the rounding solver takes a single oracle of a concave class
        oracles = oracles[:1]
        views = oracles
    else:
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
        results.append((out, sum(o.query_count for o in oracles) - before))
        assert rng.bit_generator.state == state
    assert results[0] == results[1]


class _Spy:
    """Forwards allocate to a real mechanism, counts the calls, and declares
    itself deterministic or not as told."""

    def __init__(self, inner, deterministic):
        self.inner = inner
        self.deterministic = deterministic
        self.needs_descriptor = getattr(inner, "needs_descriptor", False)
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
    A = ItemSet.from_indices([0, 1], m)
    B = ItemSet.from_indices([2, 3], m)
    family = [
        make_symgap_valuation(A, B, PhiAlpha(0.5), 0.25, lam) for lam in (0.5, 1.0)
    ]
    opponent = make_additive([0.0, 0.0, 0.0, 0.0, 0.3, 0.3])
    inst = AuctionInstance((family[1].oracle(), opponent))
    (a, calls_a), (b, calls_b) = _both(
        VCGExhaustiveAuction, lambda mech: extract_menu(mech, inst, 0, family, TRIALS, seed=2)
    )
    assert a == b
    assert (calls_a, calls_b) == (len(family), TRIALS * len(family))


@pytest.mark.parametrize(
    "inner_cls, instance", [(GreedyCPP, _cpp), (VCGExhaustiveAuction, _auction)]
)
def test_replication_in_run_mechanism(inner_cls, instance):
    inst = instance()
    (a, calls_a), (b, calls_b) = _both(
        inner_cls, lambda mech: run_mechanism(mech, inst, TRIALS, seed=8)
    )
    assert a.to_dict() == b.to_dict()
    assert a.per_trial == b.per_trial
    assert a.query_total == b.query_total > 0
    assert (calls_a, calls_b) == (1, TRIALS)


def test_replicated_distribution_is_sampled_per_trial():
    inst = _cpp()
    (a, calls_a), (b, calls_b) = _both(
        PoissonMIDRCPP, lambda mech: run_mechanism(mech, inst, TRIALS, seed=1)
    )
    assert a.to_dict() == b.to_dict()
    assert (calls_a, calls_b) == (1, TRIALS)
    assert len({tuple(rec["sets"]) for rec in a.per_trial}) > 1

    devs = [(0, make_additive([0.1, 0.2, 0.3, 0.4, 0.5]))]
    (c, calls_c), (d, calls_d) = _both(
        PoissonMIDRCPP, lambda mech: audit_truthfulness(mech, inst, devs, TRIALS, seed=1)
    )
    assert c.to_dict() == d.to_dict()
    assert (calls_c, calls_d) == (2, 2 * TRIALS)


def test_trial_t_draws_from_child_t_of_the_seed():
    inst = CPPInstance((make_additive([0.1 * j for j in range(1, 9)]),), 3)
    mech = RandomSubsetCPP()
    views = tuple(o.restricted_view() for o in inst.oracles)
    children = np.random.SeedSequence((4, 1, 2)).spawn(TRIALS)
    expected = [mech.allocate(views, 3, np.random.default_rng(c)) for c in children]
    runs = run_trials(mech, inst, TRIALS, (4, 1, 2))
    assert [run.outcome for run in runs] == expected
    assert [run.queries for run in runs] == [1] * TRIALS


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

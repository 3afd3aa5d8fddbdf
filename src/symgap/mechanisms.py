"""Allocation mechanisms: greedy and exhaustive baselines, exhaustive VCG,
and the exponential-rounding maximal-in-distributional-range solver.

Mechanisms only ever see OracleView handles (value queries + ground size);
the experiment harness hands them views and accounts queries on the real
oracles behind the scenes.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .setfn import (
    WORD_BITS,
    GroundSetError,
    OracleView,
    block_rows,
    pack,
    random_subset,
    singleton_words,
    tabulate,
    unpack,
    word_count,
    words_from_bits,
)
from .instances import CPPInstance, TwoBlockValuation
from .extensions import exact_F_tabulated, f_exp_blockwise

GAIN_TOL = 1e-12
_AUCTION_ENUM_CAP = 4_000_000
_CPP_ENUM_CAP = 5_000_000
# candidate arrays of at most this many words are cached: the 32 cached
# entries pin at most 16 MB
_CPP_CACHE_WORDS = 1 << 16
# poisson_midr_cpp's ascent: an iteration cap, and three steps in a row that
# gain less than _MIDR_STALL_GAIN end it
_MIDR_MAX_ITER = 2000
_MIDR_STALL_GAIN = 1e-9
# BalancedPrefixCPP picks the first prefix reaching this share of f(full)
_PREFIX_SHARE = 0.9


class InfeasibleOutcomeError(RuntimeError):
    """A mechanism produced an outcome outside the feasible set."""


class NonConcaveClassError(ValueError):
    """The rounding solver refused a valuation class without a concave
    extension guarantee; pass force=True to run it as a labeled heuristic."""


@dataclass(frozen=True, eq=False)
class Outcome:
    """Auction outcome: row i of `sets`, an (n, word_count(m)) uint64 array,
    packs player i's bundle; one payment per player."""

    sets: np.ndarray
    payments: tuple[float, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.payments):
            raise ValueError("one payment per player required")
        # disjoint exactly when no item is counted twice
        union = np.bitwise_or.reduce(self.sets, axis=0)
        if np.bitwise_count(self.sets).sum() != np.bitwise_count(union).sum():
            raise InfeasibleOutcomeError("allocated bundles overlap")


@dataclass(frozen=True, eq=False)
class GreedyResult:
    S: np.ndarray  # packed row
    value: float
    steps: int


def greedy_cpp(oracles: Sequence, k: int) -> GreedyResult:
    """k-step greedy on the declared welfare sum; ties to the lowest item
    index; stops early when no candidate improves.

    Each step asks every oracle once, through eval_extensions(S), for all
    candidates S + j with j outside the chosen set S, so the query counts are
    those of asking for each candidate in turn.  The step works on groups of
    free items that share one welfare value: the first oracle's answer,
    refined by each later one through pairwise intersection, values added in
    oracle order.  Refining G1 groups by G2 costs O(G1 * G2 * word_count(m));
    every caller with several oracles has m <= 16."""
    m = oracles[0].m
    if not 0 < k <= m:
        raise GroundSetError(f"k = {k} outside (0, {m}]")
    words = np.zeros(word_count(m), dtype=np.uint64)
    current = 0.0
    steps = 0
    for _ in range(k):
        values, groups = oracles[0].eval_extensions(words)
        for o in oracles[1:]:
            more_values, more_groups = o.eval_extensions(words)
            both = groups[:, None] & more_groups
            kept = both.any(axis=2)
            values, groups = (values[:, None] + more_values)[kept], both[kept]
        best = values.max()
        if not best > current + GAIN_TOL:
            break
        # the lowest item of the groups at the best value: its first nonzero
        # word, then that word's lowest bit
        tied = np.bitwise_or.reduce(groups, axis=0, where=(values == best)[:, None])
        w = int(tied.nonzero()[0][0])
        low = int(tied[w])
        words[w] |= np.uint64(low & -low)
        current = float(best)
        steps += 1
    return GreedyResult(words, current, steps)


@dataclass(frozen=True, eq=False)
class OptResult:
    S: np.ndarray  # packed row
    value: float


def exhaustive_opt_cpp(oracles: Sequence, k: int) -> OptResult:
    """Exact optimum over all subsets of size <= k (lexicographic enumeration,
    first maximum kept, so ties resolve to the smallest-index set)."""
    m = oracles[0].m
    if not 0 < k <= m:
        raise GroundSetError(f"k = {k} outside (0, {m}]")
    total = sum(math.comb(m, t) for t in range(k + 1))
    if total > _CPP_ENUM_CAP:
        raise GroundSetError(f"{total} candidate sets exceed the enumeration cap")
    cached = total * word_count(m) <= _CPP_CACHE_WORDS
    words = (_cpp_candidates if cached else _cpp_candidates.__wrapped__)(m, k)
    vals = np.zeros(len(words))
    for o in oracles:  # summed in oracle order, as one scalar sum per set
        vals += o.eval_many(words)
    best_row, best_val = _first_max(vals)
    best = words[best_row].copy() if best_row >= 0 else np.zeros(word_count(m), np.uint64)
    return OptResult(best, best_val)


def _first_max(vals: np.ndarray) -> tuple[int, float]:
    """(row, value) of the scan that starts at (-1, 0.0) and moves to each
    row whose value exceeds the current one by more than GAIN_TOL.

    Only a row above 0.0 and above every earlier value can be moved to, so
    the scan visits just those rows; NaN rows are never moved to."""
    best_row, best_val = -1, 0.0
    above = np.fmax.accumulate(np.concatenate(([0.0], vals)))[:-1]
    for row in np.flatnonzero(vals > above).tolist():
        val = float(vals[row])
        if val > best_val + GAIN_TOL:
            best_row, best_val = row, val
    return best_row, best_val


@lru_cache(maxsize=32)
def _cpp_candidates(m: int, k: int) -> np.ndarray:
    """Read-only packed rows of every set of size 1..k, shared by every
    caller of the same small (m, k): sizes in turn, each in lexicographic
    order."""
    # extend every set of the previous size by one item above its highest
    rows: list[np.ndarray] = []
    level, tops = np.zeros((1, word_count(m)), dtype=np.uint64), np.array([-1])
    singletons = singleton_words(m)
    for _ in range(k):
        parent, item = np.nonzero(np.arange(m) > tops[:, None])
        level, tops = level[parent] | singletons[item], item
        rows.append(level)
    words = np.concatenate(rows)
    words.flags.writeable = False
    return words


@lru_cache(maxsize=16)
def _assignment_masks(n: int, m: int) -> np.ndarray:
    """Read-only (n+1)^m x n matrix, shared by every caller: row = assignment
    code, column i = bundle mask of player i.  Digit n means 'unallocated'."""
    codes = np.arange((n + 1) ** m, dtype=np.int64)
    masks = np.zeros((codes.size, n), dtype=np.int64)
    for j in range(m):
        digit = (codes // (n + 1) ** j) % (n + 1)
        for i in range(n):
            masks[:, i] |= (digit == i).astype(np.int64) << j
    masks.flags.writeable = False
    return masks


def _welfare_optimum(
    oracles: Sequence,
) -> tuple[np.ndarray, int, list[np.ndarray], np.ndarray]:
    """Enumerate every assignment of the items to a player or to nobody.

    Returns (alloc, best, per_player, welfare): per_player[i] holds player
    i's value of its bundle under each _assignment_masks row, welfare their
    sum added in player order, and best the first row of maximum welfare,
    whose bundles are the packed rows of alloc.  One tabulate per oracle."""
    n = len(oracles)
    m = oracles[0].m
    if (n + 1) ** m > _AUCTION_ENUM_CAP:
        raise GroundSetError(
            f"(n+1)^m = {(n + 1) ** m} assignments exceed the enumeration cap"
        )
    masks = _assignment_masks(n, m)
    tables = [tabulate(o) for o in oracles]
    per_player = [tables[i][masks[:, i]] for i in range(n)]
    welfare = np.zeros(masks.shape[0])
    for col in per_player:
        welfare += col
    best = int(np.argmax(welfare))
    # one word per bundle: the enumeration cap keeps m below 64
    alloc = masks[best].astype(np.uint64)[:, None][:, : word_count(m)]
    return alloc, best, per_player, welfare


def vcg_auction_exhaustive(oracles: Sequence) -> Outcome:
    """Exhaustive VCG with Clarke pivot payments.

    p_i = (others' optimum without i) - (others' welfare at the chosen
    allocation); individually rational and nonnegative for monotone
    normalized valuations.
    """
    alloc, best, per_player, welfare = _welfare_optimum(oracles)
    payments = []
    for col in per_player:
        minus_i = welfare - col
        payments.append(float(minus_i.max()) - float(minus_i[best]))
    return Outcome(alloc, tuple(payments))


@dataclass(frozen=True)
class DistributionOverOutcomes:
    """Product rounding: item j enters the outcome independently with
    probability marginals[j]."""

    marginals: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.marginals)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw, as a packed row."""
        return words_from_bits((rng.random(self.m) < np.asarray(self.marginals))[None])[0]


_CONCAVE_KINDS = ("additive", "coverage")


def _concave_class(descriptor: dict | None) -> bool:
    if descriptor is None:
        return False
    kind = descriptor.get("kind")
    if kind in _CONCAVE_KINDS:
        return True
    if kind == "scaled":
        return _concave_class(descriptor["params"]["inner"])
    if kind == "two_block_product":
        phi = descriptor["params"]["phi"]
        return phi.get("kind") == "alpha" and phi.get("alpha") == 1.0
    return False


def _project_box_budget(z: np.ndarray, w: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto {0 <= z <= 1, w . z <= budget} (w > 0)."""
    clipped = np.clip(z, 0.0, 1.0)
    if float(np.add.reduce(w * clipped)) <= budget + 1e-15:
        return clipped
    lo, hi = 0.0, float(np.max(z / np.minimum(w, 1.0))) + 1.0
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        val = float(np.add.reduce(w * np.clip(z - theta * w, 0.0, 1.0)))
        if val > budget:
            lo = theta
        else:
            hi = theta
    return np.clip(z - hi * w, 0.0, 1.0)


@dataclass(frozen=True)
class MIDRResult:
    x_star: tuple[float, ...]
    value: float
    distribution: DistributionOverOutcomes
    iterations: int
    heuristic: bool


def poisson_midr_cpp(oracle, k: int, force: bool = False) -> MIDRResult:
    """Maximize F(1 - e^{-x}) over {x in [0,1]^m, sum x <= k} by projected
    finite-difference ascent on an exact evaluator, then round by product
    marginals 1 - e^{-x*}.

    The distributional range argument needs a concave objective; classes
    without that guarantee are refused unless force=True, and forced runs
    are labeled heuristic.
    """
    desc = getattr(oracle, "descriptor", None)
    concave = _concave_class(desc)
    if not concave and not force:
        raise NonConcaveClassError(
            f"valuation kind {desc.get('kind') if desc else None!r} has no concave "
            "rounding guarantee; pass force=True to run as a heuristic"
        )
    m = oracle.m
    if not 0 < k <= m:
        raise GroundSetError(f"k = {k} outside (0, {m}]")

    if m <= 16:
        table = tabulate(oracle)

        def g_full(x: np.ndarray) -> float:
            return float(exact_F_tabulated(table, (1.0 - np.exp(-x))[None])[0])

        dim = m
        weights = np.ones(m)
        expand: Callable[[np.ndarray], np.ndarray] = lambda z: z
        objective = g_full
    else:
        kind = desc.get("kind") if desc else None
        if kind not in ("symgap", "two_block_product"):
            raise GroundSetError(
                "solver needs m <= 16 for full enumeration or a two-block descriptor"
            )
        bv = TwoBlockValuation.from_descriptor(desc)
        a_idx, b_idx = unpack(bv.A, m), unpack(bv.B, m)
        dim = 2
        weights = np.array([float(len(a_idx)), float(len(b_idx))])

        def expand(z: np.ndarray) -> np.ndarray:
            x = np.zeros(m)
            x[a_idx] = z[0]
            x[b_idx] = z[1]
            return x

        def objective(z: np.ndarray) -> float:
            return f_exp_blockwise(bv, float(z[0]), float(z[1]))

    z = _project_box_budget(np.full(dim, k / float(weights.sum())), weights, float(k))
    val = objective(z)
    eta = 0.25
    h = 1e-6
    iterations = 0
    stall = 0
    for iterations in range(1, _MIDR_MAX_ITER + 1):
        grad = np.zeros(dim)
        for d in range(dim):
            zp = z.copy()
            zm = z.copy()
            zp[d] = min(1.0, z[d] + h)
            zm[d] = max(0.0, z[d] - h)
            denom = zp[d] - zm[d]
            grad[d] = (objective(zp) - objective(zm)) / denom if denom > 0 else 0.0
        moved = False
        for _ in range(40):
            cand = _project_box_budget(z + eta * grad, weights, float(k))
            cand_val = objective(cand)
            if cand_val > val + GAIN_TOL:
                improvement = cand_val - val
                z, val = cand, cand_val
                eta = min(eta * 1.5, 4.0)
                moved = True
                break
            eta *= 0.5
            if eta < 1e-9:
                break
        if not moved:
            break
        if improvement < _MIDR_STALL_GAIN:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0
    x_star = expand(z)
    dist = DistributionOverOutcomes(tuple(float(v) for v in 1.0 - np.exp(-x_star)))
    return MIDRResult(
        tuple(float(v) for v in x_star), float(val), dist, iterations, not concave
    )


class CPPMechanism(ABC):
    """Public-project mechanism: from OracleViews of the declared
    valuations, one set that every player gets."""

    name: str = "cpp"
    # True promises that allocate draws nothing from `rng` (its bit-generator
    # state is left as it was) and returns equal outcomes, with equal query
    # counts, for equal declarations.  run_trials then calls allocate once per
    # declaration and replicates the outcome across trials.
    deterministic: bool = False

    @abstractmethod
    def allocate(
        self, views: Sequence[OracleView], k: int, rng: np.random.Generator
    ) -> np.ndarray:
        """A packed row of at most k items."""
        ...


class AuctionMechanism(ABC):
    name: str = "auction"
    deterministic: bool = False  # same contract as CPPMechanism.deterministic

    @abstractmethod
    def allocate(
        self, views: Sequence[OracleView], rng: np.random.Generator
    ) -> Outcome:
        ...


class RandomSubsetCPP(CPPMechanism):
    """Uniform random size-k project; one confirmation query."""

    name = "random"

    def allocate(self, views, k, rng):
        S = random_subset(views[0].m, k, rng)
        views[0].eval(S)
        return S


class GreedyCPP(CPPMechanism):
    name = "greedy"
    deterministic = True

    def allocate(self, views, k, rng):
        return greedy_cpp(views, k).S


class BalancedPrefixCPP(CPPMechanism):
    """Random-permutation prefixes (balanced w.h.p. against any hidden
    bisection); returns the smallest prefix of size <= k reaching the share
    _PREFIX_SHARE of the full-set value, else the size-k prefix.  Asks every
    view for the full set and all k prefixes: k + 1 queries per view."""

    name = "balanced_prefix"

    def allocate(self, views, k, rng):
        m, width = views[0].m, word_count(views[0].m)
        perm = rng.permutation(m)[:k]
        full = pack(np.arange(m), m)[None]
        total = sum(v.eval_many(full) for v in views)[0]
        # prefix t + 1 is row t; the rows are built and asked a block at a
        # time, so that at m = 160,000 they never all sit in memory at once.
        # Two (rows, width) word arrays are live at once: a block's rows and
        # its singleton rows or the rows of the block before
        step = block_rows(2 * 8 * width)
        values = np.empty(k)
        last = np.zeros(width, dtype=np.uint64)
        for lo in range(0, k, step):
            items = perm[lo : lo + step]
            # each row adds one item to the row before it: a running OR down
            # the block, taken only in the words that its items fall in
            touched = np.unique(items // WORD_BITS)
            added = np.bitwise_or.accumulate(singleton_words(m, items)[:, touched], axis=0)
            rows = np.repeat(last[None], len(items), axis=0)
            rows[:, touched] |= added
            last = rows[-1]
            values[lo : lo + step] = sum(v.eval_many(rows) for v in views)
        reached = np.flatnonzero(values >= _PREFIX_SHARE * total)
        size = int(reached[0]) + 1 if reached.size else k
        return pack(perm[:size], m)


class VCGExhaustiveAuction(AuctionMechanism):
    name = "vcg"
    deterministic = True

    def allocate(self, views, rng):
        return vcg_auction_exhaustive(views)


class PayYourBidGreedyAuction(AuctionMechanism):
    """Greedy item-by-item assignment charged at the declared bundle value.

    Deliberately manipulable: understating the declaration keeps the
    allocation while cutting the payment.
    """

    name = "pay_your_bid_greedy"
    deterministic = True

    def allocate(self, views, rng):
        n = len(views)
        m = views[0].m
        bundles = np.zeros((n, word_count(m)), dtype=np.uint64)
        values = [0.0] * n
        for j, item in enumerate(singleton_words(m)):
            best_i = -1
            best_gain = GAIN_TOL
            best_val = 0.0
            for i in range(n):
                cand_val = views[i].eval(bundles[i] | item)
                gain = cand_val - values[i]
                if gain > best_gain:
                    best_gain = gain
                    best_i = i
                    best_val = cand_val
            if best_i >= 0:
                bundles[best_i] |= item
                values[best_i] = best_val
        return Outcome(bundles, tuple(values))


@dataclass(frozen=True)
class TrialColumns:
    """The seeded trials of a mechanism on one declared instance, packed.

    words[t, i] packs player i's bundle in trial t (a public project gives
    every player its one set); payments[t, i] is its payment (0.0 in a
    public project)."""

    words: np.ndarray
    payments: np.ndarray


def run_trials(mech, instance, trials: int, seed: int | tuple[int, ...]) -> TrialColumns:
    """Run a mechanism `trials` times on one declared instance.

    The mechanism sees OracleViews of the declared oracles, never the oracles
    themselves.  Trial t uses the t-th child of SeedSequence(seed); `seed`
    may be an int or an entropy tuple.  A mechanism with `deterministic =
    True` is allocated once, with child 0, and its outcome is repeated for
    every trial, the rows that re-running it would give.  A public project
    of more than k items raises InfeasibleOutcomeError.
    """
    oracles = instance.oracles
    views = tuple(o.restricted_view() for o in oracles)
    n, width = len(oracles), word_count(oracles[0].m)
    head = (views, instance.k) if isinstance(instance, CPPInstance) else (views,)
    calls = min(trials, 1) if getattr(mech, "deterministic", False) else trials
    root = np.random.SeedSequence(seed)
    words = np.empty((calls, n, width), dtype=np.uint64)
    payments = np.zeros((calls, n))
    for t in range(calls):
        # child t of root.spawn(trials)
        rng = np.random.default_rng(np.random.SeedSequence(root.entropy, spawn_key=(t,)))
        res = mech.allocate(*head, rng)
        if isinstance(res, Outcome):  # whose bundles are disjoint by construction
            words[t], payments[t] = res.sets, res.payments
        else:  # one project of at most k items for every player
            size = int(np.bitwise_count(res).sum())
            if size > instance.k:
                raise InfeasibleOutcomeError(f"outcome of size {size} exceeds k = {instance.k}")
            words[t] = res
    if calls != trials:  # one deterministic outcome, repeated for every trial
        words, payments = words.repeat(trials, axis=0), payments.repeat(trials, axis=0)
    return TrialColumns(words, payments)

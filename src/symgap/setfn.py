"""Monotone submodular set functions under the value-oracle query model.

Ground sets are [0, m).  A set is one packed row of word_count(m) uint64
words, word i holding items [64i, 64i + 64); pack() and unpack() convert
item arrays, to_hex() and from_hex() the hex form descriptors hold.  Every
oracle evaluation bumps a query counter; structural checks (monotonicity,
submodularity) run either exhaustively over all 2^m subsets (m <= 24) or by
sampled triples, and report how many pairs and triples they checked and how
many of each kind violate.

Each oracle family has one evaluator, over a batch of rows.  eval_many asks
for the rows of a (batch, word_count(m)) uint64 array and counts one query
per row; eval asks for one set as a one-row batch.  eval_extensions asks for
the singleton extensions S + j of one packed set S, one query per item j
outside S, and answers with groups of free items that share one value.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

STRUCT_TOL = 1e-9
EXHAUSTIVE_MAX_M = 24
WORD_BITS = 64
# rows per batch-function call: bounds the (rows, m) and (rows, u) temporaries
# the families build, e.g. at tabulate's 2^24 rows.  A row cap, not a byte
# budget: those temporaries differ in width by family, and BLOCK_BYTES over
# 8 * (m + 1) would hand a two-block fn_many one row per call at m = 160,000
_EVAL_CHUNK = 1 << 14
# ground sets whose singleton rows fit in this many words share one cached
# table: the 32 cached tables pin at most 16 MB
_SINGLETON_TABLE_WORDS = 1 << 16
# bytes that a block a caller builds itself (sampled triples, balanced
# prefixes, blockwise pmf matrices, Monte Carlo draws, count grid rows) holds
# at once, per block, not per array: 1 MiB, half of a 2 MiB L2 cache
BLOCK_BYTES = 1 << 20


def block_rows(row_bytes: int) -> int:
    """Rows per block when the arrays a block keeps live at once take
    row_bytes bytes per row: BLOCK_BYTES // row_bytes, and at least one."""
    return max(1, BLOCK_BYTES // max(1, row_bytes))


class GroundSetError(ValueError):
    """A set or index does not live on the expected ground set."""


class OracleContractError(ValueError):
    """An oracle violates a construction-time contract (normalization, range)."""


def word_count(m: int) -> int:
    """uint64 words per packed set on a ground set of size m."""
    return -(-m // WORD_BITS)


def pack(items, m: int) -> np.ndarray:
    """The packed row of word_count(m) words holding the given items of [0, m)."""
    if m < 0:
        raise GroundSetError(f"ground size must be >= 0, got {m}")
    items = np.asarray(items, dtype=np.intp).ravel()
    if items.size and not (0 <= items.min() and items.max() < m):
        raise GroundSetError(f"index {items[(items < 0) | (items >= m)][0]} outside [0, {m})")
    bits = np.zeros(WORD_BITS * word_count(m), dtype=bool)
    bits[items] = True
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64, copy=False)


def unpack(row: np.ndarray, m: int) -> np.ndarray:
    """The items of a packed row, increasing."""
    return np.flatnonzero(bits_from_words(row[None], m)[0])


def to_hex(row: np.ndarray, m: int) -> str:
    """A packed row as hex digits, item j at bit j, zero-padded to (m+3)//4
    digits (at least one): the descriptor form of a set."""
    mask = int.from_bytes(np.asarray(row, dtype="<u8").tobytes(), "little")
    if mask >> m:
        raise GroundSetError(f"mask {mask:#x} has bits outside [0, {m})")
    return format(mask, f"0{max(1, (m + 3) // 4)}x")


def from_hex(digits: str, m: int) -> np.ndarray:
    """The packed row of hex digits of any width; a bit at or above m is an
    error."""
    mask = int(digits, 16) if digits else 0
    if mask < 0 or mask >> m:
        raise GroundSetError(f"mask {mask:#x} has bits outside [0, {m})")
    data = mask.to_bytes(8 * word_count(m), "little")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def random_subset(m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Packed row of a uniformly random subset of [0, m) with exactly `size`
    elements."""
    if not 0 <= size <= m:
        raise GroundSetError(f"size {size} outside [0, {m}]")
    return pack(rng.choice(m, size=size, replace=False), m)


def words_from_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of a boolean (batch, m) matrix, item j in column j, to packed words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((len(bits), 8 * word_count(bits.shape[1])), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    return padded.view("<u8").astype(np.uint64, copy=False)


def bits_from_words(words: np.ndarray, m: int) -> np.ndarray:
    """Packed rows to a boolean (batch, m) matrix, item j in column j."""
    data = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(data, axis=1, count=m, bitorder="little").view(bool)


def singleton_words(m: int, items: np.ndarray | None = None) -> np.ndarray:
    """Packed rows of word_count(m) words, one per item j of `items` (all of
    [0, m) by default), row i holding the set {items[i]}."""
    items = np.arange(m) if items is None else items
    rows = np.zeros((len(items), word_count(m)), dtype=np.uint64)
    bits = np.uint64(1) << (items % WORD_BITS).astype(np.uint64)
    rows[np.arange(len(items)), items // WORD_BITS] = bits
    return rows


@lru_cache(maxsize=32)
def _singleton_table(m: int) -> np.ndarray:
    """Read-only singleton_words(m), shared by every oracle on a small
    ground set."""
    rows = singleton_words(m)
    rows.flags.writeable = False
    return rows


def _singleton_rows(items: np.ndarray, m: int) -> np.ndarray:
    """singleton_words(m, items), copied from the shared table of a small
    ground set."""
    if m * word_count(m) <= _SINGLETON_TABLE_WORDS:
        return _singleton_table(m).take(items, axis=0)
    return singleton_words(m, items)


def as_rows(words, m: int, ndim: int = 2) -> np.ndarray:
    """`words` checked as sets on [0, m): uint64 rows of word_count(m) words,
    a (batch, width) array for ndim 2 and one row for ndim 1."""
    words = np.asarray(words)
    width = word_count(m)
    if words.dtype != np.uint64 or words.ndim != ndim or words.shape[-1] != width:
        raise GroundSetError(
            f"expected uint64 rows of {width} words, got {words.dtype} {words.shape}"
        )
    tail = m % WORD_BITS
    if tail:
        high = words.T[-1] >> np.uint64(tail)  # one row's is a scalar, fast to test
        if high.any() if ndim == 2 else high:
            raise GroundSetError(f"set outside ground set of size {m}")
    return words


def intersection_sizes(words: np.ndarray, within: np.ndarray) -> np.ndarray:
    """|S ∩ W| for each packed row S, with W packed as one row `within`."""
    return np.add.reduce(np.bitwise_count(words & within), axis=-1, dtype=np.int64)


def _sum_in_item_order(weights: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Per row, the weights of the selected columns added left to right from
    0.0, in item order.  np.sum's pairwise order would change low bits, and
    a masked copy keeps 0 * inf out of unselected columns.  The result is
    contiguous: BLAS sums a strided vector in another order."""
    terms = np.zeros((len(selected), selected.shape[1] + 1))
    np.copyto(terms[:, 1:], weights, where=selected)
    return np.cumsum(terms, axis=1, out=terms)[:, -1].copy()


class ValuationOracle:
    """Set function exposed only through value queries.

    fn_many(words) is the oracle's one evaluator: it takes packed sets, the
    rows of a (batch, word_count(m)) uint64 array, at most _EVAL_CHUNK rows
    per call, and returns their values as floats.  eval_many() checks a
    batch and counts one query per row; eval() asks for one packed row as a
    one-row batch.  The counter is thread-safe
    so concurrent audits still report exact totals.

    eval_extensions(words) asks for S + j for every item j outside S, S one
    packed row, and counts one query per j.  It answers (values, groups):
    groups is a (G, word_count(m)) uint64 array of disjoint packed rows that
    together cover the items outside S, and f(S + j) = values[g] for every j
    in groups[g], bit for bit what eval_many gives on the row S + j.  By
    default it builds those rows, evaluates them as eval_many does, and
    answers one group per free item in increasing item order; product and
    scaled oracles pass the rows on to their components.  A wrapper names
    its components, and every query counted on it, a row or an extension,
    is counted on each of them too; its fn_many evaluates them uncounted, so
    building it (the f(empty) check) asks them nothing.  An oracle may pass
    fn_extensions(words) to answer with the level sets of j -> f(S + j)
    instead (two-block valuations answer from the occupancy counts of S).
    Either shape tells a caller the m - |S| values and nothing more, and
    returned rows never alias oracle state.

    The descriptor names the family and its parameters, enough to recompute
    every value; it is withheld from mechanisms under audit (see
    restricted_view()).
    """

    __slots__ = (
        "m", "descriptor", "_fn_many", "_fn_extensions", "_components", "_count", "_lock"
    )

    def __init__(
        self,
        m: int,
        fn_many: Callable[[np.ndarray], np.ndarray],
        descriptor: dict,
        fn_extensions: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None,
        components: tuple["ValuationOracle", ...] = (),
    ):
        self.m = m
        self._fn_many = fn_many
        self._fn_extensions = fn_extensions
        self._components = components
        self.descriptor = descriptor
        self._count = 0
        self._lock = threading.Lock()
        v0 = float(fn_many(np.zeros((1, word_count(m)), dtype=np.uint64))[0])
        if not abs(v0) <= 1e-12:  # NaN fails too
            raise OracleContractError(f"f(empty) = {v0!r}, expected 0")

    def eval(self, S: np.ndarray) -> float:
        """The value of one set, packed as a row of word_count(m) words."""
        return float(self._query(as_rows(S, self.m, ndim=1)[None])[0])

    def eval_many(self, words: np.ndarray) -> np.ndarray:
        """Values of the sets packed in the rows of a (batch, word_count(m))
        uint64 array; counts `batch` queries."""
        return self._query(as_rows(words, self.m))

    def _add_queries(self, n: int) -> None:
        """Count n queries here and on every component, recursively."""
        with self._lock:
            self._count += n
        for f in self._components:
            f._add_queries(n)

    def _query(self, words: np.ndarray) -> np.ndarray:
        """eval_many on rows already checked against this ground set."""
        self._add_queries(len(words))
        return self._evaluate(words)

    def _evaluate(self, words: np.ndarray) -> np.ndarray:
        """The values of checked rows, counted nowhere: product and scaled
        oracles evaluate their components here."""
        if len(words) <= _EVAL_CHUNK:
            return self._fn_many(words)
        out = np.empty(len(words))
        for lo in range(0, len(words), _EVAL_CHUNK):
            hi = lo + _EVAL_CHUNK
            out[lo:hi] = self._fn_many(words[lo:hi])
        return out

    def eval_extensions(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(values, groups) for S + j, j outside S, with S packed as one row of
        word_count(m) uint64 words: f(S + j) = values[g] for every item j of
        the packed row groups[g].  Counts m - |S| queries."""
        words = as_rows(words, self.m, ndim=1)
        self._add_queries(self.m - int(np.bitwise_count(words).sum()))
        if self._fn_extensions is not None:
            return self._fn_extensions(words)
        # one group {j} per free item, asked as the rows S + j
        free = np.flatnonzero(~bits_from_words(words[None], self.m)[0])
        groups = _singleton_rows(free, self.m)
        return self._evaluate(groups | words), groups

    @property
    def query_count(self) -> int:
        return self._count

    def restricted_view(self) -> "OracleView":
        return OracleView(self)


class OracleView:
    """Value-query handle handed to mechanisms: eval and ground size only.

    Deliberately does not expose the descriptor, so a mechanism cannot read
    the hidden structure (e.g. a planted partition) of an adversarial
    instance.
    """

    __slots__ = ("m", "_oracle")

    def __init__(self, oracle: ValuationOracle):
        self.m = oracle.m
        self._oracle = oracle

    def eval(self, S: np.ndarray) -> float:
        return self._oracle.eval(S)

    def eval_many(self, words: np.ndarray) -> np.ndarray:
        return self._oracle.eval_many(words)

    def eval_extensions(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._oracle.eval_extensions(words)


def make_additive(weights: Sequence[float]) -> ValuationOracle:
    """f(S) = sum of per-item weights.  Weights must be >= 0."""
    w = [float(x) for x in weights]
    if not all(x >= 0 for x in w):  # NaN fails too
        raise OracleContractError("additive weights must be nonnegative")
    m = len(w)
    w_arr = np.array(w)

    def fn_many(words: np.ndarray) -> np.ndarray:
        return _sum_in_item_order(w_arr, bits_from_words(words, m))

    desc = {"kind": "additive", "params": {"weights": w}}
    return ValuationOracle(m, fn_many, desc)


def make_budget_additive(weights: Sequence[float], budget: float) -> ValuationOracle:
    """f(S) = min(sum weights over S, budget)."""
    w = [float(x) for x in weights]
    if not all(x >= 0 for x in w):  # NaN fails too
        raise OracleContractError("budget-additive weights must be nonnegative")
    b = float(budget)
    if not b >= 0:
        raise OracleContractError("budget must be nonnegative")
    m = len(w)
    w_arr = np.array(w)

    def fn_many(words: np.ndarray) -> np.ndarray:
        selected = bits_from_words(words, m)
        total = _sum_in_item_order(w_arr, selected)
        # prefix sums of nonnegative weights never decrease, so some prefix
        # reached b iff the total did; the empty set is never capped
        return np.where((total >= b) & selected.any(axis=1), b, total)

    desc = {"kind": "budget_additive", "params": {"weights": w, "budget": b}}
    return ValuationOracle(m, fn_many, desc)


def make_coverage(
    universe_weights: Sequence[float], cover_map: Sequence[Iterable[int]]
) -> ValuationOracle:
    """Weighted coverage: f(S) = weight of universe elements covered by S.

    cover_map[j] lists the universe elements item j covers.
    """
    uw = [float(x) for x in universe_weights]
    if not all(x >= 0 for x in uw):  # NaN fails too
        raise OracleContractError("universe weights must be nonnegative")
    u, m = len(uw), len(cover_map)
    # covered_by[e, j]: item j covers universe element e
    covered_by = np.zeros((u, m), dtype=bool)
    for j, elems in enumerate(cover_map):
        for e in elems:
            if not 0 <= e < u:
                raise GroundSetError(f"item {j} covers element {e} outside universe")
            covered_by[e, j] = True

    # row e packs the items that cover universe element e
    covering = words_from_bits(covered_by)
    uw_arr = np.array(uw)

    def fn_many(words: np.ndarray) -> np.ndarray:
        covered = (words[:, None, :] & covering).any(axis=2)
        return _sum_in_item_order(uw_arr, covered)

    desc = {
        "kind": "coverage",
        "params": {
            "universe_weights": uw,
            "cover_map": [np.flatnonzero(covered_by[:, j]).tolist() for j in range(m)],
        },
    }
    return ValuationOracle(m, fn_many, desc)


def make_polar(m: int, A: np.ndarray, omega: float) -> ValuationOracle:
    """v(S) = |A ∩ S| + omega * |S \\ A|, the two-rate counting valuation on
    [0, m), A a packed row.

    omega must lie in (0, 1) so items inside A strictly dominate.
    """
    if not 0.0 < omega < 1.0:
        raise OracleContractError(f"omega must be in (0, 1), got {omega}")
    w, a_words = float(omega), as_rows(A, m, ndim=1)[None]

    def fn_many(words: np.ndarray) -> np.ndarray:
        inside = intersection_sizes(words, a_words)
        return inside + w * (np.bitwise_count(words).sum(1, dtype=np.int64) - inside)

    desc = {"kind": "polar", "params": {"A": to_hex(A, m), "m": m, "omega": w}}
    return ValuationOracle(m, fn_many, desc)


def compose_product(f1: ValuationOracle, f2: ValuationOracle) -> ValuationOracle:
    """f = 1 - (1 - f1)(1 - f2); preserves monotone submodularity for [0,1]-valued parts.

    Each composite query, one row of a batch or one extension, issues
    exactly one query to each component.
    """
    if f1.m != f2.m:
        raise GroundSetError(f"component ground sizes differ: {f1.m} vs {f2.m}")
    m = f1.m
    full = pack(np.arange(m), m)[None]
    for f in (f1, f2):
        top = float(f._evaluate(full)[0])
        if top > 1.0 + 1e-12 or top < -1e-12:
            raise OracleContractError(
                f"component range outside [0, 1]: f(full) = {top!r}"
            )

    def fn_many(words: np.ndarray) -> np.ndarray:
        return 1.0 - (1.0 - f1._evaluate(words)) * (1.0 - f2._evaluate(words))

    desc = {"kind": "product", "params": {"components": [f1.descriptor, f2.descriptor]}}
    return ValuationOracle(m, fn_many, desc, components=(f1, f2))


def scale_oracle(f: ValuationOracle, lam: float) -> ValuationOracle:
    """lam * f, with descriptor provenance preserved."""
    if not lam >= 0:
        raise OracleContractError("scale factor must be nonnegative")

    def fn_many(words: np.ndarray) -> np.ndarray:
        return lam * f._evaluate(words)

    desc = {"kind": "scaled", "params": {"lam": float(lam), "inner": f.descriptor}}
    return ValuationOracle(f.m, fn_many, desc, components=(f,))


def tabulate(oracle) -> np.ndarray:
    """Evaluate an oracle (or view) on all 2^m subsets, indexed by mask.

    This is the memoization step behind every exhaustive check: one batch of
    2^m queries, after which structural scans are pure array work.
    """
    m = oracle.m
    if m > EXHAUSTIVE_MAX_M:
        raise GroundSetError(
            f"exhaustive tabulation capped at m <= {EXHAUSTIVE_MAX_M}, got {m}"
        )
    # one word per row for m <= 24, none for m = 0
    words = np.arange(1 << m, dtype=np.uint64)[:, None][:, : word_count(m)]
    return oracle.eval_many(words)


@dataclass
class StructureReport:
    """The number of (S, i) pairs and (S, i, j) triples checked, and of the
    monotonicity and submodularity violations among them."""

    passed: bool
    checked: int
    monotone_violation_count: int
    submodular_violation_count: int


def _structure_gaps(table: np.ndarray, m: int):
    """Yield (0, gain of i) for each item i and (1, gain of i minus its gain
    after j) for each pair i < j, one value per S holding none of the items,
    in increasing S.  Both are differences of strided views of the table: an
    item's gains take half the table's size, a pair's a quarter."""
    for i in range(m):
        # axes: the bits above i, bit i, the bits below i
        v = table.reshape(-1, 2, 1 << i)
        gain = (v[:, 1] - v[:, 0]).ravel()
        yield 0, gain
        for j in range(i + 1, m):
            # bit j of S is bit j - 1 of the gain's index
            w = gain.reshape(-1, 2, 1 << (j - 1))
            yield 1, (w[:, 0] - w[:, 1]).ravel()


def check_monotone_submodular(
    oracle,
    mode: str = "exhaustive",
    trials: int = 100_000,
    rng: np.random.Generator | None = None,
) -> StructureReport:
    """Verify monotonicity and submodularity of an oracle.

    exhaustive: tabulates all 2^m values (m <= 24) and scans every
    (S, i) monotonicity pair and (S, i, j) submodularity triple in one
    array pass per item and per pair.
    sampled: checks `trials` random triples (S, i, j), (i, j) a uniform
    ordered pair of distinct items and S a uniform set with i and j removed;
    a statistical smoke test for ground sets beyond the exhaustive cap.
    A gain below -STRUCT_TOL is a violation.
    """
    m = oracle.m
    if mode == "exhaustive":
        checked = 0
        counts = [0, 0]
        for kind, gap in _structure_gaps(tabulate(oracle), m):
            checked += gap.size
            counts[kind] += int(np.count_nonzero(gap < -STRUCT_TOL))
        return StructureReport(counts == [0, 0], checked, *counts)

    if mode == "sampled":
        if m < 2:
            raise GroundSetError(f"a sampled check draws item pairs: m must be >= 2, got {m}")
        if rng is None:
            rng = np.random.default_rng(0)
        mono_count = sub_count = 0
        # every pair first: i uniform, then j uniform on the other m - 1 items
        items_i = rng.integers(0, m, trials)
        items_j = rng.integers(0, m - 1, trials)
        items_j += items_j >= items_i
        # then each block's sets, one full-range draw per word, so that the
        # triples do not depend on the block size; the bits from m up cleared
        width = word_count(m)
        below_m = np.uint64((1 << (m - 1) % WORD_BITS + 1) - 1)
        # four (rows, width) word arrays are live at once: S, the two item
        # rows and one union of them
        step = block_rows(4 * 8 * width)
        for lo in range(0, trials, step):
            pair_i, pair_j = items_i[lo : lo + step], items_j[lo : lo + step]
            bit_i, bit_j = singleton_words(m, pair_i), singleton_words(m, pair_j)
            S = rng.integers(0, 1 << WORD_BITS, (len(pair_i), width), dtype=np.uint64)
            S[:, -1] &= below_m
            S &= ~(bit_i | bit_j)
            f_s, f_si = oracle.eval_many(S), oracle.eval_many(S | bit_i)
            f_sj, f_sij = oracle.eval_many(S | bit_j), oracle.eval_many(S | bit_i | bit_j)
            gain = f_si - f_s
            mono_count += int(np.count_nonzero(gain < -STRUCT_TOL))
            sub_count += int(np.count_nonzero(gain - (f_sij - f_sj) < -STRUCT_TOL))
        return StructureReport(mono_count == sub_count == 0, trials, mono_count, sub_count)

    raise ValueError(f"unknown mode {mode!r}")

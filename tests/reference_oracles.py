"""Scalar reference values for every oracle family, driven by the descriptor.

The package holds sets only as packed uint64 rows.  Here one set is an int
mask and its value comes from Python loops over its bits, written apart from
the batch evaluators, so that tests can hold the batch path equal to an
independent reference bit for bit.  Sums run left to right from 0.0 in item
(or universe element) order, the order the batch evaluators promise.
masks_from_words, mask_of, row_of and mask_hex convert between rows, int
masks and hex the int way: the reference for pack, unpack and the hex pair.
extension_vector decodes an extension answer item by item.
binom_mean_exact is a one-block binomial sum in exact rationals, and
enum_weights the inclusion-pattern probabilities of every mask, the
reference for the package's tabulated extension.
KnotProfile is a concave profile other than the package's ramp, so that
tests can hold the two-block evaluators to reading a profile only through
value() and to_param_dict().
"""
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from symgap.instances import TwoBlockValuation
from symgap.setfn import ValuationOracle, from_hex


@dataclass(frozen=True)
class KnotProfile:
    """Piecewise-linear profile through the knots (knots_t[i], knots_v[i]);
    concave, increasing and normalized when the knots are."""

    knots_t: tuple[float, ...]
    knots_v: tuple[float, ...]

    def value(self, t):
        out = np.interp(np.asarray(t, dtype=float), self.knots_t, self.knots_v)
        return float(out) if np.ndim(t) == 0 else out

    def to_param_dict(self) -> dict:
        return {"kind": "table", "knots_t": list(self.knots_t), "knots_v": list(self.knots_v)}


def masks_from_words(words: np.ndarray) -> list[int]:
    """Rows of a packed uint64 array to int masks."""
    batch, width = words.shape
    if width <= 1:
        return words[:, 0].tolist() if width else [0] * batch
    data = words.astype("<u8", copy=False).tobytes()
    step = 8 * width
    return [int.from_bytes(data[i : i + step], "little") for i in range(0, len(data), step)]


def mask_of(row: np.ndarray) -> int:
    """The int mask of one packed row."""
    return masks_from_words(np.asarray(row)[None])[0]


def row_of(mask: int, m: int) -> np.ndarray:
    """The packed row of an int mask on [0, m): ceil(m / 64) little-endian
    64-bit words, word i holding bits [64i, 64i + 64)."""
    data = mask.to_bytes(8 * -(-m // 64), "little")
    return np.frombuffer(data, dtype="<u8").astype(np.uint64)


def mask_hex(mask: int, m: int) -> str:
    """An int mask as zero-padded hex, the descriptor form of a set."""
    return format(mask, f"0{max(1, (m + 3) // 4)}x")


def _items(mask: int):
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def extension_vector(answer, words: np.ndarray, m: int) -> np.ndarray:
    """The values f(S + j) of an eval_extensions answer (values, groups),
    one per item j outside S = `words`, in increasing j.

    Checks the answer's shape on the way: values one float64 per group,
    groups uint64 rows of the ground set's width, each nonempty, pairwise
    disjoint, together covering exactly the items outside S."""
    values, groups = answer
    assert values.dtype == np.float64 and values.shape == (len(groups),)
    assert groups.dtype == np.uint64 and groups.shape == (len(groups), -(-m // 64))
    inside = mask_of(words)
    group_of = {}
    for g, mask in enumerate(masks_from_words(groups)):
        assert mask, "empty group"
        for j in _items(mask):
            assert j not in group_of, f"item {j} in two groups"
            group_of[j] = g
    free = [j for j in range(m) if not inside >> j & 1]
    assert sorted(group_of) == free
    return values[np.array([group_of[j] for j in free], dtype=np.intp)]


def _additive(params, mask):
    w = params["weights"]
    total = 0.0
    for j in _items(mask):
        total += w[j]
    return total


def _budget_additive(params, mask):
    w, b = params["weights"], params["budget"]
    total = 0.0
    for j in _items(mask):
        total += w[j]
        if total >= b:
            return b
    return total


def _coverage(params, mask):
    cover_map, uw = params["cover_map"], params["universe_weights"]
    covered = 0
    for j in _items(mask):
        for e in cover_map[j]:
            covered |= 1 << e
    total = 0.0
    for e in _items(covered):
        total += uw[e]
    return total


def _polar(params, mask):
    a_mask = int(params["A"], 16) if params["A"] else 0
    inside = (mask & a_mask).bit_count()
    return inside + params["omega"] * (mask.bit_count() - inside)


def _product(params, mask):
    c1, c2 = params["components"]
    return 1.0 - (1.0 - scalar_value(c1, mask)) * (1.0 - scalar_value(c2, mask))


def _scaled(params, mask):
    return params["lam"] * scalar_value(params["inner"], mask)


def _two_block(descriptor, mask):
    p = descriptor["params"]
    if p["phi"]["kind"] == "table":
        phi = KnotProfile(tuple(p["phi"]["knots_t"]), tuple(p["phi"]["knots_v"]))
        m, lam = p["m"], p.get("lam", 1.0)
        val = TwoBlockValuation(m, from_hex(p["A"], m), from_hex(p["B"], m), phi, p["beta"], lam)
    else:
        val = TwoBlockValuation.from_descriptor(descriptor)
    a, b = (mask & int(p["A"], 16)).bit_count(), (mask & int(p["B"], 16)).bit_count()
    return float(val.count_values()(a, b))


_BY_PARAMS = {
    "additive": _additive,
    "budget_additive": _budget_additive,
    "coverage": _coverage,
    "polar": _polar,
    "product": _product,
    "scaled": _scaled,
}
_BY_DESCRIPTOR = {"symgap": _two_block, "two_block_product": _two_block}
KINDS = frozenset(_BY_PARAMS) | frozenset(_BY_DESCRIPTOR)


def scalar_value(descriptor: dict, mask: int) -> float:
    """f(S) for the set S with bit mask `mask`, f the oracle `descriptor`
    describes; counts no query."""
    kind = descriptor["kind"]
    if kind in _BY_DESCRIPTOR:
        return _BY_DESCRIPTOR[kind](descriptor, mask)
    return float(_BY_PARAMS[kind](descriptor["params"], mask))


def scalar_values(oracle, words: np.ndarray) -> np.ndarray:
    """scalar_value of each packed row, for the oracle's descriptor."""
    return np.array(
        [scalar_value(oracle.descriptor, mask) for mask in masks_from_words(words)],
        dtype=float,
    )


def oracle_from_scalar(m: int, fn, descriptor: dict) -> ValuationOracle:
    """An oracle on [0, m) whose batch evaluator calls fn(mask) on each row's
    int mask, for set functions a test writes as one scalar expression."""

    def fn_many(words: np.ndarray) -> np.ndarray:
        masks = masks_from_words(words)
        return np.fromiter(map(fn, masks), dtype=float, count=len(masks))

    return ValuationOracle(m, fn_many, descriptor)


def binom_mean_exact(values, n: int, p: float) -> Fraction:
    """E values[k] for k ~ Bin(n, p) in exact rationals, with p and each
    value the rational that its float is."""
    q = Fraction(p)
    return sum(
        math.comb(n, k) * q**k * (1 - q) ** (n - k) * Fraction(v) for k, v in enumerate(values)
    )


def enum_weights(p: np.ndarray) -> np.ndarray:
    """Inclusion-pattern probabilities over all 2^m masks (bit j <-> item j),
    built by doubling: the masks without item j, then those with it."""
    w = np.ones(1)
    for pj in p:
        w = np.concatenate([w * (1.0 - pj), w * pj])
    return w

"""Hard-instance families: two-block symmetric valuations, the uniform
hidden bisection, auction and public-project instances, and the paper's
parameter schedule.

The central object is the perturbed two-block surface

    psi(x, y)       = 1 - (1 - phi(x)) (1 - phi(y))
    psi_tilde(x, y) = psi at the beta-coupled arguments:
        |x - y| <= beta : ((x+y)/2, (x+y)/2)
        x - y  >  beta  : (x - beta/2, y + beta/2)
        y - x  >  beta  : (x + beta/2, y - beta/2)

applied to block occupancy fractions x = |S ∩ A|/|A|, y = |S ∩ B|/|B|.
Inside the beta band the value depends on x + y only, which is what makes
the hidden bisection (A, B) invisible to balanced queries.  Blocks are
packed uint64 rows, like every set in setfn.

A two-block value depends on the occupancy counts (a, b) alone, so every
two-block value (value queries, the blockwise extension) is read
from one table over the counts: the count grid lam * psi_tilde(a/n, b/n),
built once per (n, phi, beta, lam) and shared by every bisection of that
size.  Blocks above GRID_MAX_BLOCK evaluate psi_tilde on the counts asked
about instead, with the same values bit for bit.  The singleton extensions
S + j of one set fall in three count classes (j outside both blocks, in A,
in B), so they take at most three values: a two-block oracle answers an
extension query with the level sets of those values (extension_answers).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .setfn import (
    GroundSetError,
    OracleContractError,
    ValuationOracle,
    as_rows,
    from_hex,
    intersection_sizes,
    make_budget_additive,
    make_coverage,
    pack,
    to_hex,
    words_from_bits,
)


class Phi:
    """Normalized concave profile on [0, 1]: phi(0) = 0, nondecreasing, concave."""

    kind: str

    def value(self, t):
        raise NotImplementedError

    def to_param_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PhiAlpha(Phi):
    """phi(t) = min(t / alpha, 1): linear ramp saturating at t = alpha."""

    alpha: float
    kind: str = field(default="alpha", init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise OracleContractError(f"alpha must be in (0, 1], got {self.alpha}")

    def value(self, t):
        if isinstance(t, (float, int)):
            v = t / self.alpha
            return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)
        # np.clip(v, 0.0, 1.0) bit for bit, signed zeros included, at less
        # per-call overhead on short arrays
        return np.minimum(np.maximum(0.0, np.asarray(t, dtype=float) / self.alpha), 1.0)

    def to_param_dict(self) -> dict:
        return {"kind": "alpha", "alpha": self.alpha}


@dataclass(frozen=True)
class PhiTable(Phi):
    """Piecewise-linear concave profile given by knots; validated on build."""

    knots_t: tuple[float, ...]
    knots_v: tuple[float, ...]
    kind: str = field(default="table", init=False)

    def __post_init__(self):
        t = np.asarray(self.knots_t, dtype=float)
        v = np.asarray(self.knots_v, dtype=float)
        if t.size < 2 or t.size != v.size:
            raise OracleContractError("need matching knot arrays with >= 2 knots")
        if t[0] != 0.0 or t[-1] != 1.0 or (np.diff(t) <= 0).any():
            raise OracleContractError("knots_t must increase from 0 to 1")
        if abs(v[0]) > 1e-12:
            raise OracleContractError("phi(0) must be 0")
        if (v < -1e-12).any() or (v > 1.0 + 1e-12).any():
            raise OracleContractError("phi values must lie in [0, 1]")
        slopes = np.diff(v) / np.diff(t)
        if (slopes < -1e-12).any():
            raise OracleContractError("phi must be nondecreasing")
        if (np.diff(slopes) > 1e-12).any():
            raise OracleContractError("phi must be concave (slopes nonincreasing)")

    def value(self, t):
        out = np.interp(np.asarray(t, dtype=float), self.knots_t, self.knots_v)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def to_param_dict(self) -> dict:
        return {
            "kind": "table",
            "knots_t": list(self.knots_t),
            "knots_v": list(self.knots_v),
        }


def phi_from_param_dict(d: dict) -> Phi:
    if d["kind"] == "alpha":
        return PhiAlpha(d["alpha"])
    if d["kind"] == "table":
        return PhiTable(tuple(d["knots_t"]), tuple(d["knots_v"]))
    raise ValueError(f"unknown phi kind {d['kind']!r}")


def psi(phi: Phi, x, y):
    """psi(x, y) = 1 - (1 - phi(x))(1 - phi(y)); the product composition surface."""
    px, py = phi.value(x), phi.value(y)
    return 1.0 - (1.0 - px) * (1.0 - py)


def psi_tilde(phi: Phi, beta: float, x, y):
    """The beta-band perturbation of psi (vectorized; beta = 0 degenerates to psi)."""
    if not 0.0 <= beta < np.inf:  # NaN fails too
        raise OracleContractError(f"beta must be finite and >= 0, got {beta}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    band = np.abs(d) <= beta
    mid = 0.5 * (x + y)
    # outside the band, move each coordinate beta/2 towards the other
    shift = np.copysign(0.5 * beta, d)
    return psi(phi, np.where(band, mid, x - shift), np.where(band, mid, y + shift))


# Largest block size whose values come from the full count grid.
GRID_MAX_BLOCK = 1024


@lru_cache(maxsize=32)
def _count_grid(n: int, phi: Phi, beta: float, lam: float) -> np.ndarray:
    """Read-only (n+1) x (n+1) table of lam * psi_tilde(a/n, b/n) over the
    occupancy counts; the blocks are not part of the key."""
    xs = np.arange(n + 1) / n
    grid = lam * psi_tilde(phi, beta, xs[:, None], xs[None, :])
    grid.flags.writeable = False
    return grid


@dataclass(frozen=True, eq=False)
class TwoBlockValuation:
    """Descriptor of lam * psi_tilde(|S∩A|/|A|, |S∩B|/|B|) on ground [0, m),
    the blocks A and B packed rows.

    beta = 0 is allowed here (the unperturbed product-of-blocks surface);
    the adversarial family built by make_symgap_valuation requires beta > 0.
    """

    m: int
    A: np.ndarray
    B: np.ndarray
    phi: Phi
    beta: float
    lam: float = 1.0
    kind: str = "symgap"

    def __post_init__(self):
        for block in (self.A, self.B):
            as_rows(block, self.m, ndim=1)
        a, b = np.bitwise_count(self.blocks).sum(1).tolist()
        if a == 0 or b == 0:
            raise OracleContractError("blocks must be nonempty")
        if a != b:
            raise OracleContractError("blocks must have equal size")
        if (self.A & self.B).any():
            raise OracleContractError("blocks must be disjoint")
        if self.beta < 0:
            raise OracleContractError("beta must be >= 0")
        if self.lam < 0:
            raise OracleContractError("lam must be >= 0")

    @cached_property
    def blocks(self) -> np.ndarray:
        """A and B as the two rows of one array."""
        return np.stack([self.A, self.B])

    @cached_property
    def block_size(self) -> int:
        return int(np.bitwise_count(self.A).sum())

    def count_grid(self) -> np.ndarray:
        """The shared read-only (|A|+1) x (|B|+1) table of values over
        occupancy counts."""
        return _count_grid(self.block_size, self.phi, self.beta, self.lam)

    def count_values(self) -> Callable:
        """The map from occupancy counts (a, b), ints or int arrays, to values.

        Blocks up to GRID_MAX_BLOCK look the counts up in count_grid(); larger
        blocks evaluate lam * psi_tilde(a/n, b/n), which gives the same values.
        """
        if self.block_size <= GRID_MAX_BLOCK:
            grid = self.count_grid()
            return lambda a, b: grid[a, b]
        n, phi, beta, lam = self.block_size, self.phi, self.beta, self.lam
        return lambda a, b: lam * psi_tilde(phi, beta, a / n, b / n)

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "params": {
                "A": to_hex(self.A, self.m),
                "B": to_hex(self.B, self.m),
                "m": self.m,
                "phi": self.phi.to_param_dict(),
                "beta": self.beta,
                "lam": self.lam,
            },
            "seed": None,
        }

    def oracle(self) -> ValuationOracle:
        value = self.count_values()
        answer = extension_answers(self, value)

        def fn_many(words: np.ndarray) -> np.ndarray:
            return value(intersection_sizes(words, self.A), intersection_sizes(words, self.B))

        def fn_extensions(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return answer(words)[:2]

        return ValuationOracle(self.m, fn_many, self.descriptor(), fn_extensions)

    @classmethod
    def from_descriptor(cls, desc: dict) -> TwoBlockValuation:
        """The valuation whose descriptor() is `desc`."""
        if desc.get("kind") not in ("symgap", "two_block_product"):
            raise GroundSetError("not a two-block valuation descriptor")
        p = desc["params"]
        return cls(
            p["m"],
            from_hex(p["A"], p["m"]),
            from_hex(p["B"], p["m"]),
            phi_from_param_dict(p["phi"]),
            p["beta"],
            p.get("lam", 1.0),
            kind=desc["kind"],
        )


# row c: which of the three count classes the union numbered c holds, class
# i when bit i of c is set
_UNION_CLASSES = (np.arange(8)[:, None] >> np.arange(3) & 1).astype(bool)


def extension_answers(val: TwoBlockValuation, value: Callable) -> Callable:
    """The extension queries of a two-block valuation, answered by count
    class; `value` is the valuation's count_values().

    The items outside both blocks, the items of A and those of B are three
    classes, and S + j has the occupancy counts (a, b), (a + 1, b) or
    (a, b + 1) by the class of j, with (a, b) those of S.  The function
    returned maps S, one packed row, to (values, groups, found): values and
    groups the level sets of j -> f(S + j), the answer of eval_extensions,
    and found the (size, a, b) of each class with items outside S, size
    their number and (a, b) the occupancy counts of S + j for each of them.
    The class rows are built once, here."""
    m, n = val.m, val.block_size
    classes = np.stack([pack(range(m), m) & ~(val.A | val.B), val.A, val.B])
    unions = np.bitwise_or.reduce(np.where(_UNION_CLASSES[:, :, None], classes, 0), axis=1)
    totals = (m - 2 * n, n, n)
    adds = ((0, 0), (1, 0), (0, 1))  # what j adds to (a, b), by class

    def answer(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
        held = np.add.reduce(np.bitwise_count(classes & words), axis=1).tolist()
        found = []
        # level value -> the bits of its classes.  Equal values merge and a
        # NaN merges with none; the zeros of a two-block valuation all have
        # the sign of lam, so equal values have equal bits
        levels: dict[float, int] = {}
        for c in range(3):
            if held[c] < totals[c]:
                a, b = held[1] + adds[c][0], held[2] + adds[c][1]
                found.append((totals[c] - held[c], a, b))
                v = float(value(a, b))
                levels[v] = levels.get(v, 0) | 1 << c
        return np.array(list(levels)), unions.take(list(levels.values()), axis=0) & ~words, found

    return answer


def make_symgap_valuation(
    m: int, A: np.ndarray, B: np.ndarray, phi: Phi, beta: float, lam: float = 1.0
) -> TwoBlockValuation:
    """The hidden-bisection adversarial valuation on [0, m), blocks A and B
    packed rows; requires beta > 0."""
    if beta <= 0:
        raise OracleContractError(f"adversarial family needs beta > 0, got {beta}")
    return TwoBlockValuation(m, A, B, phi, float(beta), float(lam), kind="symgap")


def two_block_product_instance(block_size: int, alpha: float) -> TwoBlockValuation:
    """Unperturbed product of two saturating blocks on 2*block_size items.

    f_i(S) = min(|S ∩ M_i| / (alpha * block_size), 1) and
    f = 1 - (1 - f_1)(1 - f_2); beta = 0.  This is the instance whose
    exponential extension is concave at alpha = 1 and loses a constant
    factor at alpha = 1/2.
    """
    if block_size <= 0:
        raise OracleContractError("block_size must be positive")
    m = 2 * block_size
    A, B = pack(range(block_size), m), pack(range(block_size, m), m)
    return TwoBlockValuation(m, A, B, PhiAlpha(alpha), 0.0, 1.0, kind="two_block_product")


# named for the nested levels it once drew: perfbench's tracer wraps it by name
def sample_bisection_sequence(m: int, rng: np.random.Generator) -> np.ndarray:
    """One uniform equal bisection of [0, m): shuffle, then A = the first
    m/2 items and B = the rest, as a (2, word_count(m)) array of packed
    rows (A, B)."""
    if m < 2 or m % 2:
        raise GroundSetError(f"a bisection needs an even m >= 2, got {m}")
    perm = rng.permutation(m)
    bits = np.zeros((2, m), dtype=bool)
    bits[0, perm[: m // 2]] = bits[1, perm[m // 2 :]] = True
    return words_from_bits(bits)


@dataclass(frozen=True)
class CPPLevelParams:
    """The paper's parameters at scale index ell: m = 400^ell, k = 200^ell,
    n = 2^ell, beta = n / sqrt(m) = 10^-ell.  Each scale is one two-block
    instance on m items, not a recursion level.  Desk scale stops at ell = 2."""

    ell: int

    def __post_init__(self):
        if self.ell not in (1, 2):
            raise GroundSetError(f"desk-scale paper profiles have ell in {{1, 2}}, got {self.ell}")

    @property
    def m(self) -> int:
        return 400**self.ell

    @property
    def k(self) -> int:
        return 200**self.ell

    @property
    def n(self) -> int:
        return 2**self.ell

    @property
    def beta(self) -> float:
        return self.n / np.sqrt(self.m)


@dataclass(frozen=True)
class CPPInstance:
    """Public-project instance: pick one set of size <= k, all players consume it."""

    oracles: tuple[ValuationOracle, ...]
    k: int

    def __post_init__(self):
        if not self.oracles:
            raise OracleContractError("need at least one player")
        m = self.oracles[0].m
        if any(o.m != m for o in self.oracles):
            raise GroundSetError("player ground sets differ")
        if not 0 < self.k <= m:
            raise GroundSetError(f"k = {self.k} outside (0, {m}]")

    @property
    def m(self) -> int:
        return self.oracles[0].m

    @property
    def n(self) -> int:
        return len(self.oracles)


@dataclass(frozen=True)
class AuctionInstance:
    """Combinatorial auction: disjoint bundles per player, items may stay unallocated."""

    oracles: tuple[ValuationOracle, ...]

    def __post_init__(self):
        if not self.oracles:
            raise OracleContractError("need at least one player")
        m = self.oracles[0].m
        if any(o.m != m for o in self.oracles):
            raise GroundSetError("player ground sets differ")

    @property
    def m(self) -> int:
        return self.oracles[0].m

    @property
    def n(self) -> int:
        return len(self.oracles)


def expected_union_size(n: int, m: int) -> float:
    """Closed form E|A_1 ∪ ... ∪ A_n| = m (1 - (1 - 1/n)^n) for independent
    uniform size-(m/n) favorite sets."""
    return m * (1.0 - (1.0 - 1.0 / n) ** n)


def random_cpp_instance(
    rng: np.random.Generator,
    m_max: int = 16,
    k_max: int = 4,
) -> CPPInstance:
    """Random small public-project instance mixing the concrete oracle families."""
    for name, value, least in (("m_max", m_max, 4), ("k_max", k_max, 1)):
        if value < least:
            raise OracleContractError(f"{name} must be >= {least}, got {value}")
    m = int(rng.integers(4, m_max + 1))
    m -= m % 2  # keep even so a symgap split is always available
    k = int(rng.integers(1, min(k_max, m) + 1))
    n = int(rng.integers(1, 4))  # 1 to 3 players
    oracles = []
    for _ in range(n):
        family = rng.choice(["coverage", "budget_additive", "symgap"])
        if family == "coverage":
            u = int(rng.integers(2, 9))
            weights = rng.uniform(0.1, 1.0, size=u).tolist()
            cover = [
                sorted(int(e) for e in rng.choice(u, size=rng.integers(1, u + 1), replace=False))
                for _ in range(m)
            ]
            oracles.append(make_coverage(weights, cover))
        elif family == "budget_additive":
            w = rng.uniform(0.1, 1.0, size=m)
            budget = float(rng.uniform(0.5, 0.9) * w.sum())
            oracles.append(make_budget_additive(w.tolist(), budget))
        else:
            A, B = sample_bisection_sequence(m, rng)
            alpha = float(rng.choice([0.3, 0.5, 1.0]))
            beta = float(rng.choice([0.05, 0.1, 0.25]))
            oracles.append(make_symgap_valuation(m, A, B, PhiAlpha(alpha), beta).oracle())
    return CPPInstance(tuple(oracles), k)

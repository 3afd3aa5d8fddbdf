"""Hard-instance families: two-block symmetric valuations, bisection
sequences, auction and public-project instances, and level parameter
schedules.

The central object is the perturbed two-block surface

    psi(x, y)       = 1 - (1 - phi(x)) (1 - phi(y))
    psi_tilde(x, y) = psi at the beta-coupled arguments:
        |x - y| <= beta : ((x+y)/2, (x+y)/2)
        x - y  >  beta  : (x - beta/2, y + beta/2)
        y - x  >  beta  : (x + beta/2, y - beta/2)

applied to block occupancy fractions x = |S ∩ A|/|A|, y = |S ∩ B|/|B|.
Inside the beta band the value depends on x + y only, which is what makes
the hidden bisection (A, B) invisible to balanced queries.  Blocks and
bisection levels are packed uint64 rows, like every set in setfn.

A two-block value depends on the occupancy counts (a, b) alone, so every
two-block value (value queries, the blockwise extension) is read
from one table over the counts: the count grid lam * psi_tilde(a/n, b/n),
built once per (n, phi, beta, lam) and shared by every bisection of that
size.  Blocks above GRID_MAX_BLOCK evaluate psi_tilde on the counts asked
about instead, with the same values bit for bit.  The singleton extensions
S + j of one set fall in three count classes (j outside both blocks, in A,
in B), so they need at most three values (extension_counts, item_labels).
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
    bits_from_words,
    from_hex,
    intersection_sizes,
    make_budget_additive,
    make_coverage,
    pack,
    to_hex,
    word_count,
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
    if beta < 0:
        raise OracleContractError(f"beta must be >= 0, got {beta}")
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
        blocks, value = self.blocks, self.count_values()

        def fn_many(words: np.ndarray) -> np.ndarray:
            return value(intersection_sizes(words, self.A), intersection_sizes(words, self.B))

        labels, n = item_labels(blocks, self.m), self.block_size

        def fn_extensions(words: np.ndarray, free: np.ndarray) -> np.ndarray:
            return value(*extension_counts(words, blocks, n)).take(labels.take(free))

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


def item_labels(blocks: np.ndarray, m: int) -> np.ndarray:
    """Per item of [0, m): 1 in A, 2 in B, 0 in neither block, with A and B
    packed as the two rows of `blocks`; the classes of extension_counts()."""
    in_a, in_b = bits_from_words(blocks, m)
    return in_a + 2 * in_b.astype(np.intp)


def extension_counts(words: np.ndarray, blocks: np.ndarray, n: int) -> np.ndarray:
    """Occupancy counts of S + j, S packed as one row and A, B as the two
    rows of `blocks`: column c holds (a, b) for the items j of class c of
    item_labels().

    A count is capped at the block size n: a full block's class has no
    item outside S, so its value is never asked for."""
    a, b = intersection_sizes(blocks, words).tolist()
    return np.array([[a, min(a + 1, n), a], [b, b, min(b + 1, n)]])


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


@dataclass(frozen=True, eq=False)
class BisectionSequence:
    """Nested uniform bisections: level ell - 1 splits the ground set into
    equal halves (A_j, B_j), and each lower level j splits the A-part of the
    level above."""

    m: int
    ell: int
    # (ell, 2, word_count(m)) packed rows: levels[i] = (A_j, B_j) for
    # j = ell - 1 - i, so index 0 is level ell - 1 and the last is level 0
    levels: np.ndarray

    def level(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(A_j, B_j) for 0 <= j < ell."""
        if not 0 <= j < self.ell:
            raise GroundSetError(f"level {j} outside [0, {self.ell})")
        return tuple(self.levels[self.ell - 1 - j])


def sample_bisection_sequence(
    m: int, ell: int, rng: np.random.Generator
) -> BisectionSequence:
    """Sample the nested bisections by shuffle-then-split at every level."""
    if ell < 1:
        raise GroundSetError(f"ell must be >= 1, got {ell}")
    if m % (1 << ell):
        raise GroundSetError(f"m = {m} not divisible by 2^ell = {1 << ell}")
    if m < 1:
        raise GroundSetError(f"m must be positive, got {m}")
    current = np.arange(m)
    # row 2i holds A and row 2i + 1 holds B of the i-th level drawn
    bits = np.zeros((2 * ell, m), dtype=bool)
    for i in range(ell):
        perm = current[rng.permutation(len(current))]
        half = len(current) // 2
        bits[2 * i, perm[:half]] = bits[2 * i + 1, perm[half:]] = True
        current = perm[:half]
    return BisectionSequence(m, ell, words_from_bits(bits).reshape(ell, 2, word_count(m)))


@dataclass(frozen=True)
class CPPLevelParams:
    """Parameter schedule per recursion level: m = 400^ell, k = 200^ell,
    n = 2^ell, beta = n / sqrt(m) = 10^-ell.  Desk scale stops at ell = 2."""

    ell: int

    def __post_init__(self):
        if self.ell not in (1, 2):
            raise GroundSetError(
                f"paper-profile levels are ell in {{1, 2}} at desk scale, got {self.ell}"
            )

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
            half = m // 2
            perm = rng.permutation(m)
            A, B = pack(perm[:half], m), pack(perm[half:], m)
            alpha = float(rng.choice([0.3, 0.5, 1.0]))
            beta = float(rng.choice([0.05, 0.1, 0.25]))
            oracles.append(make_symgap_valuation(m, A, B, PhiAlpha(alpha), beta).oracle())
    return CPPInstance(tuple(oracles), k)

"""Hard-instance families: two-block symmetric valuations, bisection
sequences, polar-player auctions, and level parameter schedules.

The central object is the perturbed two-block surface

    psi(x, y)       = 1 - (1 - phi(x)) (1 - phi(y))
    psi_tilde(x, y) = psi at the beta-coupled arguments:
        |x - y| <= beta : ((x+y)/2, (x+y)/2)
        x - y  >  beta  : (x - beta/2, y + beta/2)
        y - x  >  beta  : (x + beta/2, y - beta/2)

applied to block occupancy fractions x = |S ∩ A|/|A|, y = |S ∩ B|/|B|.
Inside the beta band the value depends on x + y only, which is what makes
the hidden bisection (A, B) invisible to balanced queries.

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
from functools import lru_cache
from typing import Callable

import numpy as np

from .setfn import (
    GroundSetError,
    ItemSet,
    OracleContractError,
    ValuationOracle,
    bits_from_words,
    intersection_sizes,
    make_budget_additive,
    make_coverage,
    make_polar,
    random_subset,
    words_from_masks,
)


class Phi:
    """Normalized concave profile on [0, 1]: phi(0) = 0, nondecreasing, concave."""

    kind: str

    def value(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.value(t)

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


@dataclass(frozen=True)
class TwoBlockValuation:
    """Descriptor of lam * psi_tilde(|S∩A|/|A|, |S∩B|/|B|) on ground [0, m).

    beta = 0 is allowed here (the unperturbed product-of-blocks surface);
    the adversarial family built by make_symgap_valuation requires beta > 0.
    """

    A: ItemSet
    B: ItemSet
    phi: Phi
    beta: float
    lam: float = 1.0
    kind: str = "symgap"

    def __post_init__(self):
        if self.A.m != self.B.m:
            raise GroundSetError("A and B must share a ground set")
        if len(self.A) == 0 or len(self.B) == 0:
            raise OracleContractError("blocks must be nonempty")
        if len(self.A) != len(self.B):
            raise OracleContractError("blocks must have equal size")
        if (self.A & self.B).mask:
            raise OracleContractError("blocks must be disjoint")
        if self.beta < 0:
            raise OracleContractError("beta must be >= 0")
        if self.lam < 0:
            raise OracleContractError("lam must be >= 0")

    @property
    def m(self) -> int:
        return self.A.m

    @property
    def block_size(self) -> int:
        return len(self.A)

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
                "A": self.A.to_hex(),
                "B": self.B.to_hex(),
                "m": self.m,
                "phi": self.phi.to_param_dict(),
                "beta": self.beta,
                "lam": self.lam,
            },
            "seed": None,
        }

    def oracle(self) -> ValuationOracle:
        a_mask, b_mask = self.A.mask, self.B.mask
        blocks = words_from_masks([a_mask, b_mask], self.m)
        a_words, b_words = blocks
        value = self.count_values()

        def fn_many(words: np.ndarray) -> np.ndarray:
            return value(intersection_sizes(words, a_words), intersection_sizes(words, b_words))

        labels, n = item_labels(blocks, self.m), self.block_size

        def fn_extensions(words: np.ndarray, free: np.ndarray) -> np.ndarray:
            return value(*extension_counts(words, a_mask, b_mask, n)).take(labels.take(free))

        return ValuationOracle(self.m, fn_many, self.descriptor(), fn_extensions)

    @classmethod
    def from_descriptor(cls, desc: dict) -> TwoBlockValuation:
        """The valuation whose descriptor() is `desc`."""
        if desc.get("kind") not in ("symgap", "two_block_product"):
            raise GroundSetError("not a two-block valuation descriptor")
        p = desc["params"]
        return cls(
            ItemSet.from_hex(p["A"], p["m"]),
            ItemSet.from_hex(p["B"], p["m"]),
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


def extension_counts(words: np.ndarray, a_mask: int, b_mask: int, n: int) -> np.ndarray:
    """Occupancy counts of S + j, S packed as one row: column c holds (a, b)
    for the items j of class c of item_labels().

    A count is capped at the block size n: a full block's class has no
    item outside S, so its value is never asked for."""
    s = int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")
    a, b = (s & a_mask).bit_count(), (s & b_mask).bit_count()
    return np.array([[a, min(a + 1, n), a], [b, b, min(b + 1, n)]])


def make_symgap_valuation(
    A: ItemSet, B: ItemSet, phi: Phi, beta: float, lam: float = 1.0
) -> TwoBlockValuation:
    """The hidden-bisection adversarial valuation; requires beta > 0."""
    if beta <= 0:
        raise OracleContractError(f"adversarial family needs beta > 0, got {beta}")
    return TwoBlockValuation(A, B, phi, float(beta), float(lam), kind="symgap")


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
    A = ItemSet((1 << block_size) - 1, m)
    B = ItemSet(((1 << block_size) - 1) << block_size, m)
    return TwoBlockValuation(A, B, PhiAlpha(alpha), 0.0, 1.0, kind="two_block_product")


@dataclass(frozen=True)
class BisectionSequence:
    """Nested uniform bisections: level ell is the full ground set; each
    level j < ell splits the previous A-part into equal halves (A_j, B_j)."""

    m: int
    ell: int
    levels: tuple[tuple[ItemSet, ItemSet], ...]  # index 0 -> level ell-1, ... last -> level 0

    def level(self, j: int) -> tuple[ItemSet, ItemSet]:
        """(A_j, B_j) for 0 <= j < ell."""
        if not 0 <= j < self.ell:
            raise GroundSetError(f"level {j} outside [0, {self.ell})")
        return self.levels[self.ell - 1 - j]

    def A(self, j: int) -> ItemSet:
        """A_j; A_ell is the full ground set."""
        if j == self.ell:
            return ItemSet.full(self.m)
        return self.level(j)[0]

    def B(self, j: int) -> ItemSet:
        if j == self.ell:
            return ItemSet.full(self.m)
        return self.level(j)[1]


def sample_bisection_sequence(
    m: int, ell: int, rng: np.random.Generator
) -> BisectionSequence:
    """Sample the nested bisections by shuffle-then-split at every level."""
    if ell < 1:
        raise GroundSetError(f"ell must be >= 1, got {ell}")
    if m % (1 << ell):
        raise GroundSetError(f"m = {m} not divisible by 2^ell = {1 << ell}")
    current = list(range(m))
    levels = []
    for _ in range(ell):
        perm = rng.permutation(len(current))
        half = len(current) // 2
        a_items = [current[int(i)] for i in perm[:half]]
        b_items = [current[int(i)] for i in perm[half:]]
        levels.append(
            (ItemSet.from_indices(a_items, m), ItemSet.from_indices(b_items, m))
        )
        current = a_items
    return BisectionSequence(m, ell, tuple(levels))


def balancedness(S: ItemSet, A: ItemSet, B: ItemSet, beta: float) -> tuple[float, bool]:
    """(|x - y|, |x - y| <= beta) for x, y the occupancy fractions of S in A, B."""
    x = S.intersection_size(A) / len(A)
    y = S.intersection_size(B) / len(B)
    dev = abs(x - y)
    return dev, dev <= beta


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

    def to_dict(self) -> dict:
        return {"ell": self.ell, "m": self.m, "k": self.k, "n": self.n, "beta": self.beta}


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

    def welfare(self, S) -> float:
        return sum(o.eval(S) for o in self.oracles)


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


@dataclass(frozen=True)
class BasicAuctionDescriptor:
    n: int
    m: int
    omega: float
    seed: int
    A_sets: tuple[ItemSet, ...]

    def to_dict(self) -> dict:
        return {
            "kind": "basic_auction",
            "n": self.n,
            "m": self.m,
            "omega": self.omega,
            "seed": self.seed,
            "A_sets": [A.to_hex() for A in self.A_sets],
        }


def make_basic_auction(
    n: int, m: int, omega: float, seed: int
) -> tuple[AuctionInstance, BasicAuctionDescriptor]:
    """n polar players with independent uniformly random favorite sets of size m/n.

    The expected union of the favorite sets is m(1 - (1 - 1/n)^n) > m/2, which
    is what gives socially-efficient outcomes their counting advantage.
    """
    if n < 1 or m < n or m % n:
        raise GroundSetError(f"need n | m with n >= 1, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    A_sets = tuple(random_subset(m, m // n, rng) for _ in range(n))
    oracles = tuple(make_polar(A, omega) for A in A_sets)
    return AuctionInstance(oracles), BasicAuctionDescriptor(n, m, omega, seed, A_sets)


def expected_union_size(n: int, m: int) -> float:
    """Closed form E|A_1 ∪ ... ∪ A_n| = m (1 - (1 - 1/n)^n) for independent
    uniform size-(m/n) favorite sets."""
    return m * (1.0 - (1.0 - 1.0 / n) ** n)


def random_cpp_instance(
    rng: np.random.Generator,
    m_max: int = 16,
    k_max: int = 4,
    n_max: int = 3,
) -> CPPInstance:
    """Random small public-project instance mixing the concrete oracle families."""
    for name, value, least in (("m_max", m_max, 4), ("k_max", k_max, 1)):
        if value < least:
            raise OracleContractError(f"{name} must be >= {least}, got {value}")
    m = int(rng.integers(4, m_max + 1))
    m -= m % 2  # keep even so a symgap split is always available
    k = int(rng.integers(1, min(k_max, m) + 1))
    n = int(rng.integers(1, n_max + 1))
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
            A = ItemSet.from_indices([int(j) for j in perm[:half]], m)
            B = ItemSet.from_indices([int(j) for j in perm[half:]], m)
            alpha = float(rng.choice([0.3, 0.5, 1.0]))
            beta = float(rng.choice([0.05, 0.1, 0.25]))
            oracles.append(make_symgap_valuation(A, B, PhiAlpha(alpha), beta).oracle())
    return CPPInstance(tuple(oracles), k)

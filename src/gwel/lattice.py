"""Finite-scale model of the lattice of invariant sub-sigma-algebras.

A finite probability space with strictly positive weights, partitions
as sub-sigma-algebras, join/meet, monotone chain limits, and the entropy
functional sum_g mu(g) KL(weights | g-translated weights) on invariant
partitions.  Every quantity is a closed form in block weights: the
Hilbert-Schmidt distance between two conditional expectations sums over
the blocks of the join, and the entropy functional over the blocks of
one partition, so no operator matrix is ever built.  Points are 0-based
throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class FiniteSpace:
    """Point weights, strictly positive, summing to 1."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ParameterError("space needs at least one point")
        if not all(0 < w < math.inf for w in self.weights):  # rejects NaN too
            raise ParameterError("weights must be finite and strictly positive")
        total = math.fsum(self.weights)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ParameterError(f"weights sum to {total!r}, not 1")

    @property
    def m(self) -> int:
        return len(self.weights)

    @classmethod
    def uniform(cls, m: int) -> "FiniteSpace":
        if m < 1:
            raise ParameterError("space needs at least one point")
        return cls((1.0 / m,) * m)


class Partition:
    """Partition of {0..m-1}; block ids are contiguous from 0 in order
    of first occurrence, so equal partitions compare equal."""

    __slots__ = ("block_of", "n_blocks")

    def __init__(self, assignment):
        remap: dict = {}
        out = []
        for b in assignment:
            if b not in remap:
                remap[b] = len(remap)
            out.append(remap[b])
        if not out:
            raise ParameterError("partition of an empty point set")
        self.block_of = tuple(out)
        self.n_blocks = len(remap)

    @property
    def m(self) -> int:
        return len(self.block_of)

    @classmethod
    def trivial(cls, m: int) -> "Partition":
        return cls([0] * m)

    def blocks(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for x, b in enumerate(self.block_of):
            out[b].append(x)
        return out

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        if self.m != other.m:
            raise ParameterError("partitions on different point counts")
        seen: dict[int, int] = {}
        for x in range(self.m):
            b = self.block_of[x]
            if b in seen:
                if seen[b] != other.block_of[x]:
                    return False
            else:
                seen[b] = other.block_of[x]
        return True

    def __eq__(self, other):
        return isinstance(other, Partition) and self.block_of == other.block_of

    def __hash__(self):
        return hash(self.block_of)

    def __repr__(self):
        return f"Partition({list(self.block_of)})"


def join(p: Partition, q: Partition) -> Partition:
    """Common refinement."""
    if p.m != q.m:
        raise ParameterError("partitions on different point counts")
    return Partition(zip(p.block_of, q.block_of))


def meet(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening: connected components of block overlap."""
    if p.m != q.m:
        raise ParameterError("partitions on different point counts")
    m = p.m
    parent = list(range(m))

    def find(x):
        r = x
        while parent[r] != r:
            r = parent[r]
        while parent[x] != r:
            parent[x], x = r, parent[x]
        return r

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx > ry:
                rx, ry = ry, rx
            parent[ry] = rx

    for part in (p, q):
        first: dict[int, int] = {}
        for x in range(m):
            b = part.block_of[x]
            if b in first:
                union(first[b], x)
            else:
                first[b] = x
    return Partition(find(x) for x in range(m))


def _block_weights(lam, p: Partition) -> list[float]:
    out = [0.0] * p.n_blocks
    for x, b in enumerate(p.block_of):
        out[b] += lam[x]
    return out


def l2_distance(space: FiniteSpace, p: Partition, q: Partition) -> float:
    """Hilbert-Schmidt norm of E_p - E_q in the weight-weighted inner
    product, where E_p averages over the blocks of p with the weights.

    A block C of join(p, q) lies inside a block P of p and a block Q of
    q and contributes lam(C) (lam(P) + lam(Q) - 2 lam(C)) / (lam(P) lam(Q))
    to the squared norm.  Every term is nonnegative, and each is exactly
    0.0 when p == q."""
    if p.m != space.m or q.m != space.m:
        raise ParameterError("partition does not match the space")
    wp = _block_weights(space.weights, p)
    wq = _block_weights(space.weights, q)
    wc: dict[tuple[int, int], float] = {}  # join block as its (P, Q) pair
    for pair, w in zip(zip(p.block_of, q.block_of), space.weights):
        wc[pair] = wc.get(pair, 0.0) + w
    return math.sqrt(math.fsum(
        c * (wp[a] + wq[b] - 2.0 * c) / (wp[a] * wq[b]) for (a, b), c in wc.items()
    ))


class FiniteAction:
    """Group generators acting by permutations, with the uniform step
    distribution over the 2g signed generator letters (+i is generator
    i, -i its inverse)."""

    __slots__ = ("perms", "inv_perms", "step")

    def __init__(self, perms):
        perms = tuple(tuple(p) for p in perms)
        if not perms:
            raise ParameterError("action needs at least one generator")
        m = len(perms[0])
        for p in perms:
            if len(p) != m or sorted(p) != list(range(m)):
                raise ParameterError(f"generator image {p!r} is not a permutation")
        self.perms = perms
        inv = []
        for p in perms:
            q = [0] * m
            for i, x in enumerate(p):
                q[x] = i
            inv.append(tuple(q))
        self.inv_perms = tuple(inv)
        w = 1.0 / (2 * len(perms))
        self.step = tuple((sign * i, w) for i in range(1, len(perms) + 1) for sign in (1, -1))

    @property
    def m(self) -> int:
        return len(self.perms[0])

    @property
    def n_gens(self) -> int:
        return len(self.perms)

    def act(self, letter: int, x: int) -> int:
        if letter > 0:
            return self.perms[letter - 1][x]
        return self.inv_perms[-letter - 1][x]

    def act_word(self, letters, x: int) -> int:
        for l in letters:
            x = self.act(l, x)
        return x

    def translate(self, p: Partition, letter: int) -> Partition:
        """Image partition: the block of g.x is the block x had."""
        if p.m != self.m:
            raise ParameterError("partition does not match the action")
        out = [0] * self.m
        for x in range(self.m):
            out[self.act(letter, x)] = p.block_of[x]
        return Partition(out)

    def is_invariant(self, p: Partition) -> bool:
        return all(
            self.translate(p, g) == p for g in range(1, self.n_gens + 1)
        )


def _image_blocks(action: FiniteAction, p: Partition, letters) -> list[int]:
    """Block of g.B for each block B of an invariant p, g a letter
    sequence; block ids run in order of first point, so each block's
    first point is found in one pass."""
    first: list[int] = []
    for x, b in enumerate(p.block_of):
        if b == len(first):
            first.append(x)
    return [p.block_of[action.act_word(letters, x)] for x in first]


def entropy_functional(action: FiniteAction, space: FiniteSpace, p: Partition) -> float:
    """sum_g mu(g) sum_b lam(b) (log lam(b) - log lam(g.b)), i.e.
    sum_g mu(g) KL(block weights | g-translated block weights).
    Requires p invariant; nonnegative (tiny negative rounding clamped)."""
    if space.m != action.m:
        raise ParameterError("space does not match the action")
    if p.m != action.m:
        raise ParameterError("partition does not match the action")
    if not action.is_invariant(p):
        raise ParameterError("partition is not invariant under the action")
    bw = _block_weights(space.weights, p)
    logs = [math.log(v) for v in bw]
    total_terms = []
    for letter, w in action.step:
        if w == 0.0:
            continue
        img = _image_blocks(action, p, (letter,))
        kl = math.fsum(bw[b] * (logs[b] - logs[img[b]]) for b in range(p.n_blocks))
        total_terms.append(w * kl)
    val = math.fsum(total_terms)
    if -1e-12 < val < 0.0:
        val = 0.0
    return val


@dataclass(frozen=True)
class ChainReport:
    direction: str
    limit: Partition
    distances: tuple[float, ...]
    stabilized_at: int
    distances_non_increasing: bool
    functionals: tuple[float, ...] | None = None
    functional_limit: float | None = None
    functional_monotone: bool | None = None


def monotone_chain_limit(
    space: FiniteSpace,
    chain,
    direction: str,
    action: FiniteAction | None = None,
) -> ChainReport:
    """Limit of a monotone chain of partitions with per-step diagnostics.

    Increasing chains refine step by step and converge to the join;
    decreasing chains coarsen and converge to the meet; on a finite
    space both are the last element, which the monotonicity check
    guarantees.  Reports the L2 distance
    of each conditional expectation to the limit one (non-increasing to
    0) and, when an action is supplied, the entropy functional per step
    (monotone, ending at the limit value)."""
    chain = list(chain)
    if not chain:
        raise ParameterError("chain must be nonempty")
    if direction not in ("increasing", "decreasing"):
        raise ParameterError(f"unknown direction {direction!r}")
    for part in chain:
        if part.m != space.m:
            raise ParameterError("chain partition does not match the space")
    for a, b in zip(chain, chain[1:]):
        ok = b.refines(a) if direction == "increasing" else a.refines(b)
        if not ok:
            raise ParameterError(f"chain is not monotone {direction}")
    limit = chain[-1]
    distances = tuple(l2_distance(space, part, limit) for part in chain)
    at = len(chain) - 1
    while at > 0 and chain[at - 1] == limit:
        at -= 1
    non_inc = all(
        distances[i + 1] <= distances[i] + 1e-12 for i in range(len(distances) - 1)
    )

    functionals = None
    functional_limit = None
    monotone = None
    if action is not None:
        functionals = tuple(entropy_functional(action, space, part) for part in chain)
        functional_limit = functionals[-1]
        pairs = zip(functionals, functionals[1:])
        if direction == "increasing":
            monotone = all(b >= a - 1e-12 for a, b in pairs)
        else:
            monotone = all(b <= a + 1e-12 for a, b in pairs)
    return ChainReport(
        direction=direction,
        limit=limit,
        distances=distances,
        stabilized_at=at,
        distances_non_increasing=non_inc,
        functionals=functionals,
        functional_limit=functional_limit,
        functional_monotone=monotone,
    )


def random_weights(m: int, seed: int) -> tuple[float, ...]:
    """Strictly positive weights summing to 1 from a seeded stream."""
    if m < 1:
        raise ParameterError("space needs at least one point")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    raw = rng.random(m) + 0.5
    total = float(raw.sum())
    return tuple(float(v) / total for v in raw)


__all__ = [
    "ChainReport",
    "FiniteAction",
    "FiniteSpace",
    "Partition",
    "entropy_functional",
    "join",
    "l2_distance",
    "meet",
    "monotone_chain_limit",
    "random_weights",
]

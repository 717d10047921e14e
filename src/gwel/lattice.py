"""Finite-scale model of the lattice of invariant sub-sigma-algebras.

A finite probability space with strictly positive weights, partitions
as sub-sigma-algebras, conditional expectations as weighted projection
operators, join/meet, an L2 Hilbert-Schmidt metric on the projections,
monotone chain limits, and the entropy functional
sum_g mu(g) KL(weights | g-translated weights) on invariant partitions.
Everything is exact linear algebra at machine precision; points are
0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConvergenceError, ParameterError

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class FiniteSpace:
    """Point weights, strictly positive, summing to 1."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise ParameterError("space needs at least one point")
        if any(w <= 0 for w in self.weights):
            raise ParameterError("weights must be strictly positive")
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
    def discrete(cls, m: int) -> "Partition":
        return cls(range(m))

    @classmethod
    def trivial(cls, m: int) -> "Partition":
        return cls([0] * m)

    @classmethod
    def from_blocks(cls, blocks, m: int) -> "Partition":
        assignment = [-1] * m
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < m:
                    raise ParameterError(f"point {x} outside 0..{m - 1}")
                if assignment[x] != -1:
                    raise ParameterError(f"point {x} appears in two blocks")
                assignment[x] = i
        if -1 in assignment:
            raise ParameterError(f"point {assignment.index(-1)} not covered")
        return cls(assignment)

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


class CondExpectation:
    """Conditional expectation onto a partition: block-wise weighted mean."""

    __slots__ = ("space", "partition", "_matrix")

    def __init__(self, space: FiniteSpace, partition: Partition):
        if partition.m != space.m:
            raise ParameterError("partition does not match the space")
        self.space = space
        self.partition = partition
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            m = self.space.m
            lam = np.array(self.space.weights)
            block = np.array(self.partition.block_of)
            block_mass = np.zeros(self.partition.n_blocks)
            np.add.at(block_mass, block, lam)
            mat = np.zeros((m, m))
            same = block[:, None] == block[None, :]
            mat[same] = (lam[None, :] / block_mass[block][:, None])[same]
            self._matrix = mat
        return self._matrix

    def apply(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (self.space.m,):
            raise ParameterError(f"function must have shape ({self.space.m},)")
        return self.matrix @ f


def cond_expect(space: FiniteSpace, partition: Partition) -> CondExpectation:
    return CondExpectation(space, partition)


def l2_distance(e1: CondExpectation, e2: CondExpectation) -> float:
    """Hilbert-Schmidt norm of E1 - E2 in the weight-weighted inner
    product: ||A||^2 = sum_xy lam_x A[x,y]^2 / lam_y."""
    if e1.space != e2.space:
        raise ParameterError("expectations live on different spaces")
    lam = np.array(e1.space.weights)
    a = e1.matrix - e2.matrix
    val = float(np.sum(lam[:, None] * a * a / lam[None, :]))
    return math.sqrt(max(val, 0.0))


class FiniteAction:
    """Group generators acting by permutations, with a step distribution
    over signed generator letters (+i is generator i, -i its inverse).
    The default step is uniform over all 2g signed letters."""

    __slots__ = ("perms", "inv_perms", "step")

    def __init__(self, perms, step=None):
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
        g = len(perms)
        if step is None:
            w = 1.0 / (2 * g)
            step = []
            for i in range(1, g + 1):
                step.append((i, w))
                step.append((-i, w))
        step = tuple((int(l), float(w)) for l, w in step)
        for l, w in step:
            if l == 0 or abs(l) > g:
                raise ParameterError(f"step letter {l} outside +-1..{g}")
            if w < 0:
                raise ParameterError("step weights must be nonnegative")
        if abs(math.fsum(w for _, w in step) - 1.0) > WEIGHT_TOL:
            raise ParameterError("step weights must sum to 1")
        self.step = step

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


def invariant_closure(action: FiniteAction, p: Partition) -> Partition:
    """Finest partition coarser than p whose blocks the generators
    permute; iterated meet with generator translates until stable."""
    if p.m != action.m:
        raise ParameterError("partition does not match the action")
    current = p
    while True:
        merged = current
        for g in range(1, action.n_gens + 1):
            merged = meet(merged, action.translate(merged, g))
        if merged == current:
            return current
        current = merged


def _block_weights(lam, p: Partition) -> list[float]:
    out = [0.0] * p.n_blocks
    for x, b in enumerate(p.block_of):
        out[b] += lam[x]
    return out


def _image_block(action: FiniteAction, p: Partition, letters_or_letter, b: int) -> int:
    first = p.block_of.index(b)
    if isinstance(letters_or_letter, int):
        y = action.act(letters_or_letter, first)
    else:
        y = action.act_word(letters_or_letter, first)
    return p.block_of[y]


def _check_lam(lam, m: int):
    lam = [float(v) for v in lam]
    if len(lam) != m:
        raise ParameterError(f"weight vector must have length {m}")
    if any(v <= 0 for v in lam):
        raise ParameterError("weights must be strictly positive")
    if abs(math.fsum(lam) - 1.0) > WEIGHT_TOL:
        raise ParameterError("weights must sum to 1")
    return lam


def entropy_functional(action: FiniteAction, lam, p: Partition) -> float:
    """sum_g mu(g) sum_b lam(b) (log lam(b) - log lam(g.b)), i.e.
    sum_g mu(g) KL(block weights | g-translated block weights).
    Requires p invariant; nonnegative (tiny negative rounding clamped)."""
    lam = _check_lam(lam, action.m)
    if p.m != action.m:
        raise ParameterError("partition does not match the action")
    if not action.is_invariant(p):
        raise ParameterError("partition is not invariant under the action")
    bw = _block_weights(lam, p)
    logs = [math.log(v) for v in bw]
    total_terms = []
    for letter, w in action.step:
        if w == 0.0:
            continue
        kl = math.fsum(
            bw[b] * (logs[b] - logs[_image_block(action, p, letter, b)])
            for b in range(p.n_blocks)
        )
        total_terms.append(w * kl)
    val = math.fsum(total_terms)
    if -1e-12 < val < 0.0:
        val = 0.0
    return val


def chain_rule_check(
    action: FiniteAction,
    lam,
    p: Partition,
    q: Partition,
    g,
    tol: float = 1e-12,
) -> bool:
    """Fiber-times-base factorization of weight ratios at q-granularity.

    For nested invariant partitions p <= q (q finer) and a group element
    g (a signed letter or a sequence of them), checks at every point x
    with q-block B_q and p-block B_p:

        lam_q(g.B_q)/lam_q(B_q)
          = [ (lam_q(g.B_q)/lam_p(g.B_p)) / (lam_q(B_q)/lam_p(B_p)) ]
            * [ lam_p(g.B_p)/lam_p(B_p) ]

    With q discrete this is the pointwise derivative factorization.
    """
    lam = _check_lam(lam, action.m)
    if not q.refines(p):
        raise ParameterError("partitions are not nested (q must refine p)")
    for part in (p, q):
        if not action.is_invariant(part):
            raise ParameterError("partition is not invariant under the action")
    letters = (g,) if isinstance(g, int) else tuple(g)
    wq = _block_weights(lam, q)
    wp = _block_weights(lam, p)
    img_q = [_image_block(action, q, letters, b) for b in range(q.n_blocks)]
    img_p = [_image_block(action, p, letters, b) for b in range(p.n_blocks)]
    for x in range(action.m):
        bq, bp = q.block_of[x], p.block_of[x]
        lhs = wq[img_q[bq]] / wq[bq]
        base = wp[img_p[bp]] / wp[bp]
        fiber = (wq[img_q[bq]] / wp[img_p[bp]]) / (wq[bq] / wp[bp])
        if abs(lhs - fiber * base) > tol * abs(lhs):
            return False
    return True


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
    weights=None,
) -> ChainReport:
    """Limit of a monotone chain of partitions with per-step diagnostics.

    Increasing chains refine step by step and converge to the join;
    decreasing chains coarsen and converge to the meet; on a finite
    space both stabilize at the last element.  Reports the L2 distance
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
    limit = reduce(join if direction == "increasing" else meet, chain)
    if limit != chain[-1]:
        raise ParameterError("chain fold does not stabilize at the last element")

    e_limit = cond_expect(space, limit)
    distances = tuple(
        l2_distance(cond_expect(space, part), e_limit) for part in chain
    )
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
        lam = space.weights if weights is None else weights
        functionals = tuple(
            entropy_functional(action, lam, part) for part in chain
        )
        functional_limit = entropy_functional(action, lam, limit)
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


def solve_stationary(action: FiniteAction) -> tuple[float, ...]:
    """Weights lam with sum_g mu(g) lam(g.x) = lam(x) for all x.
    Permutation steps are doubly stochastic, so the uniform vector is
    stationary; it is returned after one residual check."""
    m = action.m
    lam = np.full(m, 1.0 / m)
    avg = np.zeros(m)
    for l, w in action.step:
        avg += w * lam[list(action.perms[l - 1] if l > 0 else action.inv_perms[-l - 1])]
    if float(np.max(np.abs(avg - lam))) > 1e-13:
        raise ConvergenceError("uniform weights are not stationary for the step law")
    return tuple(float(v) for v in lam)


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
    "CondExpectation",
    "FiniteAction",
    "FiniteSpace",
    "Partition",
    "chain_rule_check",
    "cond_expect",
    "entropy_functional",
    "invariant_closure",
    "join",
    "l2_distance",
    "meet",
    "monotone_chain_limit",
    "random_weights",
    "solve_stationary",
]

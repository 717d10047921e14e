"""Homomorphisms from F_d onto computable quotients.

Each quotient family is a rep class that owns its exact algorithms
behind one protocol.  A rep knows its `rank` and `identity`, maps words
to elements (`apply_letter`, `project`; `PermRep` also `apply_col`),
names itself (`describe`), and answers five questions about the pushed
walk mu' (the image of the simple random walk) and the kernel N of
F_d -> Q, the only production path to those numbers:

  entropy_values(n)         exact H(mu'^k) for k = 1..n;
  kernel_sphere_counts(n, work_budget)
                            exact |N cap S(k)| for k = 0..r, where r <= n
                            is the largest radius the budget affords;
  gap_counts(n, work_budget)
                            the same counts to r <= 2n, and the coset bound
                            sum_q mu'^k(q) log c_k(q) for the k <= n that
                            the budget affords (k <= r on a PermRep);
  entropy_rate()            (lim H(mu'^k)/k, reason);
  critical_exponent()       (critical exponent of N, reason).

Every count comes from one recurrence, `_nonbacktracking`: with A the
adjacency of the Cayley graph of Q on the 2d letters, the reduced words
of length r by the element they reach are v_1 = A v_0, v_2 = A v_1 -
2d v_0, v_r = A v_{r-1} - (2d-1) v_{r-2} (Bartholdi, Enseign. Math. 1999).

  PermRep     a finite quotient Q given by the regular action of Q on its
              own elements; elements are integer indices, identity is 0.
              The table is one read-only (size, 2d) int64 array, the one
              its builder made.
              Produced by HLT Todd-Coxeter coset enumeration over a
              relator list (a flat Python loop, numpy for the final
              relabelling), or by closing explicit point permutations into
              the group they generate (numpy, a BFS level at a time).
              Entropy by a probability vector on one parity class; A
              gathers the columns.
  TrivialRep  the one-element PermRep.
  AbelianRep  the abelianization Z^d; elements are exponent-sum vectors.
              Entropy (rank 2) from two independent +-1 walks; kernel
              counts for every d by Grigorchuk's cogrowth formula, the
              recurrence on polynomials dotted with closed-walk counts;
              the coset bound (rank 2) on a grid of the L1 ball.

A PermRep's element numbering is part of the report contract: entropy
sums run over the elements in index order, so a different numbering of
the same group changes the last bits of the floats.  Both builders fix
it.  Coset enumeration follows one definition sequence (relators and
letters in the given order, the smaller coset surviving a coincidence),
and `tests/oracles.py::hlt_coset_table` keeps the original loop that
every table and error is checked against.  HLT cannot complete on an
infinite quotient, so a presentation proved infinite before it starts
raises the cap's error at once: by infinite abelianization, as a free
product of cyclic groups, or by a subgroup of small index with infinite
abelianization.  The scan of a relator u^k at a coset gamma u, where
gamma's own scan already closed the loop, is skipped; no definition
changes.  The closure numbers elements by first occurrence in
breadth-first (element, letter) order, checked against the
tuple-by-tuple `tests/oracles.py::tuple_closure_rows`.  It composes only
the products that do not lead back: an edge joins breadth-first levels
k-1, k or k+1, and x = y c with y one level below x gives x c^-1 = y, so
those entries come from the rows of level k-1.  Either numbering gives
every element but the identity a neighbour of smaller index: HLT
defines each coset from an earlier one, and the closure first reaches
each element from an earlier one.

When the Cayley graph of a PermRep is bipartite, every letter flips the
parity of the breadth-first level, so mu'^k and v_k live on the class of
elements whose level has k's parity, and the walks hold only that class;
the identity is even, so the kernel counts are 0 at odd radii.  A graph
with an odd cycle keeps one class of every element.  The classes have
one source, `_level_parity`, which reads them off the finished table
along the tree of smaller neighbours, and `_gathers` builds and keeps
the walk structure from them once per rep.  A class vector holds the
dense vector's positive entries in index order, so no float changes
(`tests/oracles.py::dense_perm_entropy`).

Every quotient here has critical exponent log(2d-1): a finite quotient's
kernel has finite index, and Z^d is amenable (Grigorchuk 1980; Cohen, J.
Funct. Anal. 48, 1982).  A pass charges its work budget up front: size*2d
per step on a PermRep; on Z^d, terms times the digits of (2d)^r at radius
r, with d(r//2+1) terms for the closed form and (r+1)^2 grid cells.
`max_cosets` (--max-cosets, 1 to `QUOTIENT_SIZE_LIMIT`) caps the coset
table and the permutation closure, `QUOTIENT_SIZE_LIMIT` a PermRep's
vectors.  Column 2(i-1) of the flat coset table is generator i, column
2(i-1)+1 its inverse (`words.letter_key`), so the column of an inverse
letter is col ^ 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, count, cycle, groupby, permutations, product, takewhile
from operator import eq

import numpy as np

from .errors import CosetLimitError, ParameterError, RankMismatchError, ResourceGuardError
from .words import Word, cyclically_reduce, letter_key, sphere_size

DEFAULT_MAX_COSETS = 10**6
QUOTIENT_SIZE_LIMIT = 5 * 10**6
_INT64_MAX = 2**63 - 1


def _nonbacktracking(step, start, n: int, degree: int):
    """Yield v_0 = start, ..., v_n for the adjacency `step` of a
    `degree`-regular graph.  int64 turns into Python ints before A v_{r-1}
    can pass 2^63 - 1: its entries, v_r and the sums of v_j over j <= r of
    r's parity are all at most degree * |S(r-1)|."""
    prev, cur = np.zeros_like(start), start
    yield cur
    for r in range(1, n + 1):
        if cur.dtype != object and degree * sphere_size(degree // 2, r - 1) > _INT64_MAX:
            prev, cur = prev.astype(object), cur.astype(object)
        prev, cur = cur, _plus(step(cur), -(degree - (r > 2)) * prev)
        yield cur


def _plus(big: np.ndarray, small: np.ndarray) -> np.ndarray:
    """big + small, with small zero-padded around the centre of big."""
    out = big.copy()
    out[tuple(slice((b - a) // 2, (b + a) // 2) for a, b in zip(small.shape, big.shape))] += small
    return out


def _afforded(n: int, work_budget: int, d: int, terms) -> int:
    """The largest r <= n affordable at terms(k) * digits((2d)^k) per step k."""
    spent = accumulate(terms(k) * (1 + int(k * math.log10(2 * d))) for k in range(1, n + 1))
    return sum(1 for _ in takewhile(lambda w: w <= work_budget, spent))


def _gap_counts(rep, n: int, work_budget: int) -> tuple[list[int], list[float]]:
    """`gap_counts` of every rep: kernel counts to radius 2n, then bounds for
    r <= n from `_vectors` v_r and `_laws` mu'^r, with c_r the sum of v_j
    over j <= r of r's parity."""
    spheres = rep.kernel_sphere_counts(2 * n, work_budget)
    bounds, reach, laws = [], [None, None], rep._laws()
    for r, v in enumerate(rep._vectors(min(n, len(spheres) - 1), work_budget)):
        c = reach[r % 2] = v if r < 2 else _plus(v, reach[r % 2])
        if r:
            law = next(laws).ravel()
            live = np.flatnonzero(law)
            logs = np.fromiter(map(math.log, c.ravel()[live].tolist()), float, len(live))
            bounds.append(math.fsum((law[live] * logs).tolist()))
    return spheres, bounds


def _level_parity(table: np.ndarray) -> np.ndarray:
    """True at the elements of odd breadth-first level of the table if
    every edge joins levels of opposite parity and the two classes are
    equal in size, else all False.  Every element but the identity steps
    to its smallest neighbour, which both builders number before it, so
    the steps form a tree to the identity, and on a bipartite graph an
    element's level parity is that of its tree path.  Pointer doubling
    sums the paths in log2(depth) passes over the elements, so a long
    diameter costs no pass per level.  A table numbered otherwise keeps
    one class."""
    size = len(table)
    hop = reduce(np.minimum, table.T)  # column by column: min(axis=1) is 5x slower
    hop[0] = 0
    odd = np.arange(size) > 0  # the parity of the path from x to hop[x]
    if (hop[1:] < np.arange(1, size)).all():
        while hop.any():
            odd ^= odd[hop]
            hop = hop[hop]
        if 2 * odd.sum() == size and (odd[table] != odd[:, None]).all():
            return odd
    return np.zeros(size, dtype=bool)


class PermRep:
    """Regular action of a finite quotient of F_d on its elements.  Its
    table is one read-only (size, 2d) int64 array: row x holds x * l for
    each letter l, column `letter_key(l)`."""

    __slots__ = ("rank", "size", "_table", "point_images", "_walk")

    def __init__(self, rank: int, rows, point_images=None, *, _owned: bool = False):
        """The rep copies `rows` once into its table, unless `_owned`: a
        builder hands over a C-ordered int64 array that nothing else holds."""
        self.rank = rank
        self.size = len(rows)
        try:
            table = (np.asarray if _owned else np.array)(rows, dtype=np.int64, order="C")
            table = table.reshape(self.size, 2 * rank)
        except ValueError:
            raise ParameterError("malformed coset table row") from None
        table.flags.writeable = False
        self._table = table
        self.point_images = point_images
        self._walk = None  # the gathers, built by `_gathers` on first use

    @property
    def identity(self) -> int:
        return 0

    def _array(self) -> np.ndarray:
        """The table, a read-only (size, 2d) int64 array."""
        return self._table

    def apply_col(self, q: int, col: int) -> int:
        return self._table.item(q, col)

    def apply_letter(self, q: int, letter: int) -> int:
        return self._table.item(q, letter_key(letter))

    def project(self, w: Word) -> int:
        if w.rank != self.rank:
            raise RankMismatchError(f"rank mismatch: {w.rank} vs {self.rank}")
        q = 0
        for l in w.letters:
            q = self.apply_letter(q, l)
        return q

    def describe(self) -> str:
        return f"perm-quotient of size {self.size}"

    def _gathers(self) -> list[list[np.ndarray]]:
        """The walk structure, built on first use from the parity classes
        of `_level_parity` and kept: one gather list per class c (a single
        class when the graph is not bipartite), holding for every letter l
        the position of x * l^-1 in the class before c, for each x of c in
        index order."""
        if self._walk is None:
            if self.size > QUOTIENT_SIZE_LIMIT:
                raise ResourceGuardError(f"quotient size {self.size} exceeds {QUOTIENT_SIZE_LIMIT}")
            table = self._array()
            odd = _level_parity(table)
            classes = (~odd, odd) if odd.any() else (np.ones(self.size, dtype=bool),)
            position = np.empty(self.size, dtype=np.int64)  # an element's place in its class
            for mask in classes:
                position[mask] = np.arange(np.count_nonzero(mask))
            cols = range(2 * self.rank)
            self._walk = [[position[table[mask, c ^ 1]] for c in cols] for mask in classes]
        return self._walk

    def _laws(self):
        """mu'^k, k = 1, 2, ..., as a dense probability vector over the
        parity class of k (every element when there is one class); mass at
        x comes from x * l^-1 for each letter l, by the `_gathers`."""
        gathers = self._gathers()
        vec = np.eye(1, len(gathers[0][0]))[0]
        for step in cycle(gathers[1:] + gathers[:1]):
            vec = sum(vec[g] for g in step) / len(step)
            yield vec

    def _vectors(self, n: int, work_budget: int):
        """v_0..v_R over the parity class of r, R <= n the largest radius
        whose steps, at size*2d each, fit the budget; (Av)(x) = sum_l v(x l^-1),
        by the `_gathers`."""
        nc, gathers = 2 * self.rank, self._gathers()
        steps = cycle(gathers[1:] + gathers[:1])
        start = np.eye(1, len(gathers[0][0]), dtype=np.int64)[0]
        return _nonbacktracking(lambda v: sum(v[g] for g in next(steps)), start,
                                min(n, work_budget // (self.size * nc)), nc)

    def entropy_values(self, n: int) -> tuple[float, ...]:
        """H(mu'^k) for k = 1..n from the pushed law vectors."""
        if n < 0:
            raise ParameterError("steps must be >= 0")
        values = []
        for _, vec in zip(range(n), self._laws()):
            nz = vec[vec > 0.0]
            # 0.0 - s, not -s: a zero entropy must come out as 0.0, not -0.0
            values.append(0.0 - float((nz * np.log(nz)).sum()))
        return tuple(values)

    def kernel_sphere_counts(self, n: int, work_budget: int) -> list[int]:
        """|N cap S(k)| for k = 0..r <= n: the identity entries of `_vectors`."""
        if n < 0:
            raise ParameterError("radius must be >= 0")
        period = len(self._gathers())  # two classes: the identity is even
        return [int(v[0]) if r % period == 0 else 0
                for r, v in enumerate(self._vectors(n, work_budget))]

    gap_counts = _gap_counts

    def entropy_rate(self) -> tuple[float, str]:
        return 0.0, f"finite quotient: H(mu'^k) <= log {self.size}, so H/k -> 0"

    def critical_exponent(self) -> tuple[float, str]:
        reason = "finite quotient: the kernel has finite index, so delta = log(2d-1)"
        return math.log(2 * self.rank - 1), reason

    def __repr__(self):
        return f"PermRep(rank={self.rank}, size={self.size})"


class TrivialRep(PermRep):
    """The one-element quotient; the kernel is all of F_d."""

    __slots__ = ()

    def __init__(self, rank: int):
        super().__init__(rank, [[0] * (2 * rank)])

    def describe(self) -> str:
        return "trivial quotient"


@dataclass(frozen=True, slots=True)
class AbelianRep:
    """Abelianization F_d -> Z^d; elements are integer vectors."""

    rank: int

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def apply_letter(self, q, letter: int):
        i = abs(letter) - 1
        return q[:i] + (q[i] + (1 if letter > 0 else -1),) + q[i + 1 :]

    def project(self, w: Word):
        if w.rank != self.rank:
            raise RankMismatchError(f"rank mismatch: {w.rank} vs {self.rank}")
        v = [0] * self.rank
        for l in w.letters:
            v[abs(l) - 1] += 1 if l > 0 else -1
        return tuple(v)

    def describe(self) -> str:
        return f"abelianization Z^{self.rank}"

    def entropy_values(self, n: int) -> tuple[float, ...]:
        """H(mu'^k) for k = 1..n on Z^2.  In the coordinates (x+y, x-y)
        each step moves both by +-1 independently, so mu'^k is the product
        of two copies of the k-step +-1 walk, a shifted Bin(k, 1/2), and
        H(mu'^k) = 2 H(Bin(k, 1/2))."""
        if n < 0:
            raise ParameterError("steps must be >= 0")
        if self.rank != 2:
            raise ParameterError("abelian entropy is implemented for rank 2 only")
        p = np.ones(1)
        values = []
        for _ in range(n):
            q = np.zeros(len(p) + 1)
            q[:-1] = p
            q[1:] += p
            p = 0.5 * q
            nz = p[p > 0.0]
            values.append(-2.0 * float((nz * np.log(nz)).sum()))
        return tuple(values)

    def kernel_sphere_counts(self, n: int, work_budget: int) -> list[int]:
        """|N cap S(k)| for k = 0..r <= n, by Grigorchuk's cogrowth formula:
        the recurrence runs on the coefficients of the polynomials p_k with
        v_k = p_k(A) v_0, where A is a shift, and the count at the identity
        is sum_m [x^m]p_k R_m, R_m the closed walks of length m on Z^d."""
        if n < 0:
            raise ParameterError("radius must be >= 0")
        d = self.rank
        r = _afforded(n, work_budget, d, lambda k: d * (k // 2 + 1))
        # closed walks of length 2k: C(2k, k) S_d(k), S_e(k) = sum_j C(k, j)^2 S_{e-1}(j)
        s = [1] * (r // 2 + 1)
        for _ in range(d - 1):
            s = [sum(math.comb(k, j) ** 2 * s[j] for j in range(k + 1)) for k in range(len(s))]
        returns = np.zeros(r + 1, dtype=object)
        returns[::2] = [math.comb(2 * k, k) * s[k] for k in range(len(s))]
        start = np.eye(1, r + 1, dtype=object)[0]
        polys = _nonbacktracking(lambda p: np.append(0, p[:-1]), start, r, 2 * d)
        return [int(p.dot(returns)) for p in polys]

    def _vectors(self, n: int, work_budget: int):
        """v_0..v_R on Z^2, R <= n as the budget affords.  A letter moves
        (x+y, x-y) by (+-1, +-1), so v_k lives on the (k+1)^2 points
        (2i-k, 2j-k), and A sums the 2x2 blocks of v_{k-1} padded by 0."""
        if self.rank != 2:
            raise ParameterError("abelian entropy is implemented for rank 2 only")

        def block_sums(v):
            out = np.zeros((len(v) + 1, len(v) + 1), dtype=v.dtype)
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                out[i : i + len(v), j : j + len(v)] += v
            return out

        r = _afforded(n, work_budget, 2, lambda k: (k + 1) ** 2)
        return _nonbacktracking(block_sums, np.ones((1, 1), dtype=np.int64), r, 4)

    def _laws(self):
        """mu'^k, k = 1, 2, ..., on the grid of `_vectors`: C(k, i) C(k, j) / 4^k
        at (i, j), rounded once from exact ints."""
        for k in count(1):
            row = np.array([math.comb(k, i) for i in range(k + 1)], dtype=object)
            yield (np.multiply.outer(row, row) / 4**k).astype(float)

    gap_counts = _gap_counts

    def entropy_rate(self) -> tuple[float, str]:
        return 0.0, "abelian quotient: H(mu'^k) grows logarithmically, so H/k -> 0"

    def critical_exponent(self) -> tuple[float, str]:
        return math.log(2 * self.rank - 1), "amenable-endpoint prediction at spectral radius 1"


QuotientRep = PermRep | AbelianRep


def _validate_relators(d: int, relators) -> list[list[int]]:
    rels = []
    for r in relators:
        if not isinstance(r, Word):
            raise ParameterError(f"relator {r!r} is not a Word")
        if r.rank != d:
            raise RankMismatchError(f"relator rank {r.rank} differs from {d}")
        c = cyclically_reduce(r)
        if len(c) == 0:
            raise ParameterError("empty relator")
        rels.append([letter_key(l) for l in c.letters])
    return rels


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix given by its rows, by elimination
    that keeps every entry an integer."""
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((row for row in rows if row[j]), None)
        if pivot:
            rows = [[pivot[j] * x - row[j] * y for x, y in zip(row, pivot)] if row[j] else row
                    for row in rows if row is not pivot]
            rank += 1
    return rank


def _check_abelianization(d: int, rels: list[list[int]]) -> None:
    """Raise CosetLimitError at once if the relators' exponent sums have
    rank < d over Q: the quotient then maps onto Z."""
    rank = _rank([[sum(1 - 2 * (c & 1) for c in w if c >> 1 == i) for i in range(d)]
                  for w in rels])
    if rank < d:
        raise CosetLimitError(f"the relators' exponent sums have rank {rank} < {d}, "
                              "so the quotient maps onto Z and is infinite")


def _free_product_of_cyclics(d: int, rels: list[list[int]]) -> bool:
    """True when every relator is a power of one generator and at least two
    generators have exponent gcd other than 1: the quotient is then a free
    product of cyclic groups with two nontrivial factors, so infinite."""
    gcds = [0] * d
    for w in rels:
        if any(c >> 1 != w[0] >> 1 for c in w):
            return False
        gcds[w[0] >> 1] = math.gcd(gcds[w[0] >> 1], len(w))
    return sum(g != 1 for g in gcds) >= 2


# (n!)^d permutation tuples times the relator letters, summed over the
# degrees n tried: degree 4 at rank 2 for up to 32 letters, a few ms
_LOW_INDEX_WORK = 20_000


def _cycle_powers(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """perm^0, perm^1, ..., perm^(k-1), where k is the order of perm."""
    out = [tuple(range(len(perm)))]
    while (nxt := tuple(perm[x] for x in out[-1])) != out[0]:
        out.append(nxt)
    return out


def _low_index_degree(d: int, rels: list[list[int]]) -> int:
    """The least n in 2..N for which the quotient acts transitively on n
    points with a point stabilizer H of infinite abelianization, or 0.

    H has index n and is infinite, so the quotient is infinite.  By
    Reidemeister-Schreier (Sims, Computation with Finitely Presented
    Groups, 1994), the abelianization of H has free rank (d-1)n+1 less the
    rank of the relator loops: the exponent sums over the dn edges (point,
    generator) of the action graph of every relator read from every point.
    At n = 1 this is `_check_abelianization`.  Conjugate tuples have
    conjugate stabilizers, so the first generator's permutation is one per
    cycle type (told by the fixed points of its powers), the others' all
    n!, each among those that satisfy the relators in that generator
    alone.  N is the largest degree whose (n!)^d tuples times the relator
    letters, summed from n = 2, fit in `_LOW_INDEX_WORK`: it depends on d
    and the relator length only.
    """
    length = sum(map(len, rels))
    spent = accumulate(math.factorial(n) ** d * length for n in count(2))
    top = 1 + sum(1 for _ in takewhile(lambda w: w <= _LOW_INDEX_WORK, spent))
    # a relator as runs (generator, signed exponent), and the generators it names
    runs = [[(c >> 1, (1 - 2 * (c & 1)) * len(list(g))) for c, g in groupby(w)] for w in rels]
    names = [{g for g, _ in r} for r in runs]
    mixed = [r for r, s in zip(runs, names) if len(s) > 1]

    def fixes(powers, r, points) -> bool:
        """Whether relator r acts trivially; powers[g] is _cycle_powers of
        generator g's permutation (a dict for a relator in g alone)."""
        for x in points:
            y = x
            for g, e in r:
                pw = powers[g]
                y = pw[e % len(pw)][y]
            if y != x:
                return False
        return True

    for n in range(2, top + 1):
        points = range(n)
        perms = list(map(_cycle_powers, permutations(points)))
        types = {tuple(sum(map(eq, p, points)) for p in pw): pw for pw in perms}
        cands = [[pw for pw in (perms if g else types.values())
                  if all(fixes({g: pw}, r, points) for r, s in zip(runs, names) if s == {g})]
                 for g in range(d)]
        for powers in product(*cands):
            if not all(fixes(powers, r, points) for r in mixed):
                continue
            gens = [pw[1 % len(pw)] for pw in powers]
            orbit = {0}
            for _ in range(n - 1):
                orbit |= {gen[x] for gen in gens for x in orbit}
            if len(orbit) < n:
                continue
            loops = []
            for w in rels:
                for start in points:
                    row, x = [0] * (d * n), start
                    for c in w:
                        g = c >> 1
                        if c & 1:  # back along the edge (x g^-1, g)
                            x = powers[g][-1][x]
                            row[g * n + x] -= 1
                        else:
                            row[g * n + x] += 1
                            x = gens[g][x]
                    loops.append(row)
            if _rank(loops) < (d - 1) * n + 1:
                return n
    return 0


def _coset_limit_message(max_cosets: int) -> str:
    return f"coset limit exceeded (max_cosets={max_cosets}); raise --max-cosets"


def _check_cap(name: str, cap: int) -> None:
    """A builder's cap must lie in 1..QUOTIENT_SIZE_LIMIT: no verb can use a
    larger PermRep, so a larger cap would only let a guard trip later."""
    if cap < 1:
        raise ParameterError(f"{name} must be >= 1 (set by --max-cosets)")
    if cap > QUOTIENT_SIZE_LIMIT:
        raise ParameterError(f"{name} must be <= {QUOTIENT_SIZE_LIMIT}, the largest "
                             "quotient any verb can use (set by --max-cosets)")


def _root_length(w: list[int]) -> int:
    """The length of the shortest u with w = u^k."""
    return next(m for m in range(1, len(w) + 1) if len(w) % m == 0 and w == w[:m] * (len(w) // m))


def coset_enumerate(d: int, relators, max_cosets: int = DEFAULT_MAX_COSETS) -> PermRep:
    """Todd-Coxeter enumeration of the quotient presented by the relators.

    HLT strategy (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 5.1): scan every relator, in the given order, at every live
    coset alpha in creation order, defining a new coset at the first
    undefined entry until the scan closes; then fill the rest of alpha's
    row column by column.  A closing scan's deduction is recorded in both
    table directions at once; coincidences are processed to completion as
    they appear, with the smaller coset number surviving.  The scan of a
    relator w = u^k (k > 1) at alpha is skipped when alpha u^-1 is defined
    and below alpha: that coset's own scan of w closed the loop through
    alpha, and coincidence processing never drops an entry of a live
    coset, so the skipped scan would neither define, deduce nor merge.
    The check costs |u| lookups where the scan costs k|u|.  The cap counts
    rows ever defined; exceeding it raises CosetLimitError, the normal
    outcome for an infinite quotient.

    After the rank, cap, relator and empty-list checks,
    `_check_abelianization` refuses a quotient that maps onto Z, with its
    own message (the oracle makes the same check).  Then
    `_free_product_of_cyclics` (two nontrivial cyclic free factors) or
    `_low_index_degree` (a subgroup of index 2..N with infinite
    abelianization) may prove the quotient infinite; HLT could then only
    stop at the cap, so the cap's error is raised before it starts.  An
    infinite quotient that neither proves, such as the (2, 3, 7) triangle
    group, still runs to the cap.

    This definition sequence is fixed, because the table's numbering is
    part of the report contract (see the module docstring).  The loop is
    `tests/oracles.py::hlt_coset_table` with the scans and definitions
    inlined; the tests check both give the same table and the same errors.
    """
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    _check_cap("max_cosets", max_cosets)
    rels = _validate_relators(d, relators)
    if not rels:  # the quotient is F_d itself, which no cap can hold
        raise CosetLimitError(_coset_limit_message(max_cosets))
    _check_abelianization(d, rels)
    if _free_product_of_cyclics(d, rels) or _low_index_degree(d, rels):
        raise CosetLimitError(_coset_limit_message(max_cosets))
    ncols = 2 * d

    # one list per column, so a coset costs a pointer per column
    table: list[list[int | None]] = [[None] for _ in range(ncols)]
    p = [0]  # union-find; p[i] <= i, minimum label survives

    def rep(k: int) -> int:
        r = k
        while p[r] != r:
            r = p[r]
        while p[k] != r:
            p[k], k = r, p[k]
        return r

    def coincidence(a: int, b: int) -> None:
        """Merge a and b and every pair their merge forces, the smaller
        coset surviving; dead cosets are processed in the order they die."""
        if p[a] != a:
            a = rep(a)
        if p[b] != b:
            b = rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        p[b] = a
        queue = [b]  # grows while it is read
        for dead in queue:
            for col in range(ncols):
                delta = table[col][dead]
                if delta is None:
                    continue
                column, mirror = table[col], table[col ^ 1]
                # clear the mirror edge if it still points at the dead coset
                if mirror[delta] == dead:
                    mirror[delta] = None
                mu = p[dead]
                if p[mu] != mu:
                    mu = rep(mu)
                nu = delta if p[delta] == delta else rep(delta)
                u = column[mu]
                if u is not None:
                    v = nu
                else:
                    u = mirror[nu]
                    if u is None:
                        column[mu] = nu
                        mirror[nu] = mu
                        continue
                    v = mu
                # merge u and v
                if p[u] != u:
                    u = rep(u)
                if p[v] != v:
                    v = rep(v)
                if u != v:
                    if u > v:
                        u, v = v, u
                    p[v] = u
                    queue.append(v)

    # each relator w as the columns w[i] and the inverse columns w[i] ^ 1,
    # which the backward half of a scan reads from the end; for w = u^k
    # with k > 1, also the columns of u^-1
    scans = [([table[c] for c in w], [table[c ^ 1] for c in w], len(w) - 1,
              [table[c ^ 1] for c in reversed(w[:root])] if root < len(w) else ())
             for w, root in zip(rels, map(_root_length, rels))]
    fills = [(table[c], table[c ^ 1]) for c in range(ncols)]
    n = 1  # rows ever defined, len(p)
    alpha = 0
    while alpha < n:
        if p[alpha] == alpha:  # alpha is live: p[i] <= i, so rep(alpha) == alpha
            for fwd, bwd, last, u_inverse in scans:
                if u_inverse:
                    # alpha = gamma u for a gamma < alpha, live because live
                    # rows point at live cosets: gamma's scan closed the loop
                    # gamma u^k = gamma through alpha, and coincidences keep
                    # every entry of a live coset, so the scan at alpha
                    # would neither define, deduce nor merge
                    gamma = alpha
                    for column in u_inverse:
                        gamma = column[gamma]
                        if gamma is None:
                            break
                    else:
                        if gamma < alpha:
                            continue
                f, i, b, j = alpha, 0, alpha, last
                while True:
                    while i <= j:
                        x = fwd[i][f]
                        if x is None:
                            break
                        f, i = x, i + 1
                    if i > j:
                        if f != b:
                            coincidence(f, b)
                        break
                    while j >= i:
                        x = bwd[j][b]
                        if x is None:
                            break
                        b, j = x, j - 1
                    if j < i:
                        coincidence(f, b)
                        break
                    if j == i:
                        # deduction closing the scan, recorded both ways
                        fwd[i][f] = b
                        bwd[i][b] = f
                        break
                    # define coset n = f * w[i]
                    if n >= max_cosets:
                        raise CosetLimitError(_coset_limit_message(max_cosets))
                    for column in table:
                        column.append(None)
                    p.append(n)
                    fwd[i][f] = n
                    bwd[i][n] = f
                    n += 1
                if p[alpha] != alpha:
                    break
            else:
                for column, mirror in fills:
                    if column[alpha] is None:
                        if n >= max_cosets:
                            raise CosetLimitError(_coset_limit_message(max_cosets))
                        for col in table:
                            col.append(None)
                        p.append(n)
                        column[alpha] = n
                        mirror[n] = alpha
                        n += 1
        alpha += 1

    # relabel the live cosets 0, 1, ... in order.  Entries are written in
    # mirrored pairs into empty slots only, and a coincidence clears the
    # mirror of every entry of a dead coset before it returns (Holt, Eick
    # and O'Brien, 5.1), so live rows point at live cosets only
    live = np.flatnonzero(np.array(p) == np.arange(n))
    images = [[column[c] for c in live.tolist()] for column in table]
    if any(None in image for image in images):
        raise ParameterError("incomplete coset table after enumeration")
    index = np.full(n, -1, dtype=np.int64)
    index[live] = np.arange(len(live))
    rows = np.empty((len(live), ncols), dtype=np.int64)
    for col, image in enumerate(images):
        rows[:, col] = index[image]
    out = PermRep(d, rows, _owned=True)
    _check_relators(out._array(), rels)
    return out


def _check_relators(table: np.ndarray, rels: list[list[int]]) -> None:
    """Every relator (a list of columns) must act trivially on every row.
    A relator u^k acts as u's permutation of the rows raised to the k-th
    power by squaring: |u| + 2 log2(k) gathers, not k|u|."""
    start = np.arange(len(table))
    for w in rels:
        root = _root_length(w)
        u = start
        for col in w[:root]:
            u = table[u, col]
        t, k = start, len(w) // root
        while k:
            if k & 1:
                t = u[t]
            k >>= 1
            if k:
                u = u[u]
        if not np.array_equal(t, start):
            raise ParameterError("relator fails to close on the final table")


_CHUNK = 1 << 15  # frontier rows composed at once by the closure


def _row_keys(rows: np.ndarray, bits: int) -> np.ndarray:
    """One sortable key per row of point images, equal keys for equal rows.
    When a row fits 64 bits at `bits` per point, the key is a uint64 packed
    one column at a time, so no (rows x points) uint64 temporary is made;
    wider rows keep their bytes as one void scalar."""
    if rows.shape[1] * bits <= 64:
        keys = np.zeros(len(rows), dtype=np.uint64)
        for column in rows.T:
            keys <<= bits
            keys |= column
        return keys
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _find(keys: np.ndarray, ids: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The id of each wanted key among the sorted `keys`, -1 where it is absent."""
    if not len(keys):
        return np.full(len(wanted), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, ids[at], -1)


def from_point_permutations(
    d: int, images: dict[int, tuple[int, ...]], max_elements: int = DEFAULT_MAX_COSETS
) -> PermRep:
    """PermRep for the quotient F_d -> <given point permutations>.

    `images` maps generator index (1-based) to a permutation of
    {0..m-1}; missing generators act as the identity.  The returned rep
    is the regular action of the generated group, so the kernel is the
    kernel of the point homomorphism even when the point action is not
    regular.  The closure is a breadth-first search, a level at a time.
    An edge joins levels k-1, k or k+1 only, and x = y c with y in level
    k-1 gives x c^-1 = y, so the finished rows of level k-1 fill every
    entry of level k that leads back.  Only the entries left are composed,
    `_CHUNK` frontier rows at a time, and looked up among level k's keys
    and those of the elements the level's earlier chunks created.  New
    elements are numbered by first occurrence in (element, letter) order,
    so the numbering depends neither on the chunks nor on how the keys
    that tell elements apart sort.  An element is keyed by one uint64, its
    point images packed at ceil(log2 m) bits each, when m ceil(log2 m) <=
    64 (m <= 16 points), and by the bytes of its images otherwise.  The
    chunk whose new elements pass `max_elements` raises before the rest of
    its level is built.
    """
    if d < 1:
        raise ParameterError("rank must be >= 1")
    _check_cap("max_elements", max_elements)
    ms = {len(perm) for perm in images.values()}
    if len(ms) > 1:
        raise ParameterError("point permutations act on different point counts")
    m = ms.pop() if ms else 1
    gens = [tuple(images.get(gen, range(m))) for gen in range(1, d + 1)]
    for gen, perm in enumerate(gens, 1):
        if sorted(perm) != list(range(m)):
            raise ParameterError(f"generator {gen} image is not a permutation")
    # row letter_key(l) of `perms` maps each point to its image under l;
    # with no points, the group acts on one fixed point instead
    width = max(m, 1)
    bits = (width - 1).bit_length()
    perms = np.zeros((2 * d, width), dtype=np.min_scalar_type(width - 1))
    perms[0::2, :m] = np.array(gens).reshape(d, m)
    perms[1::2] = np.argsort(perms[0::2], axis=1)
    nc = 2 * d

    # level k: its elements' point images, their keys sorted with their
    # ids, and its first id `low`; `done` holds the rows of level k-1
    frontier = np.arange(width, dtype=perms.dtype)[None, :]
    keys, ids = _row_keys(frontier, bits), np.zeros(1, dtype=np.int64)
    low, done = 0, np.empty((0, nc), dtype=np.int64)
    blocks = []
    while len(frontier):
        top = low + len(frontier) - 1  # the newest id
        rows = np.full((len(frontier), nc), -1, dtype=np.int64)
        flat_rows, flat_done = rows.reshape(-1), done.reshape(-1)
        # the entries that lead back to level k-1, from its rows
        e = np.flatnonzero(flat_done >= low)
        flat_rows[(flat_done[e] - low) * nc + (e % nc ^ 1)] = e // nc + (low - len(done))
        empty = rows < 0
        born_keys, born_ids, born = keys[:0], ids[:0], []
        for start in range(0, len(rows), _CHUNK):
            # the products x c of the empty entries, a letter at a time, and
            # their flat entries x nc + c, which sort in (element, letter) order
            xs = [start + np.flatnonzero(empty[start : start + _CHUNK, c]) for c in range(nc)]
            prods = np.concatenate([np.take(perms[c], np.take(frontier, x, axis=0))
                                    for c, x in enumerate(xs)])
            entry = np.concatenate([x * nc + c for c, x in enumerate(xs)])
            wanted = _row_keys(prods, bits)
            order = np.argsort(wanted)  # searches in key order run faster
            wanted = wanted[order]
            found = _find(keys, ids, wanted)
            miss = np.flatnonzero(found < 0)
            found[miss] = _find(born_keys, born_ids, wanted[miss])  # born in earlier chunks
            # the new products, grouped by key: the groups take the next ids
            # in the order of their first entries
            new = miss[found[miss] < 0]
            head = np.ones(len(new), dtype=bool)
            head[1:] = wanted[new[1:]] != wanted[new[:-1]]
            starts = np.flatnonzero(head)
            first = np.minimum.reduceat(entry[order[new]], starts)
            by_first = np.argsort(first)
            new_ids = np.empty(len(first), dtype=np.int64)
            new_ids[by_first] = np.arange(top + 1, top + 1 + len(first))
            found[new] = new_ids[np.cumsum(head) - 1]
            top += len(first)
            if top >= max_elements:
                raise CosetLimitError(
                    f"generated permutation group exceeds {max_elements} elements; "
                    "raise --max-cosets"
                )
            flat_rows[entry[order]] = found
            born.append(prods[order[new[starts[by_first]]]])  # equal keys, equal images
            merged = np.concatenate([born_keys, wanted[new[starts]]])
            by_key = np.argsort(merged, kind="stable")
            born_keys, born_ids = merged[by_key], np.concatenate([born_ids, new_ids])[by_key]
        blocks.append(rows)
        low, done = low + len(frontier), rows
        keys, ids, frontier = born_keys, born_ids, np.concatenate(born)
    return PermRep(d, np.concatenate(blocks), point_images=tuple(gens), _owned=True)


__all__ = [
    "AbelianRep",
    "DEFAULT_MAX_COSETS",
    "PermRep",
    "QuotientRep",
    "TrivialRep",
    "coset_enumerate",
    "from_point_permutations",
]

"""Independent computations that the closed forms in gwel replace.

The library states the critical exponent of a quotient's kernel as
log(2d-1), the Z^2 entropy as 2 H(Bin(k, 1/2)), sums its boundary
integrals over |g| + 1 prefix classes, and takes the Hilbert-Schmidt
distance between two conditional expectations from block weights; the
tests check all four against these brute computations (the last one
against dense conditional-expectation matrices), so they never compare
a formula with itself.  It enumerates cosets with a flattened HLT
loop, closes permutation groups with sorted integer keys, and counts
kernel spheres by one non-backtracking recurrence (on Z^d, through the
closed-walk counts); the HLT loop as first written with nested helpers,
the tuple-by-tuple closure, the Python-int transfer loop, the (vector,
last letter) dict DP on Z^d and the depth-first walk over every reduced
word here must give the same tables, errors and counts.
It steps a finite quotient's walk on one parity class of its Cayley
graph and the Z^2 binomial masses by one shifted add; the dense vector
over every element, the append-and-insert step and the 2-colouring
from a queue here must give the same floats and the same classes.
It runs the free-group radial entropy chain on arrays and cuts the
negligible tail of each sum; the scalar loop here must give the same
floats bit for bit.  It writes the indent-2 JSON layout itself a table
column at a time, hashes the Philox keys of all drift trials at once and
reads each walk's length from byte tables of 8 steps; the standard
library's pure-Python indent-2 encoder and the per-trial SeedSequence,
Generator and step loop here must give the same bytes, floats and
lengths.  It takes gap-check's coset bound from the quotient rep's
kernel sphere pass; the word convolution pushed through the projection
here must give the same bound.  It takes the cocycle's three exponents
from index scans of letter tuples, the density integral as one integer
sum over the prefix classes and the entropy integral from its closed
form; the reduced products of `multiply_rn_exponent` and
`multiply_cocycle_exponents`, the Radon-Nikodym exponent 2 lcp(g, w) -
|g| of `rn_exponent`, the one Fraction per class of `prefix_classes`,
the Word representatives of `word_prefix_classes`, `word_rn_integral`
and `word_kl_coefficient`, and the sphere sums must give the same
values and the same errors.
It keeps the lengths of the proximality walks as an array, from which
`ProximalityReport.rows` builds ProximalityRow tuples (library API: the
CLI writes the lengths as codes into per-length masses); the tuple of
rows built here one walk and one letter at a time, with each mass exact
from its own Fraction, must give the same rows.
It tries the first generator's permutation of a low-index action from
one per cycle type; the search here over every tuple must find the same
least degree.
The last helpers are small checks that only the tests use: kernel
membership, generator cycle types, the uniform stationary law of a
finite action and the Radon-Nikodym bound M(g).
Reference computations that no verb needs: the identity, reduced
products and spheres of F_d (each sphere's words built once per (d, n),
and an element's product lengths against one once per element);
convolution of distributions on words and its powers (the recent ones
cached), point masses, the mass mu(g) and Shannon entropy; the sphere
counts of F_d, counted word by word; the cylinder mass nu(C_w) and the
derivative (2d-1)^e on C_w, e from a reduced product; the discrete
partition, a partition from its blocks, the invariant closure of a
partition and the fiber-times-base chain rule of weight ratios.  The
writer lays out a report's series table a column at a time;
`report_to_object` cleans the report recursively into the plain
object, the table's rows as lists with the codes looked up, whose
standard indent-2 JSON must give the same bytes, and `csv_cell` writes
the CSV one cell at a time.
The library reads cycle notation as a stream of tokens (digit runs and
single characters); the scan here that walks the text a character at a
time, skipping spaces by hand, must give the same cycles or the same
error at the same position on ASCII text.
"""

import json
import math
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, groupby, permutations, product, takewhile
from typing import NamedTuple

import numpy as np

from gwel import quotients, reports
from gwel.boundary import ProximalityRow, pushed_prefix_mass_exact
from gwel.errors import (
    ConvergenceError,
    CosetLimitError,
    DistributionError,
    ParameterError,
    ParseError,
    RankMismatchError,
)
from gwel.lattice import Partition, _block_weights, _image_blocks, meet
from gwel.measures import Distribution
from gwel.quotients import (
    DEFAULT_MAX_COSETS,
    PermRep,
    _check_abelianization,
    _check_relators,
    _coset_limit_message,
    _validate_relators,
)
from gwel.words import LETTERS, Word, _word, alphabet, letter_key, reduce_letters


def tuple_closure_rows(d, images):
    """Multiplication table of the group generated by point permutations,
    closed element by element with Python tuples: breadth-first from the
    identity, letters in canonical order, each new element numbered on
    first sight.  Row q, column letter_key(l), holds the element q * l;
    missing generators act as the identity."""
    m = len(next(iter(images.values()))) if images else 1
    ident = tuple(range(m))
    by_letter = {}
    for gen in range(1, d + 1):
        perm = tuple(images.get(gen, ident))
        inv = [0] * m
        for i, x in enumerate(perm):
            inv[x] = i
        by_letter[gen], by_letter[-gen] = perm, tuple(inv)
    order = [ident]
    idx = {ident: 0}
    rows = []
    at = 0
    while at < len(order):
        base = order[at]
        row = []
        for l in alphabet(d):
            prod = tuple(by_letter[l][x] for x in base)  # apply base, then l
            k = idx.get(prod)
            if k is None:
                k = len(order)
                idx[prod] = k
                order.append(prod)
            row.append(k)
        rows.append(row)
        at += 1
    return rows


def hlt_coset_table(d, relators, max_cosets=DEFAULT_MAX_COSETS):
    """Coset table of the quotient by HLT Todd-Coxeter, as first written:
    nested scan-and-fill and define helpers, liveness by rep(alpha), and a
    dict relabelling of the live cosets.  `quotients.coset_enumerate` must
    define the same cosets in the same order, so it must return the same
    table and raise the same errors for every presentation and cap."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    if max_cosets < 1:
        raise ParameterError("max_cosets must be >= 1 (set by --max-cosets)")
    rels = _validate_relators(d, relators)
    if not rels:  # the quotient is F_d itself, which no cap can hold
        raise CosetLimitError(_coset_limit_message(max_cosets))
    _check_abelianization(d, rels)
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

    def define(a: int, col: int) -> int:
        if len(p) >= max_cosets:
            raise CosetLimitError(_coset_limit_message(max_cosets))
        b = len(p)
        for column in table:
            column.append(None)
        p.append(b)
        table[col][a] = b
        table[col ^ 1][b] = a
        return b

    def coincidence(a: int, b: int) -> None:
        queue: deque[int] = deque()

        def merge(u: int, v: int) -> None:
            u, v = rep(u), rep(v)
            if u != v:
                if u > v:
                    u, v = v, u
                p[v] = u
                queue.append(v)

        merge(a, b)
        while queue:
            dead = queue.popleft()
            for col in range(ncols):
                delta = table[col][dead]
                if delta is None:
                    continue
                # clear the mirror edge if it still points at the dead coset
                if table[col ^ 1][delta] == dead:
                    table[col ^ 1][delta] = None
                mu, nu = rep(dead), rep(delta)
                if table[col][mu] is not None:
                    merge(nu, table[col][mu])
                elif table[col ^ 1][nu] is not None:
                    merge(mu, table[col ^ 1][nu])
                else:
                    table[col][mu] = nu
                    table[col ^ 1][nu] = mu

    def scan_and_fill(alpha: int, w: list[int]) -> None:
        f, i = alpha, 0
        b, j = alpha, len(w) - 1
        while True:
            while i <= j and table[w[i]][f] is not None:
                f = table[w[i]][f]
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[w[j] ^ 1][b] is not None:
                b = table[w[j] ^ 1][b]
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                # deduction closing the scan, recorded both ways
                table[w[i]][f] = b
                table[w[i] ^ 1][b] = f
                return
            define(f, w[i])

    alpha = 0
    while alpha < len(p):
        if rep(alpha) == alpha:
            for w in rels:
                scan_and_fill(alpha, w)
                if rep(alpha) != alpha:
                    break
            if rep(alpha) == alpha:
                for col in range(ncols):
                    if table[col][alpha] is None:
                        define(alpha, col)
        alpha += 1

    live = [c for c in range(len(p)) if rep(c) == c]
    if any(column[c] is None for column in table for c in live):
        raise ParameterError("incomplete coset table after enumeration")
    index = {c: k for k, c in enumerate(live)}
    rows = [[index[rep(column[c])] for column in table] for c in live]
    out = PermRep(d, rows)
    _check_relators(out._array(), rels)
    return out


def all_tuples_low_index_degree(d, rels):
    """`quotients._low_index_degree` as first written: every d-tuple of
    permutations of n points is tried, each generator's among those that
    satisfy the relators in that generator alone, for the same degrees
    2..N.  Conjugate tuples share a verdict, so the production search,
    which takes the first generator's permutation from one per cycle
    type, must return the same least degree."""
    length = sum(map(len, rels))
    spent = accumulate(math.factorial(n) ** d * length for n in count(2))
    top = 1 + sum(1 for _ in takewhile(lambda w: w <= quotients._LOW_INDEX_WORK, spent))
    # a relator as runs (generator, signed exponent), and the generators it names
    runs = [[(c >> 1, (1 - 2 * (c & 1)) * len(list(g))) for c, g in groupby(w)] for w in rels]
    names = [{g for g, _ in r} for r in runs]
    mixed = [r for r, s in zip(runs, names) if len(s) > 1]

    def fixes(powers, r, points) -> bool:
        """Whether relator r acts trivially; powers[g] is the cycle powers
        of generator g's permutation (a dict for a relator in g alone)."""
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
        perms = list(map(quotients._cycle_powers, permutations(points)))
        cands = [[pw for pw in perms
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
            if quotients._rank(loops) < (d - 1) * n + 1:
                return n
    return 0


def transfer_sphere_counts(rep, n):
    """|N cap S(k)| for k = 0..n by the non-backtracking transfer over
    states (element, last letter), one Python int per state."""
    nc = 2 * rep.rank
    nstates = rep.size * nc
    counts = [1]
    if n == 0:
        return counts
    vec = [0] * nstates
    for col in range(nc):
        vec[rep.apply_col(0, col) * nc + col] += 1
    counts.append(sum(vec[0:nc]))
    for _ in range(2, n + 1):
        new = [0] * nstates
        for q in range(rep.size):
            base = q * nc
            tot = sum(vec[base : base + nc])
            if tot == 0:
                continue
            for col in range(nc):
                # extend by the letter of `col`; forbid backtracking
                val = tot - vec[base + (col ^ 1)]
                if val:
                    new[rep.apply_col(q, col) * nc + col] += val
        vec = new
        counts.append(sum(vec[0:nc]))
    return counts


def brute_kernel_sphere_counts(rep, n):
    """|N cap S(k)| for k = 0..n by walking every reduced word of length
    <= n depth first through rep.apply_letter: (2d-1)^n leaves, so keep
    n small."""
    counts = [1] + [0] * n
    letters = alphabet(rep.rank)

    def dfs(q, last, depth):
        for t in letters:
            if t == -last:
                continue
            q2 = rep.apply_letter(q, t)
            if q2 == rep.identity:
                counts[depth + 1] += 1
            if depth + 1 < n:
                dfs(q2, t, depth + 1)

    if n > 0:
        dfs(rep.identity, 0, 0)
    return counts


def abelian_sphere_states(rep, n):
    """For r = 0..n on the abelianization Z^d, the count of reduced words
    of length r with zero vector, and the dict from (vector, last letter's
    column) to the words of length r so ending: a DP with exact integer
    masses, 2d-1 updates per live state per step."""
    zero = rep.identity
    letters = alphabet(rep.rank)  # letter t has column letter_key(t)
    state = {(zero, -1): 1}  # the empty word has no last letter
    for r in range(n + 1):
        if r:
            new = {}
            for (vec, col), cnt in state.items():
                for col2, t in enumerate(letters):
                    if col2 != col ^ 1:
                        key = (rep.apply_letter(vec, t), col2)
                        new[key] = new.get(key, 0) + cnt
            state = new
        yield sum(c for (v, _), c in state.items() if v == zero), state


def power_iteration_exponent(d, rep, tol=1e-10, max_iter=200000):
    """Critical exponent of the kernel of a finite quotient map.

    Log of the dominant eigenvalue of the non-backtracking transfer
    matrix over states (element, last letter), restricted to states both
    reachable from and co-reachable to the identity-ending states.  Power
    iteration runs on the matrix plus the identity, which removes
    eigenvalue periodicity (relators of even length make the path graph
    bipartite) and shifts the dominant eigenvalue by exactly one;
    all-ones start vector, l1 normalization, and the estimate must be
    stable to relative tol for 10 consecutive iterations.
    """
    size = rep.size
    nc = 2 * d
    nstates = size * nc
    succ = [[] for _ in range(nstates)]
    for q in range(size):
        for c in range(nc):
            s = q * nc + c
            for c2 in range(nc):
                if c2 == c ^ 1:
                    continue
                succ[s].append(rep.apply_col(q, c2) * nc + c2)

    anchors = list(range(nc))  # states (identity element, any last letter)

    def bfs(starts, adj):
        seen = [False] * nstates
        queue = deque()
        for s in starts:
            seen[s] = True
            queue.append(s)
        while queue:
            s = queue.popleft()
            for t in adj[s]:
                if not seen[t]:
                    seen[t] = True
                    queue.append(t)
        return seen

    fwd = bfs(anchors, succ)
    pred = [[] for _ in range(nstates)]
    for s in range(nstates):
        for t in succ[s]:
            pred[t].append(s)
    bwd = bfs(anchors, pred)
    live = [s for s in range(nstates) if fwd[s] and bwd[s]]
    assert live, "no identity-recurrent transfer states"
    pos = {s: i for i, s in enumerate(live)}
    radj = [[] for _ in live]
    for i, s in enumerate(live):
        for t in succ[s]:
            j = pos.get(t)
            if j is not None:
                radj[i].append(j)

    m = len(live)
    x = [1.0 / m] * m
    prev = None
    stable = 0
    for _ in range(max_iter):
        y = x[:]  # identity shift
        for i, row in enumerate(radj):
            xi = x[i]
            for j in row:
                y[j] += xi
        rho = math.fsum(y)
        inv = 1.0 / rho
        x = [v * inv for v in y]
        if prev is not None and abs(rho - prev) <= tol * abs(rho):
            stable += 1
            if stable >= 10:
                return math.log(rho - 1.0)
        else:
            stable = 0
        prev = rho
    raise AssertionError(f"power iteration not stable within {max_iter} iterations")


def radial_laws_loop(d, n):
    """The radial law of mu^k, k = 1..n, for the simple random walk on
    F_d: the birth-death chain stepped one Python float at a time, each
    law a list over the radii 0..k."""
    up = (2 * d - 1) / (2 * d)
    down = 1.0 / (2 * d)
    p = [1.0]
    for k in range(1, n + 1):
        new = [0.0] * (k + 1)
        new[1] += p[0]
        for r in range(1, len(p)):
            m = p[r]
            if m:
                new[r + 1] += m * up
                new[r - 1] += m * down
        p = new
        yield p


def radial_entropy_loop(d, n):
    """H(mu^k), k = 1..n, for the simple random walk on F_d: each row the
    fsum of m (log|S(r)| - log m) over every positive mass m of
    `radial_laws_loop`."""
    logs = [0.0] + [
        math.log(2 * d) + (r - 1) * math.log(2 * d - 1) for r in range(1, n + 1)
    ]
    return tuple(
        math.fsum(m * (logs[r] - math.log(m)) for r, m in enumerate(p) if m > 0.0)
        for p in radial_laws_loop(d, n)
    )


def grid_entropies(n):
    """H(mu'^k), k = 1..n, for the simple random walk pushed to Z^2, by
    a dense dynamic program on the (2n+1)^2 lattice grid."""
    side = 2 * n + 1
    grid = np.zeros((side, side), dtype=np.float64)
    grid[n, n] = 1.0
    values = []
    for _ in range(n):
        new = np.zeros_like(grid)
        new[1:, :] += grid[:-1, :]
        new[:-1, :] += grid[1:, :]
        new[:, 1:] += grid[:, :-1]
        new[:, :-1] += grid[:, 1:]
        new /= 4.0
        grid = new
        nz = grid[grid > 0.0]
        values.append(float(-(nz * np.log(nz)).sum()))
    return values


def binomial_entropy_loop(n):
    """`AbelianRep(2).entropy_values(n)` by its first loop: each step pads
    the Bin(k, 1/2) masses with a zero at either end by `np.append` and
    `np.insert` and halves their sum; 2 H(Bin(k, 1/2)) must come out bit
    for bit the same."""
    p = np.ones(1)
    values = []
    for _ in range(n):
        p = 0.5 * (np.append(p, 0.0) + np.insert(p, 0, 0.0))
        nz = p[p > 0.0]
        values.append(-2.0 * float((nz * np.log(nz)).sum()))
    return tuple(values)


def dense_perm_entropy(rep, n):
    """`PermRep.entropy_values(n)` by one probability vector over every
    element, each step gathering x * l^-1 for all letters: the vectors the
    parity classes hold are this one's positive entries in the same order,
    so the floats must be the same bit for bit."""
    cols = range(2 * rep.rank)
    table = np.array([[rep.apply_col(q, c) for c in cols] for q in range(rep.size)])
    gathers = [table[:, c ^ 1] for c in cols]
    vec = np.eye(1, rep.size)[0]
    values = []
    for _ in range(n):
        vec = sum(vec[g] for g in gathers) / len(gathers)
        nz = vec[vec > 0.0]
        values.append(0.0 - float((nz * np.log(nz)).sum()))
    return tuple(values)


def two_colouring(rows):
    """True at the odd elements of a 2-colouring of the Cayley graph with
    multiplication table `rows` (element 0 even), colour by colour from a
    queue; all False when some edge joins two elements of one colour."""
    colour = [None] * len(rows)
    colour[0] = False
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in rows[x]:
            if colour[y] is None:
                colour[y] = not colour[x]
                queue.append(y)
            elif colour[y] == colour[x]:
                return [False] * len(rows)
    return colour


def identity(rank):
    """The empty word of F_rank."""
    return reduce_letters((), rank)


def multiply(w1, w2):
    """Reduced product.  Cancellation happens only at the seam."""
    if w1.rank != w2.rank:
        raise RankMismatchError(f"rank mismatch: {w1.rank} vs {w2.rank}")
    a, b = w1.letters, w2.letters
    n, k = len(a), 0
    m = min(n, len(b))
    while k < m and a[n - 1 - k] == -b[k]:
        k += 1
    return _word(a[: n - k] + b[k:], w1.rank)


def sphere(d, n):
    """All reduced words of length exactly n, in canonical order, lazily."""
    if d < 2:
        raise RankMismatchError(f"rank must be >= 2, got {d}")
    if n < 0:
        raise ValueError("radius must be >= 0")
    letters = alphabet(d)
    prefix = []

    def rec():
        if len(prefix) == n:
            yield _word(tuple(prefix), d)
            return
        last = prefix[-1] if prefix else 0
        for t in letters:
            if t != -last:
                prefix.append(t)
                yield from rec()
                prefix.pop()

    yield from rec()


@lru_cache(maxsize=None)
def sphere_words(d, n):
    """The words of `sphere(d, n)`, built once per (d, n)."""
    return tuple(sphere(d, n))


@lru_cache(maxsize=None)
def product_lengths(d, g, m):
    """|g w| for each w in S(m) of F_d, from the reduced products, computed
    once per (d, g, m): the density integral of g and the entropy integral
    of g^-1 sum the same lengths."""
    return tuple(len(multiply(g, w)) for w in sphere_words(d, m))


def lcp(a, b):
    """Length of the longest common prefix of two letter tuples."""
    k, m = 0, min(len(a), len(b))
    while k < m and a[k] == b[k]:
        k += 1
    return k


def rn_exponent(d, g, w):
    """Integer e with d(g nu)/d nu = (2d-1)^e on C_w, namely
    |w| - |reduce(g^-1 w)| = 2 lcp(g, w) - |g|.  Needs |w| >= |g| + 1 so
    the derivative is constant on the cylinder."""
    if g.rank != d or w.rank != d:
        raise RankMismatchError("rank mismatch in derivative arguments")
    if len(w) < len(g) + 1:
        raise ParameterError(f"cylinder depth {len(w)} too shallow for |g| = {len(g)}")
    return 2 * lcp(g.letters, w.letters) - len(g)


def prefix_classes(d, g):
    """(nu-mass, k) of each class k = 0..|g| of S(|g|+1), the words sharing
    a prefix of length exactly k with g.  The letter after that prefix is
    neither g's next letter nor the inverse of the one before, so
    (k > 0) + (k < |g|) letters are banned: the masses depend on |g| only."""
    if g.rank != d:
        raise RankMismatchError(f"word rank {g.rank} differs from {d}")
    n, q = len(g), 2 * d - 1
    for k in range(n + 1):
        yield Fraction((2 * d - (k > 0) - (k < n)) * q ** (n - k), 2 * d * q**n), k


def sphere_rn_integral(d, g):
    """Integral of d(g nu)/d nu, summed word by word over S(|g|+1): the
    density on C_w is (2d-1)^e with e = |w| - |g^-1 w|, and every
    cylinder of depth n + 1 has mass 1 / (2d (2d-1)^n)."""
    n = len(g)
    q = 2 * d - 1
    ginv = g.inverse()
    # sum over w of q^e / (2d q^n), kept integral as q^(e + n) / (2d q^2n)
    s = sum(q ** (2 * n + 1 - length) for length in product_lengths(d, ginv, n + 1))
    return Fraction(s, 2 * d * q ** (2 * n))


def sphere_kl_coefficient(d, g, m=None):
    """Coefficient of log(2d-1) in int -log(d g^-1 nu / d nu) d nu, summed
    word by word over S(m), m = |g| + 1 unless a deeper level is given."""
    m = len(g) + 1 if m is None else m
    lengths = product_lengths(d, g, m)
    s = sum(lengths) - m * len(lengths)
    return Fraction(s, 2 * d * (2 * d - 1) ** (m - 1))


def sphere_boundary_entropy_coefficient(d, mu):
    """sum_g mu(g) kl(g), every cylinder taken at the common depth
    max|g| + 1."""
    m = max((len(g) for g in mu.support()), default=0) + 1
    return sum(
        (q * sphere_kl_coefficient(d, g, m) for g, q in mu.exact_items()),
        Fraction(0),
    )


def multiply_rn_exponent(d, g, w):
    """rn_exponent as first written: |w| - |g^-1 w| by a reduced product,
    with the same checks and messages."""
    if g.rank != d or w.rank != d:
        raise RankMismatchError("rank mismatch in derivative arguments")
    if len(w) < len(g) + 1:
        raise ParameterError(f"cylinder depth {len(w)} too shallow for |g| = {len(g)}")
    return len(w) - len(multiply(g.inverse(), w))


def multiply_cocycle_exponents(d, g, h, w):
    """e(gh, w), e(g, w) and e(h, g^-1 w), each from reduced products;
    cocycle_check as first written compared the first with the sum of the
    other two."""
    if len(w) < len(g) + len(h) + 1:
        raise ParameterError(
            f"cylinder depth {len(w)} too shallow for |g|+|h| = {len(g) + len(h)}"
        )
    gh = multiply(g, h)
    return (
        multiply_rn_exponent(d, gh, w),
        multiply_rn_exponent(d, g, w),
        multiply_rn_exponent(d, h, multiply(g.inverse(), w)),
    )


def word_prefix_classes(d, g):
    """(nu-mass, one word) of each class k = 0..|g| of S(|g|+1), the words
    sharing a prefix of length exactly k with g: the banned next letters
    are collected as a set, and each class is represented by a Word."""
    if g.rank != d:
        raise RankMismatchError(f"word rank {g.rank} differs from {d}")
    n, q = len(g), 2 * d - 1
    for k in range(n + 1):
        banned = {-l for l in g.letters[max(k - 1, 0) : k]} | set(g.letters[k : k + 1])
        x = next(l for l in alphabet(d) if l not in banned)
        mass = Fraction((2 * d - len(banned)) * q ** (n - k), 2 * d * q**n)
        yield mass, Word(g.letters[:k] + (x,) * (n - k + 1), d)


def word_rn_integral(d, g):
    """rn_integral as first written, over the Word representatives."""
    q = Fraction(2 * d - 1)
    return sum(m * q ** multiply_rn_exponent(d, g, w) for m, w in word_prefix_classes(d, g))


def word_kl_coefficient(d, g):
    """kl_coefficient as first written: the classes of g^-1."""
    ginv = g.inverse()
    return sum(-m * multiply_rn_exponent(d, ginv, w) for m, w in word_prefix_classes(d, ginv))


def cond_expect_matrix(space, partition):
    """Dense m x m matrix of the conditional expectation onto a
    partition: (E f)(x) = sum_y E[x, y] f(y), the lam-weighted mean of f
    over the block of x."""
    lam = np.array(space.weights)
    block = np.array(partition.block_of)
    block_mass = np.zeros(partition.n_blocks)
    np.add.at(block_mass, block, lam)
    same = block[:, None] == block[None, :]
    mat = np.zeros((space.m, space.m))
    mat[same] = (lam[None, :] / block_mass[block][:, None])[same]
    return mat


def dense_l2_distance(space, p, q):
    """Hilbert-Schmidt norm of E_p - E_q in the lam-weighted inner
    product, ||A||^2 = sum_xy lam_x A[x, y]^2 / lam_y, from the matrices."""
    lam = np.array(space.weights)
    a = cond_expect_matrix(space, p) - cond_expect_matrix(space, q)
    return math.sqrt(max(float(np.sum(lam[:, None] * a * a / lam[None, :])), 0.0))


def indent2_json(obj):
    """The report layout: the standard library's indent-2 JSON encoder."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


def proximality_rows(d, n, k, seed, trials):
    """The rows of proximality_sim(d, n, k, seed, trials) as one tuple:
    trial i walks on the picks of Generator(Philox(child_i)), child_i the
    i-th spawn of SeedSequence(seed), reduced with a letter stack; each
    row's mass is the float of its exact pushed mass, None below k."""
    letters = alphabet(d)
    rows = []
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        picks = np.random.Generator(np.random.Philox(child)).integers(0, 2 * d, size=n)
        stack = []
        for j, pick in enumerate(picks.tolist(), 1):
            l = letters[pick]
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
            length = len(stack)
            mass = float(pushed_prefix_mass_exact(d, length, k)) if length >= k else None
            rows.append(ProximalityRow(t, j, length, mass, length == k))
    return tuple(rows)


def drift_loop(d, n, trials, seed):
    """(estimate, stderr, lengths) of |w_n|/n over trials walks, lengths
    the int64 |w_n| of each: trial i steps down where
    Generator(Philox(child_i)).random(n) < 1/(2d), child_i the i-th spawn
    of SeedSequence(seed), and the radius is stepped with its reflection
    at 0 one step at a time across all trials."""
    children = np.random.SeedSequence(seed).spawn(trials)
    down = 1.0 / (2 * d)
    steps = np.empty((trials, n), dtype=np.int8)
    for i, child in enumerate(children):
        u = np.random.Generator(np.random.Philox(child)).random(n)
        steps[i] = np.where(u < down, -1, 1)
    by_step = np.ascontiguousarray(steps.T)
    r = np.zeros(trials, dtype=np.int64)
    for j in range(n):
        r = np.abs(r + by_step[j])
    vals = r / n
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(trials)), r


def convolution_coset_bound(mu, rep, k):
    """sum_q mu'^k(q) log c_k(q) from the convolution power mu^k on words
    (cached on mu): every support word is projected to its element q,
    which adds its mass to mu'^k(q) and one to c_k(q)."""
    mass, count = {}, {}
    for w, p in convolve_power(mu, k).items():
        q = rep.project(w)
        mass[q] = mass.get(q, 0.0) + p
        count[q] = count.get(q, 0) + 1
    return math.fsum(m * math.log(count[q]) for q, m in mass.items())


def in_kernel(w, rep):
    return rep.project(w) == rep.identity


def cycle_types(rep):
    """Cycle type of each generator's permutation of a PermRep's
    elements, for relabeling-invariant comparison of enumerations."""
    out = []
    for gen in range(1, rep.rank + 1):
        perm = [rep.apply_col(q, letter_key(gen)) for q in range(rep.size)]
        seen = [False] * rep.size
        lens = []
        for s in range(rep.size):
            if not seen[s]:
                n, t = 0, s
                while not seen[t]:
                    seen[t] = True
                    t = perm[t]
                    n += 1
                lens.append(n)
        out.append(tuple(sorted(lens)))
    return tuple(out)


def solve_stationary(action):
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


class NotReachedError(LookupError):
    pass


def rn_bound(mu, g, n_max=16):
    """M(g) = max(1/mu^k(g^-1), 1/mu^n(g)) over the smallest k, n <= n_max
    whose convolution power charges the element."""
    ctx = mu.context
    ctx.validate_element(g)
    ginv = g.inverse()
    p_fwd = p_inv = None
    for n in range(n_max + 1):
        power = convolve_power(mu, n)
        if p_fwd is None:
            p = prob(power, g)
            if p > 0:
                p_fwd = p
        if p_inv is None:
            p = prob(power, ginv)
            if p > 0:
                p_inv = p
        if p_fwd is not None and p_inv is not None:
            return max(1.0 / p_fwd, 1.0 / p_inv)
    raise NotReachedError(
        f"element not reached within n_max={n_max} convolution powers"
    )


class ContextMismatchError(ParameterError):
    pass


def prob(mu, g):
    """mu(g), 0 off the support."""
    return mu.probs.get(g, 0.0)


def point_mass(context, g):
    context.validate_element(g)
    return Distribution(context, {g: 1.0}, exact={g: Fraction(1)})


def convolve(mu, nu):
    """(mu*nu)(x) = sum over g.h = x of mu(g) nu(h), the smaller support
    on the outside; the exact channel is dropped."""
    if mu.context != nu.context:
        raise ContextMismatchError(f"context mismatch: {mu.context!r} vs {nu.context!r}")
    out = {}
    if len(mu) <= len(nu):
        pairs = ((g, pg, h, ph) for g, pg in mu.items() for h, ph in nu.items())
    else:
        pairs = ((g, pg, h, ph) for h, ph in nu.items() for g, pg in mu.items())
    for g, pg, h, ph in pairs:
        x = multiply(g, h)
        out[x] = out.get(x, 0.0) + pg * ph
    return Distribution(mu.context, out)


@lru_cache(maxsize=32)
def convolve_power(mu, n):
    """mu^n by repeated convolution; recent powers are cached."""
    if n < 0:
        raise DistributionError("negative convolution power")
    if n == 0:
        return point_mass(mu.context, identity(mu.context.rank))
    return convolve(convolve_power(mu, n - 1), mu)


def shannon_entropy(mu):
    """-sum p log p in nats, compensated summation."""
    return math.fsum(-p * math.log(p) for p in mu.probs.values())


class SphereCounts(NamedTuple):
    counts: tuple


def sphere_counts(d, n):
    """|S(k)| for k <= n, counted word by word."""
    return SphereCounts(tuple(sum(1 for _ in sphere(d, k)) for k in range(n + 1)))


def cylinder_mass_exact(d, w):
    """nu(C_w) = (1/(2d)) * (2d-1)^-(|w|-1), exact."""
    if w.rank != d:
        raise RankMismatchError(f"word rank {w.rank} differs from {d}")
    if len(w) < 1:
        raise ParameterError("cylinder prefix must be nonempty")
    return Fraction(1, 2 * d * (2 * d - 1) ** (len(w) - 1))


def rn_derivative_exact(d, g, w):
    """d(g nu)/d nu on C_w, |w| >= |g| + 1: (2d-1)^e by a reduced product."""
    return Fraction(2 * d - 1) ** multiply_rn_exponent(d, g, w)


def discrete(m):
    """The partition of {0..m-1} into points."""
    return Partition(range(m))


def from_blocks(blocks, m):
    """The partition of {0..m-1} with the given blocks of 0-based points,
    which must cover every point once."""
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
    return Partition(assignment)


def invariant_closure(action, p):
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


def chain_rule_check(action, space, p, q, g, tol=1e-12):
    """Fiber-times-base factorization of weight ratios at q-granularity.

    For nested invariant partitions p <= q (q finer) and a group element
    g (a signed letter or a sequence of them), checks at every point x
    with q-block B_q and p-block B_p:

        lam_q(g.B_q)/lam_q(B_q)
          = [ (lam_q(g.B_q)/lam_p(g.B_p)) / (lam_q(B_q)/lam_p(B_p)) ]
            * [ lam_p(g.B_p)/lam_p(B_p) ]

    With q discrete this is the pointwise derivative factorization.
    """
    if space.m != action.m:
        raise ParameterError("space does not match the action")
    if not q.refines(p):
        raise ParameterError("partitions are not nested (q must refine p)")
    for part in (p, q):
        if not action.is_invariant(part):
            raise ParameterError("partition is not invariant under the action")
    letters = (g,) if isinstance(g, int) else tuple(g)
    wq = _block_weights(space.weights, q)
    wp = _block_weights(space.weights, p)
    img_q = _image_blocks(action, q, letters)
    img_p = _image_blocks(action, p, letters)
    for x in range(action.m):
        bq, bp = q.block_of[x], p.block_of[x]
        lhs = wq[img_q[bq]] / wq[bq]
        base = wp[img_p[bp]] / wp[bp]
        fiber = (wq[img_q[bq]] / wp[img_p[bp]]) / (wq[bq] / wp[bp])
        if abs(lhs - fiber * base) > tol * abs(lhs):
            return False
    return True


def table_rows(table):
    """A series table's cells row by row, codes looked up."""
    return [list(row) for row in zip(*map(reports._cells, table.columns.values()))]


def _clean_object(obj):
    if isinstance(obj, reports.Table):
        return _clean_object({"columns": list(obj.columns), "rows": table_rows(obj)})
    if isinstance(obj, dict):
        return {str(k): _clean_object(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean_object(v) for v in obj]
    return reports._clean(obj)


def report_to_object(report):
    """The report as plain JSON values, its series as {"columns", "rows"}."""
    return _clean_object(reports._fields(report))


def csv_cell(v):
    """The CSV text of one series cell."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise reports._non_finite()
        return f"{v:.12g}"
    if isinstance(v, int):
        return str(reports.printable(v))
    return str(v)


def charwise_cycle_assignments(
    text: str, offset: int, max_letters: int
) -> dict[int, list[list[int]]]:
    """`a=(1 2)(3 4); b=(1 3)` read one character at a time from
    `offset` (0-based) in the full input: generator index -> cycles of
    1-based points, or the ParseError that the token reader must raise."""
    out: dict[int, list[list[int]]] = {}
    chunks = text.split(";")
    at = 0
    for idx, chunk in enumerate(chunks):
        base = offset + at
        at += len(chunk) + 1
        if chunk.strip() == "":
            if idx == len(chunks) - 1 and out:
                continue  # allow a trailing semicolon
            raise ParseError("empty generator assignment", position=base + 1)
        i = 0
        while i < len(chunk) and chunk[i].isspace():
            i += 1
        ch = chunk[i]
        if ch not in LETTERS:
            raise ParseError(f"unknown letter {ch!r}", position=base + i + 1)
        gen = LETTERS.index(ch) + 1
        if gen > max_letters:
            raise ParseError(
                f"letter {ch!r} exceeds rank {max_letters}", position=base + i + 1
            )
        if gen in out:
            raise ParseError(
                f"generator {ch!r} assigned twice", position=base + i + 1
            )
        i += 1
        while i < len(chunk) and chunk[i].isspace():
            i += 1
        if i >= len(chunk) or chunk[i] != "=":
            raise ParseError(
                f"expected '=' after generator {ch!r}", position=base + i + 1
            )
        i += 1
        cycles: list[list[int]] = []
        seen_points: set[int] = set()
        while True:
            while i < len(chunk) and chunk[i].isspace():
                i += 1
            if i >= len(chunk):
                break
            if chunk[i] != "(":
                raise ParseError(
                    f"malformed cycle: expected '(' not {chunk[i]!r}",
                    position=base + i + 1,
                )
            i += 1
            cycle: list[int] = []
            while True:
                while i < len(chunk) and chunk[i].isspace():
                    i += 1
                if i >= len(chunk):
                    raise ParseError(
                        "malformed cycle: missing ')'", position=base + i + 1
                    )
                if chunk[i] == ")":
                    i += 1
                    break
                if not chunk[i].isdigit():
                    raise ParseError(
                        f"malformed cycle: unexpected {chunk[i]!r}",
                        position=base + i + 1,
                    )
                j = i
                while j < len(chunk) and chunk[j].isdigit():
                    j += 1
                point = int(chunk[i:j])
                if point < 1:
                    raise ParseError(
                        "cycle points are 1-based", position=base + i + 1
                    )
                if point in seen_points:
                    shown = chunk[i:j].lstrip("0")
                    if len(shown) > 20:
                        shown = f"{shown[:20]}... ({len(shown)} digits)"
                    raise ParseError(
                        f"point {shown} repeated in cycles", position=base + i + 1
                    )
                seen_points.add(point)
                cycle.append(point)
                i = j
            if not cycle:
                raise ParseError("empty cycle", position=base + i)
            cycles.append(cycle)
        if not cycles:
            raise ParseError(
                f"generator {ch!r} has no cycles", position=base + i + 1
            )
        out[gen] = cycles
    if not out:
        raise ParseError("empty permutation spec", position=offset + 1)
    return out

"""Independent computations that the closed forms in gwel replace.

The library states the critical exponent of a quotient's kernel as
log(2d-1), the Z^2 entropy as 2 H(Bin(k, 1/2)), sums its boundary
integrals over |g| + 1 prefix classes, and takes the Hilbert-Schmidt
distance between two conditional expectations from block weights; the
tests check all four against these brute computations (the last one
against dense conditional-expectation matrices), so they never compare
a formula with itself.
"""

import math
from collections import deque
from fractions import Fraction

import numpy as np

from gwel.words import multiply, sphere


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


def sphere_rn_integral(d, g):
    """Integral of d(g nu)/d nu, summed word by word over S(|g|+1): the
    density on C_w is (2d-1)^e with e = |w| - |g^-1 w|, and every
    cylinder of depth n + 1 has mass 1 / (2d (2d-1)^n)."""
    n = len(g)
    q = 2 * d - 1
    ginv = g.inverse()
    # sum over w of q^e / (2d q^n), kept integral as q^(e + n) / (2d q^2n)
    s = sum(q ** (2 * n + 1 - len(multiply(ginv, w))) for w in sphere(d, n + 1))
    return Fraction(s, 2 * d * q ** (2 * n))


def sphere_kl_coefficient(d, g, m=None):
    """Coefficient of log(2d-1) in int -log(d g^-1 nu / d nu) d nu, summed
    word by word over S(m), m = |g| + 1 unless a deeper level is given."""
    m = len(g) + 1 if m is None else m
    s = sum(len(multiply(g, w)) - m for w in sphere(d, m))
    return Fraction(s, 2 * d * (2 * d - 1) ** (m - 1))


def sphere_boundary_entropy_coefficient(d, mu):
    """sum_g mu(g) kl(g), every cylinder taken at the common depth
    max|g| + 1."""
    m = max((len(g) for g in mu.support()), default=0) + 1
    return sum(
        (q * sphere_kl_coefficient(d, g, m) for g, q in mu.exact_items()),
        Fraction(0),
    )


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

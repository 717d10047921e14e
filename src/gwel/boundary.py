"""Exact boundary-entropy calculus for the simple random walk on F_d.

The boundary of the tree carries the hitting measure nu with
nu(C_w) = (1/(2d)) (2d-1)^-(|w|-1) on the cylinder of a reduced prefix
w.  On a cylinder with |w| >= |g| + 1 the translate density d(g nu)/d nu
is (2d-1)^e with e = |w| - |g^-1 w| = 2 lcp(g, w) - |g|, lcp the length
of the longest common prefix: g^-1 w cancels exactly that prefix.  The
cocycle check takes its three exponents from index scans of the letter
tuples of g, h and w, building neither gh nor g^-1 w.  An integral
against g sums the |g| + 1 classes k = lcp of exact mass, not a sphere
of words: the density integral is one integer sum over one denominator,
and the entropy integral, class k contributing |g| - 2k, has the closed
form |g| - (1/d) sum_{j<|g|} (2d-1)^-j.  Nothing here builds a Word.
The entropy integrand is -log(d g^{-1}nu / d nu), orientation-independent
for the symmetric walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .entropy import _philox_streams
from .errors import ParameterError, RankMismatchError, ResourceGuardError
from .measures import Distribution
from .words import FreeGroup, Word, alphabet


def _cocycle_exponents(d: int, g: Word, h: Word, w: Word) -> tuple[int, int, int]:
    """The exponents e(gh, w), e(g, w) and e(h, g^-1 w) by index scans of
    the letters a, b, v of g, h and w.  With j the cancellation at the
    seam of gh = a[:|a|-j] + b[j:] and k = lcp(a, v), g^-1 w is -a[|a|-1],
    ..., -a[k] followed by v[k:]; its first letters are those the seam
    scan matched against b, so only v[k:] is scanned once b has passed
    them.  Every cylinder is deep enough: |g^-1 w| >= |w| - |g|."""
    if len(w) < len(g) + len(h) + 1:
        raise ParameterError(
            f"cylinder depth {len(w)} too shallow for |g|+|h| = {len(g) + len(h)}"
        )
    if g.rank != h.rank:
        raise RankMismatchError(f"rank mismatch: {g.rank} vs {h.rank}")
    if g.rank != d or w.rank != d:
        raise RankMismatchError("rank mismatch in derivative arguments")
    a, b, v = g.letters, h.letters, w.letters
    n, m = len(a), len(b)
    j, top = 0, min(n, m)
    while j < top and a[n - 1 - j] == -b[j]:
        j += 1
    k = 0
    while k < n and a[k] == v[k]:
        k += 1
    # lcp(gh, v): v leaves a[:n-j] at k, or follows it into b[j:]
    p = k
    if k >= n - j:
        p, i = n - j, j
        while i < m and b[i] == v[p]:
            i += 1
            p += 1
    # lcp(h, g^-1 w): b[i] = -a[n-1-i] for i < j, so b leaves the inverted
    # part at j, or follows it to its end and on into v[k:]
    i = min(j, n - k)
    if j >= n - k:
        while i < m and b[i] == v[i + 2 * k - n]:
            i += 1
    return 2 * p - (n + m - 2 * j), 2 * k - n, 2 * i - m


def cocycle_check(d: int, g: Word, h: Word, w: Word) -> bool:
    """Multiplicative chain rule rn(gh, w) = rn(g, w) * rn(h, g^-1 w),
    verified as an exact integer exponent identity."""
    gh, first, second = _cocycle_exponents(d, g, h, w)
    return gh == first + second


def _check_rank(d: int, g: Word) -> None:
    if g.rank != d:
        raise RankMismatchError(f"word rank {g.rank} differs from {d}")


def rn_integral(d: int, g: Word) -> Fraction:
    """Integral of the translate density over the boundary; exactly 1.
    Class k = 0..n of S(n+1), n = |g|, the words sharing a prefix of length
    exactly k with g, has c_k = 2d - (k > 0) - (k < n) letters after that
    prefix, mass c_k q^(n-k) / (2d q^n) with q = 2d - 1 and density
    q^(2k-n), so the integral is sum_k c_k q^k / (2d q^n)."""
    _check_rank(d, g)
    n, q = len(g), 2 * d - 1
    total, power = 0, 1
    for k in range(n + 1):
        total += (2 * d - (k > 0) - (k < n)) * power
        power *= q
    return Fraction(total, 2 * d * q**n)


def _kl(d: int, g: Word) -> Fraction:
    """n - (1/d) sum_{j<n} q^-j = n - (q^n - 1) / (d (q-1) q^(n-1)), with
    n = |g| and q = 2d - 1."""
    _check_rank(d, g)
    n, q = len(g), 2 * d - 1
    if n == 0:
        return Fraction(0)
    geometric = (q**n - 1) // (q - 1) if q > 1 else n  # sum_{j<n} q^j
    scale = d * q ** (n - 1)
    return Fraction(n * scale - geometric, scale)


def kl_coefficient(d: int, g: Word) -> Fraction:
    """Exact rational c with int -log(d g^-1 nu / d nu) d nu = c * log(2d-1),
    namely c = |g| - (1/d) sum_{j<|g|} (2d-1)^-j."""
    return _kl(d, g)


def boundary_entropy_coefficient(d: int, mu: Distribution) -> Fraction:
    """Exact rational c with sum_g mu(g) int -log(d g^-1 nu / d nu) d nu
    = c * log(2d-1), from the exact rational masses of mu when it carries
    them, else the exact binary values of its doubles."""
    ctx = mu.context
    if not isinstance(ctx, FreeGroup) or ctx.rank != d:
        raise RankMismatchError(f"distribution context {ctx!r} is not free of rank {d}")
    return sum(q * _kl(d, g) for g, q in mu.exact_items())


def boundary_entropy(d: int, mu: Distribution) -> float:
    """Exact Furstenberg entropy of (mu, nu) in nats."""
    return float(boundary_entropy_coefficient(d, mu)) * math.log(2 * d - 1)


# rows trials x steps of proximality: 10^6 take 1.2-1.8 s and 130 MB peak
# RSS as a JSON report (1.1-1.6 s and 65 MB as CSV) on a 2-core x86 box
PROXIMALITY_ROW_BUDGET = 10**6


class ProximalityRow(NamedTuple):
    """One step of one trial, as `ProximalityReport.rows` yields it."""

    trial: int
    step: int
    length: int
    mass: float | None  # None while the walk is shorter than the prefix depth
    shallow: bool


@dataclass(frozen=True, eq=False)
class ProximalityReport:
    """`trials` walks of `steps` steps, held as columns: `lengths[t, j-1]`
    is |w_j| in trial t (a read-only int32 array) and `masses[L]` the
    pushed prefix mass at length L, for L up to the longest walk, None
    below the prefix depth.  Reports are equal when their parameters and
    lengths are."""

    rank: int
    steps: int
    prefix_depth: int
    seed: int
    trials: int
    lengths: np.ndarray
    masses: tuple[float | None, ...]

    @property
    def rows(self) -> tuple[ProximalityRow, ...]:
        """Every row, trial by trial and step by step, as library API; the
        CLI writes the columns instead."""
        k, masses = self.prefix_depth, self.masses
        return tuple(ProximalityRow(t, j, length, masses[length], length == k)
                     for t, walk in enumerate(self.lengths.tolist())
                     for j, length in enumerate(walk, 1))

    def _key(self):
        return (self.rank, self.steps, self.prefix_depth, self.seed, self.trials,
                self.lengths.tobytes())

    def __eq__(self, other):
        if not isinstance(other, ProximalityReport):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def final_masses(self) -> list[float | None]:
        return [self.masses[length] for length in self.lengths[:, -1].tolist()]


def pushed_prefix_mass_exact(d: int, length: int, k: int) -> Fraction:
    """(w nu)(C_v) for v the depth-k prefix of a reduced word w of the
    given length: every ray lands in C_v except those in the cancellation
    cylinder, so the mass is 1 - (1/(2d)) (2d-1)^-(L-k) exactly."""
    if k < 1:
        raise ParameterError("prefix depth must be >= 1")
    if length < k:
        raise ParameterError("word shorter than the prefix")
    return 1 - Fraction(1, 2 * d * (2 * d - 1) ** (length - k))


def proximality_sim(
    d: int, n: int, k: int, seed: int, trials: int = 1
) -> ProximalityReport:
    """Seeded walk(s) w_j = g_1 ... g_j; per step reports the mass the
    translated hitting measure w_j nu gives to the cylinder of the
    depth-k prefix of w_j.

    Steps while |w_j| < k are reported with mass None (skipped); steps
    with |w_j| = k exactly are flagged shallow, since the cancellation
    cylinder then has depth 1 and no concentration is claimed.  Masses
    come from the cancellation-cylinder complement formula, exact per
    query.  Trial i draws from `Generator(Philox(child_i))`, child_i the
    i-th spawn of SeedSequence(seed), set up by `entropy._philox_streams`."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    if n < 1:
        raise ParameterError("steps must be >= 1")
    if k < 1:
        raise ParameterError("prefix depth must be >= 1")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if trials * n > PROXIMALITY_ROW_BUDGET:
        raise ResourceGuardError(
            f"proximality keeps trials x steps rows, over the budget of "
            f"{PROXIMALITY_ROW_BUDGET}; lower --trials or --steps"
        )
    letters = alphabet(d)
    walks = np.empty((trials, n), dtype=np.int32)  # |w_j| for j = 1..n, per trial
    for walk, bitgen in zip(walks, _philox_streams(seed, trials)):
        picks = np.random.Generator(bitgen).integers(0, 2 * d, size=n)
        stack: list[int] = []
        lengths = []
        for l in map(letters.__getitem__, picks.tolist()):
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
            lengths.append(len(stack))
        walk[:] = lengths
    walks.flags.writeable = False
    # lengths move by one from 0: these are the masses of the lengths visited;
    # the masses rise to 1, so once one rounds to 1.0 every longer one does
    top = int(walks.max())
    mass_at = [None] * min(k, top + 1)
    for length in range(k, top + 1):
        mass_at.append(float(pushed_prefix_mass_exact(d, length, k)))
        if mass_at[-1] == 1.0:
            break
    mass_at += [1.0] * (top + 1 - len(mass_at))
    return ProximalityReport(d, n, k, seed, trials, walks, tuple(mass_at))


__all__ = [
    "ProximalityReport",
    "ProximalityRow",
    "boundary_entropy",
    "boundary_entropy_coefficient",
    "cocycle_check",
    "kl_coefficient",
    "proximality_sim",
    "pushed_prefix_mass_exact",
    "rn_integral",
]

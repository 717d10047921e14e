"""Exact boundary-entropy calculus for the simple random walk on F_d.

The boundary of the tree carries the hitting measure nu with
nu(C_w) = (1/(2d)) (2d-1)^-(|w|-1) on the cylinder of a reduced prefix
w.  Translate densities are constant on cylinders deep enough to clear
the translating element, with integer exponents of (2d-1); all
integrals are finite cylinder sums, no boundary sampling.  The entropy
integral uses the integrand -log(d g^{-1}nu / d nu); for the symmetric
simple random walk the value is orientation-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, RankMismatchError, ResourceGuardError
from .measures import Distribution
from .words import FreeGroup, Word, alphabet, multiply, sphere, sphere_size

INTEGRAL_SPHERE_LIMIT = 10**6


@dataclass(frozen=True)
class Cylinder:
    """Boundary rays extending a nonempty reduced prefix."""

    word: Word

    def __post_init__(self):
        if len(self.word) < 1:
            raise ParameterError("cylinder prefix must be nonempty")

    @property
    def rank(self) -> int:
        return self.word.rank

    def mass_exact(self) -> Fraction:
        return cylinder_mass_exact(self.word.rank, self.word)

    def mass(self) -> float:
        return float(self.mass_exact())


def cylinder_mass_exact(d: int, w: Word) -> Fraction:
    """nu(C_w) = (1/(2d)) * (2d-1)^-(|w|-1), exact."""
    if w.rank != d:
        raise RankMismatchError(f"word rank {w.rank} differs from {d}")
    if len(w) < 1:
        raise ParameterError("cylinder prefix must be nonempty")
    return Fraction(1, 2 * d * (2 * d - 1) ** (len(w) - 1))


def cylinder_mass(d: int, w: Word) -> float:
    return float(cylinder_mass_exact(d, w))


@dataclass(frozen=True)
class HittingMeasure:
    """The exit law of the simple random walk on F_d; determined by d."""

    rank: int

    def __post_init__(self):
        if self.rank < 2:
            raise ParameterError(f"rank must be >= 2, got {self.rank}")

    def cylinder_mass(self, w: Word) -> float:
        return cylinder_mass(self.rank, w)

    def cylinder_mass_exact(self, w: Word) -> Fraction:
        return cylinder_mass_exact(self.rank, w)

    def rn_derivative(self, g: Word, w: Word) -> float:
        return rn_derivative(self.rank, g, w)


def rn_exponent(d: int, g: Word, w: Word) -> int:
    """Integer e with d(g nu)/d nu = (2d-1)^e on C_w, namely
    |w| - |reduce(g^-1 w)|.  Needs |w| >= |g| + 1 so the derivative is
    constant on the cylinder."""
    if g.rank != d or w.rank != d:
        raise RankMismatchError("rank mismatch in derivative arguments")
    if len(w) < len(g) + 1:
        raise ParameterError(
            f"cylinder depth {len(w)} too shallow for |g| = {len(g)}"
        )
    return len(w) - len(multiply(g.inverse(), w))


def rn_derivative(d: int, g: Word, w: Word) -> float:
    return float((2 * d - 1) ** rn_exponent(d, g, w))


def rn_derivative_exact(d: int, g: Word, w: Word) -> Fraction:
    e = rn_exponent(d, g, w)
    if e >= 0:
        return Fraction((2 * d - 1) ** e)
    return Fraction(1, (2 * d - 1) ** (-e))


def cocycle_check(d: int, g: Word, h: Word, w: Word) -> bool:
    """Multiplicative chain rule rn(gh, w) = rn(g, w) * rn(h, g^-1 w),
    verified as an exact integer exponent identity."""
    if len(w) < len(g) + len(h) + 1:
        raise ParameterError(
            f"cylinder depth {len(w)} too shallow for |g|+|h| = {len(g) + len(h)}"
        )
    lhs = rn_exponent(d, multiply(g, h), w)
    rhs = rn_exponent(d, g, w) + rn_exponent(d, h, multiply(g.inverse(), w))
    return lhs == rhs


def rn_integral(d: int, g: Word) -> Fraction:
    """Integral of the translate density over the boundary; exactly 1."""
    if g.rank != d:
        raise RankMismatchError(f"word rank {g.rank} differs from {d}")
    m = len(g) + 1
    if sphere_size(d, m) > INTEGRAL_SPHERE_LIMIT:
        raise ResourceGuardError(f"cylinder decomposition at depth {m} too large")
    q = 2 * d - 1
    total = Fraction(0)
    for w in sphere(d, m):
        e = rn_exponent(d, g, w)
        val = Fraction(q**e) if e >= 0 else Fraction(1, q ** (-e))
        total += cylinder_mass_exact(d, w) * val
    return total


def kl_coefficient(d: int, g: Word) -> Fraction:
    """Exact rational c with int -log(d g^-1 nu / d nu) d nu = c * log(2d-1)."""
    if g.rank != d:
        raise RankMismatchError(f"word rank {g.rank} differs from {d}")
    m = len(g) + 1
    if sphere_size(d, m) > INTEGRAL_SPHERE_LIMIT:
        raise ResourceGuardError(f"cylinder decomposition at depth {m} too large")
    s = 0
    for w in sphere(d, m):
        s += len(multiply(g, w)) - m
    return Fraction(s, 2 * d * (2 * d - 1) ** (m - 1))


def boundary_entropy_coefficient(d: int, mu: Distribution) -> Fraction:
    """Exact rational c with the entropy integral equal to c * log(2d-1).

    sum_g mu(g) int -log(d g^-1 nu / d nu) d nu, all cylinders taken at
    the common depth max|g| + 1.  Uses the exact rational masses of mu
    when it carries them, else the exact binary values of its doubles.
    """
    ctx = mu.context
    if not isinstance(ctx, FreeGroup) or ctx.rank != d:
        raise RankMismatchError(f"distribution context {ctx!r} is not free of rank {d}")
    m = max((len(g) for g in mu.support()), default=0) + 1
    if sphere_size(d, m) > INTEGRAL_SPHERE_LIMIT:
        raise ResourceGuardError(f"cylinder decomposition at depth {m} too large")
    denom = 2 * d * (2 * d - 1) ** (m - 1)
    total = Fraction(0)
    for g, q in mu.exact_items():
        s = 0
        for w in sphere(d, m):
            s += len(multiply(g, w)) - m
        total += q * Fraction(s, denom)
    return total


def boundary_entropy(d: int, mu: Distribution) -> float:
    """Exact Furstenberg entropy of (mu, nu) in nats."""
    return float(boundary_entropy_coefficient(d, mu)) * math.log(2 * d - 1)


@dataclass(frozen=True)
class ProximalityRow:
    trial: int
    step: int
    length: int
    mass: float | None  # None while the walk is shorter than the prefix depth
    shallow: bool


@dataclass(frozen=True)
class ProximalityReport:
    rank: int
    steps: int
    prefix_depth: int
    seed: int
    trials: int
    rows: tuple[ProximalityRow, ...]

    def final_masses(self) -> list[float | None]:
        out: dict[int, float | None] = {}
        for row in self.rows:
            out[row.trial] = row.mass
        return [out[t] for t in sorted(out)]


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
    query.  Trial i draws from a counter-based stream spawned from
    (seed, i)."""
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
    letters = alphabet(d)
    children = np.random.SeedSequence(seed).spawn(trials)
    rows = []
    for t, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        picks = rng.integers(0, 2 * d, size=n)
        stack: list[int] = []
        for j in range(n):
            l = letters[int(picks[j])]
            if stack and stack[-1] == -l:
                stack.pop()
            else:
                stack.append(l)
            length = len(stack)
            if length < k:
                rows.append(ProximalityRow(t, j + 1, length, None, False))
            else:
                mass = float(pushed_prefix_mass_exact(d, length, k))
                rows.append(ProximalityRow(t, j + 1, length, mass, length == k))
    return ProximalityReport(d, n, k, seed, trials, tuple(rows))


__all__ = [
    "Cylinder",
    "HittingMeasure",
    "ProximalityReport",
    "ProximalityRow",
    "boundary_entropy",
    "boundary_entropy_coefficient",
    "cocycle_check",
    "cylinder_mass",
    "cylinder_mass_exact",
    "kl_coefficient",
    "proximality_sim",
    "pushed_prefix_mass_exact",
    "rn_derivative",
    "rn_derivative_exact",
    "rn_exponent",
    "rn_integral",
]

"""Finitely supported probability measures on the free group F_d.

The context of a distribution is a `FreeGroup`, which validates its
support; laws on a quotient come from the quotient rep's own methods.
Probabilities are doubles.  Alongside the float channel a distribution
may carry exact rational masses (srw does), which the boundary calculus
consumes.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DistributionError
from .words import FreeGroup, Word, alphabet

MASS_TOL = 1e-12


class Distribution:
    """Sparse probability measure: context plus element -> mass > 0."""

    __slots__ = ("context", "probs", "exact")

    def __init__(self, context, probs, exact=None):
        clean = {}
        for g, p in probs.items():
            if p < 0:
                raise DistributionError(f"negative mass {p} at {g!r}")
            if p > 0:
                context.validate_element(g)
                clean[g] = float(p)
        total = math.fsum(clean.values())
        if abs(total - 1.0) > MASS_TOL:
            raise DistributionError(
                f"total mass {total!r} differs from 1 by more than {MASS_TOL}"
            )
        self.context = context
        self.probs = clean
        # exact: optional element -> Fraction, same support
        if exact is not None:
            exact = {g: Fraction(q) for g, q in exact.items() if q != 0}
            if set(exact) != set(clean):
                raise DistributionError("exact masses do not match support")
            if sum(exact.values()) != 1:
                raise DistributionError("exact masses do not sum to 1")
        self.exact = exact

    def support(self):
        return list(self.probs)

    def __len__(self):
        return len(self.probs)

    def items(self):
        return self.probs.items()

    def exact_items(self):
        """(element, Fraction) pairs; falls back to the exact binary value
        of each stored double when no rational channel is present."""
        if self.exact is not None:
            return list(self.exact.items())
        return [(g, Fraction(p)) for g, p in self.probs.items()]


def srw(d: int) -> Distribution:
    """Uniform mass 1/(2d) on the 2d length-one words of F_d."""
    if d < 2:
        raise DistributionError(f"rank must be >= 2, got {d}")
    ctx = FreeGroup(d)
    p = 1.0 / (2 * d)
    q = Fraction(1, 2 * d)
    probs = {}
    exact = {}
    for l in alphabet(d):
        w = Word((l,), d)
        probs[w] = p
        exact[w] = q
    return Distribution(ctx, probs, exact=exact)


__all__ = [
    "Distribution",
    "MASS_TOL",
    "srw",
]

"""Growth of F_d and of kernels of quotient maps.

Only closed forms live here: exact ball counts of F_d,
Grigorchuk's critical exponent from a spectral radius, and the
half-growth floor.  The quotient rep counts its kernel's spheres, by one
non-backtracking recurrence for every family (Grigorchuk's cogrowth
formula on Z^d), and charges KERNEL_WORK_BUDGET in its own unit before
it starts (see `gwel.quotients`); `rep.critical_exponent()` states why
each kernel has critical exponent log(2d-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .words import ball_size

KERNEL_WORK_BUDGET = 5 * 10**7


@dataclass(frozen=True)
class GrowthSeries:
    """Exact counts c_0..c_n of a ball or of a kernel's spheres."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ParameterError("counts must be nonnegative")
        if self.counts and self.counts[0] != 1:
            raise ParameterError("c_0 must be 1 (the identity)")

    def rows(self) -> list[tuple[int, int, float | None]]:
        """(n, count, log(count)/n) rows; the ratio is None at n=0 or count=0."""
        out = []
        for n, c in enumerate(self.counts):
            ratio = math.log(c) / n if n > 0 and c > 0 else None
            out.append((n, c, ratio))
        return out

    def last_ratio(self) -> float | None:
        for n, c, r in reversed(self.rows()):
            if r is not None:
                return r
        return None


def ball_counts(d: int, n: int) -> GrowthSeries:
    """Exact |B(k)| for k <= n."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    if n < 0:
        raise ParameterError("radius must be >= 0")
    return GrowthSeries(tuple(ball_size(d, k) for k in range(n + 1)))


def grigorchuk_delta(rho: float, d: int) -> float:
    """Critical-exponent prediction from a spectral radius.

    Inverts rho = (sqrt(q)/d) * (alpha/sqrt(q) + sqrt(q)/alpha) / 2 with
    q = 2d-1, taking the root alpha in [sqrt(q), q], and returns
    log(alpha).  Admissible rho lies in [sqrt(q)/d, 1]: the lower
    endpoint gives alpha = sqrt(q) (half the free growth rate), the
    upper gives alpha = q (full growth, the amenable-quotient endpoint).
    """
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    q = 2 * d - 1
    sq = math.sqrt(q)
    lo = sq / d
    if rho < lo - 1e-12 or rho > 1.0 + 1e-12:
        raise ParameterError(f"rho={rho!r} outside admissible [{lo}, 1]")
    rho = min(max(rho, lo), 1.0)
    s = 2.0 * rho * d / sq
    disc = s * s - 4.0
    if disc < 0.0:
        disc = 0.0  # only by rounding at the lower endpoint
    t = (s + math.sqrt(disc)) / 2.0
    return math.log(t * sq)


def half_growth_bound(d: int) -> float:
    """Lower bound v(F_d)/2 = log(2d-1)/2 satisfied by the critical
    exponent of every nontrivial normal subgroup."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    return 0.5 * math.log(2 * d - 1)


__all__ = [
    "GrowthSeries",
    "KERNEL_WORK_BUDGET",
    "ball_counts",
    "grigorchuk_delta",
    "half_growth_bound",
]

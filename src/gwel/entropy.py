"""Avez entropy and drift for the simple random walk, exact and sampled.

Free-group entropies H(mu^k) come from the radial birth-death chain,
using the fact that mu^k restricted to a sphere is uniform; the chain
steps each row's parity class, a block of rows at a time.  Each row is
the correctly rounded sum of its terms m (L_r - log m) with `math.log`.
A block takes all its window terms with `np.log` at once, and only each
row's core, the terms that hold all but about 2^-21 of the row, again
with `math.log`.  A row is read off the double-double sum of its core
and band when a certified interval around that sum, which covers the
band's `np.log` error, the sum's rounding and the tail of masses below
2^-80, lies inside one rounding cell; any other row is the fsum of all
its `math.log` terms, so the rows are the same floats either way.
Quotient entropies, entropy rates and critical exponents come from
the quotient rep's own exact algorithms (see `gwel.quotients`).  Drift is
Monte Carlo with one counter-based Philox stream per trial, spawned from
the seed; the spawned keys come from one array pass of SeedSequence's
hash, and each walk's length from Lindley's recursion on its down steps,
read 8 at a time from byte tables.
The gap checker assembles, per step count, the entropy difference, the
exact coset-decomposition bound, and kernel ball counts at radius k and
2k; the last two come from the quotient rep's `gap_counts`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ResourceGuardError

BALL_WORK_BUDGET = 2 * 10**7
# radial updates n(n+1)/2 of the free-group entropy series: admits
# --steps 19999, about 3.6 s on a 2-core x86 box
RADIAL_WORK_BUDGET = 2 * 10**8
# radial masses below this are bounded as a block, not summed one by one
_TAIL_MASS = 2.0**-80
# rows of the radial chain stepped and summed together
_BLOCK = 32
# a block whose window is narrower fsums every row: its few logs cost less
# than the certificate's fixed number of array passes
_MIN_WINDOW = 12
# a row's core holds all of its window terms but about this share
_CORE_SHARE = 2.0**-21
# a row's certificate allows this share of its band, this times sigma per
# squared window column, and this per window term (`_block_entropies`)
_LOG_SLACK = 2.0**-40
_SUM_SLACK = 2.0**-105
_TERM_SLACK = 2.0**-1073


@dataclass(frozen=True)
class EntropySeries:
    """H(mu^k) in nats for k = 1..n, with H/k and increment columns.

    The increment at row k is H(mu^k) - H(mu^(k-1)) with H(mu^0) = 0, so
    every row carries one; the last increment is the extrapolation
    estimate of the entropy rate (no curve fitting).
    """

    values: tuple[float, ...]

    def steps(self) -> list[int]:
        return list(range(1, len(self.values) + 1))

    def h_over_n(self) -> list[float]:
        return [h / k for k, h in zip(self.steps(), self.values)]

    def increments(self) -> list[float]:
        prev = 0.0
        out = []
        for h in self.values:
            out.append(h - prev)
            prev = h
        return out


def radial_entropy_exact(d: int, n: int) -> EntropySeries:
    """Exact H(mu^k), k <= n, for the simple random walk on F_d.

    mu^k restricted to a sphere is uniform, so H(mu^k) decomposes as
    entropy of the radial law plus the expected log sphere size.  The
    radial law follows the birth-death chain with up-probability
    (2d-1)/(2d) from r >= 1 and reflection at 0.  Row k has mass only at
    radii of k's parity, so the chain steps that class alone, `_BLOCK`
    rows into one reused matrix, each entry one sum of two products as in
    a scalar update.

    Row k is the correctly rounded sum of the terms m (L_r - log m), with
    `math.log`, over its radial masses m > 0, L_r = log|S(r)|: the float
    that fsum of every term gives.  The terms are the same floats, so the
    float is the same bit for bit however it is reached.  A block's rows
    reach it by a certificate (`_block_entropies`), and any row whose
    certificate fails by that fsum.
    """
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    if n < 0:
        raise ParameterError("steps must be >= 0")
    if n * (n + 1) // 2 > RADIAL_WORK_BUDGET:
        raise ResourceGuardError(
            f"an entropy series of {n} steps needs n(n+1)/2 radial updates, "
            f"over the budget of {RADIAL_WORK_BUDGET}; lower --steps"
        )
    # column c of row k holds the mass at radius 2c + k % 2
    width = n // 2 + 1
    logs = np.zeros(2 * width)
    logs[1 : n + 1] = math.log(2 * d) + np.arange(n) * math.log(2 * d - 1)
    class_logs = logs.reshape(width, 2).T  # L_(2c + j) at [j, c]
    # up and down factors from column c of an even or odd row: the mass
    # at radius 0 moves up with probability 1
    factors = np.empty((2, 2, width))
    factors[:, 0] = (2 * d - 1) / (2 * d)
    factors[:, 1] = 1.0 / (2 * d)
    factors[0, 0, 0] = 1.0
    moves = np.zeros((2, width + 2))  # the products from column c sit at c + 1
    rows = np.zeros((min(_BLOCK, n), width))
    src = np.ones(1)
    values = []
    for k0 in range(0, n, _BLOCK):
        block = rows[: min(_BLOCK, n - k0)]
        for k, dst in enumerate(block, k0):
            m, even = k // 2 + 1, 1 - k % 2
            np.multiply(src[:m], factors[k % 2, :, :m], out=moves[:, 1 : m + 1])
            # row k + 1 at column c: up from column c - even, down from c + 1 - even
            np.add(moves[0, even : m + 1], moves[1, even + 1 : m + 2], out=dst[: m + 1 - even])
            src = dst
        values += _block_entropies(block[:, : (k0 + len(block)) // 2 + 1], k0 + 1, logs, class_logs)
    return EntropySeries(tuple(values))


def _block_entropies(block, k1: int, logs, class_logs) -> list[float]:
    """H(mu^k) for the rows k = k1, k1 + 1, ... of `block`, each row its
    parity class's masses.

    The window is the columns where some row has a mass >= tau =
    `_TAIL_MASS`; a row's masses outside it are its tail.  Every window
    term is taken once with `np.log`.  A row's core runs from the term at
    which its running sum passes `_CORE_SHARE`/2 of the window sum to the
    last term before the rest falls below that share; its other window
    terms are the band.  Only the core terms are taken again, with
    `math.log`.  With sigma = 2^E >= 2 (window sum), each term x splits
    without error into x_hi = (sigma + x) - sigma, a multiple of
    ulp(sigma), and x - x_hi, at most 2^-53 sigma (Rump, Ogita and Oishi,
    SIAM J. Sci. Comput. 31, 2008).  The x_hi sum exactly, the rest to
    within W^2 2^-106 sigma over W window columns, and one two-sum of the
    two sums gives the double-double (H, L).

    The row's true sum lies in [H + L - w, H + L + w + B].  w allows
    `_LOG_SLACK` of the band: its `np.log` terms are within 2^-49 of the
    `math.log` ones, since `np.log` agrees with `math.log` to 2^-50
    relative and L_r - log m adds two nonnegatives.  It allows
    W^2 `_SUM_SLACK` sigma for the sum, and `_TERM_SLACK` per term for
    rounding near the subnormals.  Each tail term is >= 0 and
    x (L - log x) increases for x < e^(L-1), so the tail sums to at most
    B = (tail count) tau (L_k - log tau) (1 + 1e-9), the factor covering
    rounding, with every column of the row outside the window counted.
    When the interval lies strictly inside half the spacing below H on
    either side of H (the smaller spacing, which differs only when H is a
    power of two), the row rounds to H; any other row is the fsum of all
    its terms.
    """
    ks = np.arange(k1, k1 + len(block))
    cols = np.flatnonzero((block >= _TAIL_MASS).any(axis=0))
    c0, c1 = int(cols[0]), int(cols[-1]) + 1
    if c1 - c0 < _MIN_WINDOW:
        return [_row_entropy(row, class_logs[k % 2]) for k, row in zip(ks.tolist(), block)]
    m = block[:, c0:c1]
    lg = class_logs[:, c0:c1][ks % 2]
    least = math.ulp(0.0)  # a zero mass takes the log of this, and its term is 0
    terms = m * (lg - np.log(np.maximum(m, least)))
    run = np.cumsum(terms, axis=1)
    total = run[:, -1:]
    cut = total * (_CORE_SHARE / 2)
    core = (run > cut) & (run - terms < total - cut)
    x = np.where(core, 0.0, terms)
    band = x.sum(axis=1)
    picked = m[core]
    logs_m = np.fromiter(map(math.log, np.maximum(picked, least).tolist()), float, len(picked))
    x[core] = picked * (lg[core] - logs_m)
    sigma = np.ldexp(2.0, np.frexp(total)[1])
    high = (x + sigma) - sigma
    s, r = high.sum(axis=1), (x - high).sum(axis=1)
    h = s + r
    low = r - (h - s)
    size = ks // 2 + 1
    outside = size - np.minimum(size, c1) + np.minimum(size, c0)
    tail = outside * _TAIL_MASS * (logs[ks] - math.log(_TAIL_MASS))
    w = _LOG_SLACK * band + _SUM_SLACK * (c1 - c0) ** 2 * sigma[:, 0] + _TERM_SLACK * (c1 - c0)
    # the sum of three nonnegative floats rounds low by less than 2^-50
    sure = np.abs(low) + w + tail * (1 + 1e-9) < (h - np.nextafter(h, 0.0)) / 2 * (1 - 2.0**-50)
    values = h.tolist()
    for i in np.flatnonzero(~sure).tolist():
        values[i] = _row_entropy(block[i], class_logs[ks[i] % 2])
    return values


def _row_entropy(p, logs) -> float:
    """The fsum of every term of the row p, logs[c] the L_r of its column c."""
    return math.fsum(_entropy_terms(p, np.flatnonzero(p), logs))


def _entropy_terms(p, radii, logs) -> list[float]:
    """m (L_r - log m) for m = p[r], r in radii, with `math.log`: `np.log`
    misses it by an ulp on some inputs."""
    m = p[radii]
    log_m = np.fromiter(map(math.log, m.tolist()), float, len(m))
    return (m * (logs[radii] - log_m)).tolist()


def quotient_entropy_dp(rep, n: int) -> EntropySeries:
    """Exact H(mu'^k), k <= n, for the pushforward of the simple random
    walk to the quotient, by the rep's own algorithm."""
    return EntropySeries(rep.entropy_values(n))


@dataclass(frozen=True)
class DriftEstimate:
    estimate: float
    stderr: float
    trials: int
    steps: int
    seed: int


def exact_drift(d: int) -> float:
    """(d-1)/d, the escape rate of the radial birth-death chain."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    return (d - 1) / d


# SeedSequence's uint32 hash, which NumPy's stream policy (NEP 19) fixes;
# the constants are those of numpy.random.bit_generator
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF
# drift draws held at once: bounds its step buffers at about 5 MB
_DRIFT_CHUNK = 2**20
# random draws trials x steps of drift: about 13 s on a 2-core x86 box
DRIFT_WORK_BUDGET = 2 * 10**9


def _hashmix(h: int, mult: int):
    """SeedSequence's hashmix on uint32 values in uint64 arrays, with its
    running hash constant starting at h."""

    def hashmix(v):
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16

    return hashmix


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _philox_spawn_keys(seed: int, trials: int) -> np.ndarray:
    """Row i is the key of `Philox(SeedSequence(seed).spawn(trials)[i])`:
    SeedSequence's entropy mixing and state generation run once, on the
    spawn keys of all children as arrays.  Needs trials <= 2^32, so that
    each spawn key is one uint32 word; DRIFT_WORK_BUDGET and
    `boundary.PROXIMALITY_ROW_BUDGET` keep it so."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))  # a child pads its entropy to the pool
    entropy = [np.full(trials, w, dtype=np.uint64) for w in words]
    entropy.append(np.arange(trials, dtype=np.uint64))  # the spawn key (i,)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(w))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (hashmix(w) for w in pool)  # generate_state(2, uint64)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)


def _philox_streams(seed: int, trials: int):
    """Yield, trial by trial, a Philox in the state of
    `Philox(SeedSequence(seed).spawn(trials)[i])`: one generator, set to
    each key of `_philox_spawn_keys` in turn with a zero counter and an
    empty buffer, so trial i's draws must be taken before trial i+1's."""
    bitgen = np.random.Philox(0)
    zero = np.zeros(4, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": zero, "key": zero},
        "buffer": zero,
        "buffer_pos": 4,  # empty
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in _philox_spawn_keys(seed, trials):
        state["state"]["key"] = key
        bitgen.state = state
        yield bitgen


def _raw_threshold(p: float) -> np.uint64:
    """t with raw < t exactly when random() < p for the 64-bit raw draw
    behind it: random() is (raw >> 11) 2^-53, and p 2^53 is exact."""
    return np.uint64(math.ceil(p * 2**53) << 11)


# per byte of 8 steps, the first in the top bit and a 1 for a down step:
# its down count, and min over i = 0..8 of floor(i/2) - (downs in its first
# i); built in Python, since numpy calls here fault in about 0.4 MB of
# numpy's code pages at import in every run, drift or not
_BYTE_DOWNS = np.array([bin(b).count("1") for b in range(256)], dtype=np.int32)
_BYTE_LOW = np.array([min(i // 2 - bin(b >> 8 - i).count("1") for i in range(9))
                      for b in range(256)], dtype=np.int32)


def _walk_lengths(d: int, n: int, trials: int, seed: int) -> np.ndarray:
    """|w_n| of every trial of `drift_mc(d, n, trials, seed)`, as int64."""
    streams = _philox_streams(seed, trials)
    threshold = _raw_threshold(1.0 / (2 * d))
    block = max(1, _DRIFT_CHUNK // n)  # trials per pass
    is_down = np.empty((min(block, trials), n), dtype=bool)
    quads = 4 * np.arange((n + 7) // 8, dtype=np.int32)  # floor(k/2) at byte m's start
    r = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        for i, bitgen in zip(range(lo, hi), streams):
            np.less(bitgen.random_raw(n), threshold, out=is_down[i - lo])
        packed = np.packbits(is_down[: hi - lo], axis=1)
        downs = _BYTE_DOWNS[packed]
        c = np.cumsum(downs, axis=1, dtype=np.int32)  # C at each byte's end
        # W at each byte's start, 4m - (c - downs), plus the byte's low
        low = (quads + downs + _BYTE_LOW[packed] - c).min(axis=1)
        r[lo:hi] = n - 2 * c[:, -1].astype(np.int64) - 2 * low
    return r


def drift_mc(d: int, n: int, trials: int, seed: int) -> DriftEstimate:
    """Monte Carlo estimate of |w_n|/n with standard error.

    Trial i steps down where `Generator(Philox(child_i)).random(n)` falls
    below 1/(2d), child_i = SeedSequence(seed).spawn(trials)[i], so the
    result is a pure function of (d, n, trials, seed) under any execution
    schedule.  Each step multiplies by a uniform letter; only the radial
    projection is tracked: |w| goes up with probability (2d-1)/(2d) when
    |w| >= 1 and reflects at 0.

    The trials' streams come from `_philox_streams`, and a raw draw is a
    down step when it is below `_raw_threshold(1/(2d))`.  |w_j| has the
    parity of j, so the reflection |w_(j+1)| = ||w_j| + s_j| for the step
    s_j = +-1 is max(|w_j| + s_j, (j+1) mod 2).  Unrolled (Lindley's recursion), with
    C_k the down steps among the first k and W_k = floor(k/2) - C_k:
    |w_n| = n - 2 C_n - 2 min_{0<=k<=n} W_k.  The steps are packed 8 to a
    byte, and 256-entry tables give each byte's down count and its lowest
    W less the W at its start, so C and the minimum need one cumulative
    sum over n/8 bytes.  The zero bits that pad a short last byte are up
    steps past n, where W only rises: they change neither.
    """
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    if n < 1:
        raise ParameterError("steps must be >= 1")
    if trials < 2:
        raise ParameterError("trials must be >= 2")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if trials * n > DRIFT_WORK_BUDGET:
        raise ResourceGuardError(
            f"drift needs trials x steps random draws, over the budget of "
            f"{DRIFT_WORK_BUDGET}; lower --trials or --steps"
        )
    vals = _walk_lengths(d, n, trials, seed) / n
    estimate = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(trials))
    return DriftEstimate(estimate, stderr, trials, n, seed)


def exact_free_entropy(d: int) -> float:
    """h_RW = (d-1)/d * log(2d-1) for the simple random walk on F_d."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    return (d - 1) / d * math.log(2 * d - 1)


@dataclass(frozen=True)
class GuivarchReport:
    h: float
    drift: float
    v: float
    product: float
    residual: float
    holds: bool


def guivarch_check(h: float, drift: float, v: float, tol: float = 1e-9) -> GuivarchReport:
    """Checks h <= drift * v and reports the equality residual."""
    if h < 0 or drift < 0 or v < 0:
        raise ParameterError("entropy, drift, and growth must be nonnegative")
    product = drift * v
    return GuivarchReport(
        h=h,
        drift=drift,
        v=v,
        product=product,
        residual=abs(h - product),
        holds=h <= product + tol,
    )


def theorem_a_coefficient(d: int) -> Fraction:
    """(d-2)/(2d-2) * (d-1)/d as an exact fraction of h_RW's log factor."""
    if d < 2:
        raise ParameterError(f"rank must be >= 2, got {d}")
    return Fraction(d - 2, 2 * d - 2) * Fraction(d - 1, d)


def theorem_a_bound(d: int) -> float:
    """(d-2)/(2d-2) * h_RW(mu) = (d-2)/(2d-2) * (d-1)/d * log(2d-1)."""
    return float(theorem_a_coefficient(d)) * math.log(2 * d - 1)


class GapRow(NamedTuple):
    k: int
    h_free: float
    h_quotient: float
    gap: float
    gap_over_k: float
    coset_bound: float | None
    log_ball_k: float | None
    log_ball_2k: float | None


@dataclass(frozen=True)
class GapReport:
    rank: int
    quotient: str
    rows: tuple[GapRow, ...]
    h_rw: float
    h_quotient_limit: float
    h_quotient_reason: str
    delta: float
    delta_source: str
    gap_limit: float
    lemma_holds: bool
    warnings: tuple[str, ...] = field(default_factory=tuple)


def entropy_gap_check(d: int, rep, n: int) -> GapReport:
    """Per-step entropy gap H(mu^k) - H(mu'^k) against the exact
    coset-decomposition bound and kernel ball counts.

    For each k <= n the row reports the gap, the exact bound
    sum_{cosets} mu^k(gN) log|gN cap supp mu^k|, and log|N cap B(k)| and
    log|N cap B(2k)|, all three from the rep's `gap_counts` under
    BALL_WORK_BUDGET and None past the radius it affords.  Minimal coset
    representatives give g^{-1}(gN cap B(k)) contained in N cap B(2k);
    the radius-k ball count can fall below the gap at finite k, and such
    rows are flagged as warnings rather than errors.  The limit statement
    compares h_RW - h' against the kernel's critical exponent.
    """
    if n < 1:
        raise ParameterError("steps must be >= 1")
    if rep.rank != d:
        raise ParameterError(f"rep rank {rep.rank} differs from {d}")
    free = radial_entropy_exact(d, n)
    quot = quotient_entropy_dp(rep, n)
    spheres, bounds = rep.gap_counts(n, BALL_WORK_BUDGET)
    ball_logs = [math.log(total) for total in itertools.accumulate(spheres)]
    ball_logs += [None] * (2 * n + 1 - len(ball_logs))
    bounds += [None] * (n - len(bounds))

    rows = []
    warnings: list[str] = []
    for k in range(1, n + 1):
        h_f = free.values[k - 1]
        h_q = quot.values[k - 1]
        gap = h_f - h_q
        lb_k = ball_logs[k]
        lb_2k = ball_logs[2 * k]
        if lb_k is not None and gap > lb_k + 1e-9:
            warnings.append(
                f"k={k}: gap {gap:.6f} exceeds log|N cap B(k)| = {lb_k:.6f}; "
                "the valid ball bound is at radius 2k"
            )
        rows.append(
            GapRow(
                k=k,
                h_free=h_f,
                h_quotient=h_q,
                gap=gap,
                gap_over_k=gap / k,
                coset_bound=bounds[k - 1],
                log_ball_k=lb_k,
                log_ball_2k=lb_2k,
            )
        )

    h_rw = exact_free_entropy(d)
    h_limit, reason = rep.entropy_rate()
    delta, delta_source = rep.critical_exponent()
    gap_limit = h_rw - h_limit
    return GapReport(
        rank=d,
        quotient=rep.describe(),
        rows=tuple(rows),
        h_rw=h_rw,
        h_quotient_limit=h_limit,
        h_quotient_reason=reason,
        delta=delta,
        delta_source=delta_source,
        gap_limit=gap_limit,
        lemma_holds=gap_limit <= delta + 1e-9,
        warnings=tuple(warnings),
    )


__all__ = [
    "DriftEstimate",
    "EntropySeries",
    "GapReport",
    "GapRow",
    "GuivarchReport",
    "drift_mc",
    "entropy_gap_check",
    "exact_drift",
    "exact_free_entropy",
    "guivarch_check",
    "quotient_entropy_dp",
    "radial_entropy_exact",
    "theorem_a_bound",
    "theorem_a_coefficient",
]

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    convolution_coset_bound,
    convolve_power,
    drift_loop,
    radial_entropy_loop,
    radial_laws_loop,
    shannon_entropy,
)

from gwel import entropy
from gwel.entropy import (
    drift_mc,
    entropy_gap_check,
    exact_drift,
    exact_free_entropy,
    guivarch_check,
    quotient_entropy_dp,
    radial_entropy_exact,
    theorem_a_bound,
    theorem_a_coefficient,
)
from gwel.measures import srw
from gwel.quotients import (
    AbelianRep,
    TrivialRep,
    coset_enumerate,
    from_point_permutations,
)
from gwel.words import parse_word, sphere_size

KLEIN_REP = coset_enumerate(2, [parse_word(t, 2) for t in ("aa", "bb", "abab")])


def test_radial_head_values():
    # series rows cover k = 1..n
    series = radial_entropy_exact(2, 3)
    assert series.steps() == [1, 2, 3]
    assert series.values[0] == pytest.approx(math.log(4), abs=1e-15)
    # H(mu^2): mass 1/4 at e, 1/16 at each of 12 length-2 words
    expect = 0.25 * math.log(4) + 0.75 * math.log(16)
    assert series.values[1] == pytest.approx(expect, abs=1e-14)
    incs = series.increments()
    assert incs[0] == pytest.approx(series.values[0], abs=1e-15)
    assert incs[1] == pytest.approx(series.values[1] - series.values[0], abs=1e-15)


RADIAL_CASES = [(2, 0), (2, 1), (2, 2), (2, 1500), (2, 3000), (3, 600), (5, 600), (26, 600)]


@pytest.mark.parametrize("d,n", RADIAL_CASES)
def test_radial_matches_scalar_loop(d, n):
    # same floats bit for bit; by n = 600 at d = 26 some masses are subnormal
    assert radial_entropy_exact(d, n).values == radial_entropy_loop(d, n)


@pytest.mark.parametrize("tail_mass", [2.0**-10, 2.0**-30])
def test_radial_tail_fallback_matches_scalar_loop(tail_mass, monkeypatch):
    # a coarse cut leaves the bound too large on some rows, so the full
    # sum runs there
    monkeypatch.setattr(entropy, "_TAIL_MASS", tail_mass)
    for d, n in ((2, 400), (3, 200), (26, 200)):
        assert radial_entropy_exact(d, n).values == radial_entropy_loop(d, n)


def _count_row_fsums(monkeypatch) -> list:
    """One entry for each row that `radial_entropy_exact` sums by fsum."""
    fsums = []
    row_entropy = entropy._row_entropy

    def counted(p, logs):
        fsums.append(len(p))
        return row_entropy(p, logs)

    monkeypatch.setattr(entropy, "_row_entropy", counted)
    return fsums


def test_radial_rows_without_a_certificate_match_scalar_loop(monkeypatch):
    # a sum allowance wider than any rounding cell certifies no row, so
    # every row is the fsum of all its terms
    monkeypatch.setattr(entropy, "_SUM_SLACK", 1.0)
    fsums = _count_row_fsums(monkeypatch)
    for d, n in ((2, 300), (3, 100), (26, 200)):
        fsums.clear()
        assert radial_entropy_exact(d, n).values == radial_entropy_loop(d, n)
        assert len(fsums) == n


def test_radial_certificate_serves_nearly_every_row(monkeypatch):
    # a certificate that failed everywhere would still give the right
    # rows, each by the fsum of all its terms
    fsums = _count_row_fsums(monkeypatch)
    assert len(radial_entropy_exact(2, 1500).values) == 1500
    assert len(fsums) <= 15


@pytest.mark.parametrize("block", [1, 5])
def test_radial_rows_do_not_depend_on_the_block(block, monkeypatch):
    monkeypatch.setattr(entropy, "_BLOCK", block)
    for d, n in ((2, 200), (26, 100)):
        assert radial_entropy_exact(d, n).values == radial_entropy_loop(d, n)


def test_np_log_agrees_with_math_log_to_2_pow_minus_50():
    # the certificate allows each band term's np.log 2^-40; this pins the
    # agreement 2^10 below that, on every head mass and on doubles drawn
    # evenly over the bit patterns of [2^-1074, 1], subnormals included
    masses = [
        m
        for d in (2, 3, 26)
        for p in radial_laws_loop(d, 600)
        for m in p
        if m >= entropy._TAIL_MASS
    ]
    bits = np.random.default_rng(2026).integers(
        1, 0x3FF0000000000000, 10**5, dtype=np.uint64, endpoint=True
    )
    x = np.concatenate((masses, bits.view(np.float64)))
    want = np.fromiter(map(math.log, x.tolist()), float, len(x))
    assert (np.abs(np.log(x) - want) <= 2.0**-50 * np.abs(want)).all()


def test_radial_terms_round_like_the_scalar_loop():
    # np.log misses math.log by one ulp on some inputs (about 1 in 300
    # uniform draws on AVX-512 builds); each term must match the loop's
    rng = np.random.default_rng(7)
    masses = rng.random(20000)
    logs = rng.random(20000) * 50.0
    expect = [m * (L - math.log(m)) for m, L in zip(masses.tolist(), logs.tolist())]
    assert entropy._entropy_terms(masses, np.arange(20000), logs) == expect


def test_radial_matches_brute_convolution():
    series = radial_entropy_exact(2, 6)
    mu = srw(2)
    for n in range(1, 7):
        brute = shannon_entropy(convolve_power(mu, n))
        assert series.values[n - 1] == pytest.approx(brute, abs=1e-9)
    series3 = radial_entropy_exact(3, 5)
    mu3 = srw(3)
    for n in range(1, 6):
        brute = shannon_entropy(convolve_power(mu3, n))
        assert series3.values[n - 1] == pytest.approx(brute, abs=1e-9)


def test_radial_conditional_uniformity():
    # mu^n restricted to a sphere is uniform: all atoms of a given
    # length carry the same mass
    mu = srw(2)
    for n in range(1, 7):
        power = convolve_power(mu, n)
        by_len: dict = {}
        for g, p in power.items():
            by_len.setdefault(len(g), []).append(p)
        for probs in by_len.values():
            assert max(probs) - min(probs) < 1e-15


def test_entropy_per_step_is_monotone():
    series = radial_entropy_exact(2, 200)
    ratios = series.h_over_n()
    for a, b in zip(ratios, ratios[1:]):
        assert b <= a + 1e-12
    assert ratios[-1] == pytest.approx(exact_free_entropy(2), abs=0.05)


def test_quotient_dp_matches_pushforward_convolution():
    # the word convolution mu^n pushed through the projection
    mu = srw(2)
    series = quotient_entropy_dp(KLEIN_REP, 8)
    for n in range(1, 9):
        law: dict = {}
        for w, p in convolve_power(mu, n).items():
            q = KLEIN_REP.project(w)
            law[q] = law.get(q, 0.0) + p
        brute = math.fsum(-p * math.log(p) for p in law.values())
        assert series.values[n - 1] == pytest.approx(brute, abs=1e-12)


def test_abelian_dp_matches_direct_convolution():
    # independent convolution on the Z^2 lattice
    series = quotient_entropy_dp(AbelianRep(2), 10)
    grid = {(0, 0): 1.0}
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for n in range(1, 11):
        nxt: dict = {}
        for (x, y), p in grid.items():
            for dx, dy in steps:
                key = (x + dx, y + dy)
                nxt[key] = nxt.get(key, 0.0) + p / 4
        grid = nxt
        brute = math.fsum(-p * math.log(p) for p in grid.values())
        assert series.values[n - 1] == pytest.approx(brute, abs=1e-12)


def test_trivial_quotient_entropy_is_zero():
    series = quotient_entropy_dp(TrivialRep(2), 6)
    assert all(v == 0.0 for v in series.values)


def test_exact_constants():
    assert exact_free_entropy(2) == pytest.approx(0.5 * math.log(3), abs=1e-15)
    assert exact_free_entropy(3) == pytest.approx(2 / 3 * math.log(5), abs=1e-15)
    assert exact_drift(2) == 0.5
    assert exact_drift(5) == 0.8


def test_drift_mc_deterministic_and_accurate():
    a = drift_mc(2, 2000, 200, seed=7)
    b = drift_mc(2, 2000, 200, seed=7)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = drift_mc(2, 2000, 200, seed=8)
    assert c.estimate != a.estimate
    assert abs(a.estimate - 0.5) <= 3 * a.stderr
    assert 0 < a.stderr < 0.05


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
def test_spawned_philox_keys_match_seed_sequence(seed):
    keys = entropy._philox_spawn_keys(seed, 70)
    children = np.random.SeedSequence(seed).spawn(70)
    expect = np.array([np.random.Philox(c).state["state"]["key"] for c in children])
    assert keys.dtype == np.uint64 and np.array_equal(keys, expect)


@pytest.mark.parametrize("p", [1 / (2 * d) for d in range(2, 27)] + [0.3, 1 - 2**-53])
def test_raw_threshold_is_exactly_random_below_p(p):
    t = int(entropy._raw_threshold(p))
    for raw in (t - 2**11 - 1, t - 2**11, t - 1, t, t + 2**11 - 1, t + 2**11):
        assert (raw < t) == ((raw >> 11) * 2.0**-53 < p), raw


@pytest.mark.parametrize(
    "d, n, trials, seed",
    [
        (2, 2000, 200, 7),
        (2, 1, 5000, 2**32),
        (3, 2, 2, 0),
        # 2^20 // 1100 = 953 trials per block: the walks span two blocks
        (3, 1100, 1000, 2**64 + 5),
        (5, 333, 4000, 12345),
        (26, 17, 50, 2**130 + 3),
    ],
)
def test_drift_mc_equals_per_trial_loop(d, n, trials, seed):
    est = drift_mc(d, n, trials, seed)
    assert (est.estimate, est.stderr) == drift_loop(d, n, trials, seed)[:2]


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 2000])
def test_drift_lengths_equal_the_step_loop(d, n, monkeypatch):
    # 5 trials per block: 12 trials span two full blocks and a short one;
    # n = 7, 9 and 17 end in a short byte, padded with up steps
    monkeypatch.setattr(entropy, "_DRIFT_CHUNK", 5 * n + 3)
    for seed in (0, 2**64 + 5):
        lengths = entropy._walk_lengths(d, n, 12, seed)
        want = drift_loop(d, n, 12, seed)[2]
        assert lengths.dtype == np.int64 and np.array_equal(lengths, want), seed


def test_byte_tables_match_an_eight_step_scan():
    for byte in range(256):
        bits = [byte >> (7 - i) & 1 for i in range(8)]  # the first step is the top bit
        prefix = [0]
        for down in bits:
            prefix.append(prefix[-1] + down)
        assert entropy._BYTE_DOWNS[byte] == prefix[8], byte
        assert entropy._BYTE_LOW[byte] == min(i // 2 - prefix[i] for i in range(9)), byte


def test_guivarch_check():
    rep = guivarch_check(0.54, 0.5, 1.1)
    assert rep.product == pytest.approx(0.55)
    assert rep.residual == pytest.approx(0.01)
    assert rep.holds
    assert not guivarch_check(0.56, 0.5, 1.1).holds
    with pytest.raises(Exception):
        guivarch_check(-0.1, 0.5, 1.1)


def test_theorem_a_values():
    assert theorem_a_coefficient(2) == 0
    assert theorem_a_bound(2) == 0.0
    assert theorem_a_coefficient(3) == Fraction(1, 6)
    assert theorem_a_bound(3) == pytest.approx(math.log(5) / 6, abs=1e-15)
    # grows roughly like log(2d-1)/2 for large d
    assert theorem_a_bound(10) > theorem_a_bound(5) > theorem_a_bound(3)


def test_gap_check_klein():
    report = entropy_gap_check(2, KLEIN_REP, 3)
    free = radial_entropy_exact(2, 3)
    quot = quotient_entropy_dp(KLEIN_REP, 3)
    for row in report.rows:
        assert row.h_free == pytest.approx(free.values[row.k - 1], abs=1e-12)
        assert row.h_quotient == pytest.approx(quot.values[row.k - 1], abs=1e-12)
        assert row.gap == pytest.approx(row.h_free - row.h_quotient, abs=1e-12)
        assert row.gap <= row.coset_bound + 1e-9  # grouping bound
        if row.log_ball_2k is not None:
            assert row.gap <= row.log_ball_2k + 1e-9
    assert report.lemma_holds
    assert report.delta == pytest.approx(math.log(3), abs=1e-9)
    # the k=2 gap beats log|N cap B(2)| = log 5; flagged, not fatal
    assert any("k=2" in w for w in report.warnings)


def test_gap_check_abelian_and_trivial():
    ab = entropy_gap_check(2, AbelianRep(2), 4)
    assert ab.h_quotient_limit == 0.0
    assert "abelian" in ab.h_quotient_reason
    assert ab.lemma_holds
    tr = entropy_gap_check(2, TrivialRep(2), 4)
    assert tr.gap_limit == pytest.approx(exact_free_entropy(2), abs=1e-12)
    assert tr.lemma_holds


def test_coset_bound_matches_word_convolution():
    rels = [("aa", "bb", "abab"), ("aa", "bb", "ababab"), ("aaaa", "abaB", "aaBB")]
    klein, s3, q8 = (coset_enumerate(2, [parse_word(t, 2) for t in r]) for r in rels)
    assert (klein.size, s3.size, q8.size) == (4, 6, 8)
    s6 = from_point_permutations(2, {1: (1, 2, 3, 4, 5, 0), 2: (1, 0, 2, 3, 4, 5)})
    cases = [(rep, 9) for rep in (klein, s3, q8, s6, TrivialRep(2), AbelianRep(2))]
    cases.append((TrivialRep(3), 6))
    mus = {2: srw(2), 3: srw(3)}  # convolve_power caches the powers of each
    for rep, n in cases:
        spheres, bounds = rep.gap_counts(n, entropy.BALL_WORK_BUDGET)
        assert len(spheres) == 2 * n + 1 and len(bounds) == n
        for k, bound in enumerate(bounds, 1):
            oracle = convolution_coset_bound(mus[rep.rank], rep, k)
            assert bound == pytest.approx(oracle, rel=1e-12, abs=0), (rep, k)


def test_trivial_coset_bound_is_the_log_parity_ball_past_int64():
    # mu' is a point mass and c_k counts the words of length <= k of k's
    # parity; the counts pass 2^63 near k = 40
    spheres, bounds = TrivialRep(2).gap_counts(60, entropy.BALL_WORK_BUDGET)
    assert spheres == [sphere_size(2, r) for r in range(121)]
    assert spheres[-1] > 2**63
    for k, bound in enumerate(bounds, 1):
        assert bound == math.log(sum(spheres[k % 2 : k + 1 : 2]))


def test_gap_check_fills_the_bound_past_the_old_support_limit():
    report = entropy_gap_check(2, KLEIN_REP, 12)
    for row in report.rows:
        assert None not in (row.coset_bound, row.log_ball_k, row.log_ball_2k)
        assert row.gap <= row.coset_bound + 1e-9


@pytest.mark.parametrize(
    "rep, budget", [(KLEIN_REP, 16 * 5), (AbelianRep(2), 4)], ids=["klein", "abelian"]
)
def test_gap_check_budget_cuts_every_counting_column(rep, budget, monkeypatch):
    n = 8
    monkeypatch.setattr(entropy, "BALL_WORK_BUDGET", budget)
    spheres, bounds = rep.gap_counts(n, budget)
    radius = len(spheres) - 1
    assert 1 <= radius < n
    assert spheres == rep.kernel_sphere_counts(2 * n, budget)
    assert len(bounds) == radius
    report = entropy_gap_check(2, rep, n)
    for row in report.rows:
        assert (row.coset_bound is None) == (row.k > radius)
        assert (row.log_ball_k is None) == (row.k > radius)
        assert (row.log_ball_2k is None) == (2 * row.k > radius)
        if row.k <= radius:
            assert row.coset_bound == bounds[row.k - 1]

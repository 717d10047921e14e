import math

import pytest
from oracles import brute_kernel_sphere_counts, in_kernel, power_iteration_exponent

from gwel.errors import ParameterError
from gwel.growth import (
    KERNEL_WORK_BUDGET,
    ball_counts,
    grigorchuk_delta,
    half_growth_bound,
    sphere_counts,
)
from gwel.quotients import (
    AbelianRep,
    TrivialRep,
    coset_enumerate,
    from_point_permutations,
)
from gwel.words import parse_word, sphere

KLEIN = ("aa", "bb", "abab")
S3 = ("aa", "bb", "ababab")


def enumerate_quotient(texts, rank=2):
    return coset_enumerate(rank, [parse_word(t, rank) for t in texts])


def test_ball_and_sphere_series():
    assert ball_counts(2, 3).counts == (1, 5, 17, 53)
    assert sphere_counts(2, 4).counts == (1, 4, 12, 36, 108)
    assert ball_counts(3, 2).counts == (1, 7, 37)
    rows = ball_counts(2, 3).rows()
    assert rows[0] == (0, 1, None)  # log 1 / 0 is reported as missing
    assert rows[3][2] == pytest.approx(math.log(53) / 3)


def test_kernel_counts_transfer_equals_brute():
    reps = [enumerate_quotient(texts) for texts in (KLEIN, S3)]
    reps.append(from_point_permutations(2, {1: (1, 0, 2), 2: (0, 2, 1)}))  # S_3 again
    for rep in reps:
        counts = rep.kernel_sphere_counts(10, KERNEL_WORK_BUDGET)
        assert counts == brute_kernel_sphere_counts(rep, 10)
    # both S_3 reps have the same kernel
    assert reps[1].kernel_sphere_counts(10, KERNEL_WORK_BUDGET) == counts


def test_kernel_counts_against_sphere_scan():
    rep = enumerate_quotient(KLEIN)
    counts = rep.kernel_sphere_counts(7, KERNEL_WORK_BUDGET)
    for n in range(8):
        assert counts[n] == sum(1 for w in sphere(2, n) if in_kernel(w, rep))


def test_trivial_quotient_kernel_is_everything():
    rep = TrivialRep(2)
    assert rep.kernel_sphere_counts(5, KERNEL_WORK_BUDGET) == [1, 4, 12, 36, 108, 324]


def test_abelian_zero_sphere_counts_against_scan():
    ab = AbelianRep(2)
    counts = ab.kernel_sphere_counts(8, 4 * 10**6)
    assert counts[0] == 1
    for n in range(9):
        assert counts[n] == sum(1 for w in sphere(2, n) if in_kernel(w, ab))
    # commutator words first appear at length 4: the 8 rotations and
    # inverses of abAB
    assert counts[1] == counts[2] == counts[3] == 0
    assert counts[4] == 8
    assert brute_kernel_sphere_counts(ab, 8) == counts


def test_abelian_budget_truncates():
    ab = AbelianRep(2)
    counts = ab.kernel_sphere_counts(40, 10**4)
    assert len(counts) < 41
    full = ab.kernel_sphere_counts(len(counts) - 1, 4 * 10**6)
    assert tuple(counts) == tuple(full)


def test_transfer_budget_truncates():
    rep = enumerate_quotient(KLEIN)  # 4 elements x 4 last letters = 16 states
    counts = rep.kernel_sphere_counts(10, work_budget=16 * 5)
    assert counts == brute_kernel_sphere_counts(rep, 5)


def test_critical_exponent_finite_quotients():
    # every finite-index kernel has full growth rate log(2d-1)
    reps = [enumerate_quotient(texts) for texts in (KLEIN, S3)]
    for rep in reps + [TrivialRep(2), TrivialRep(3)]:
        d = rep.rank
        delta = rep.critical_exponent()[0]
        assert delta == pytest.approx(power_iteration_exponent(d, rep), abs=1e-9)
        assert delta == pytest.approx(math.log(2 * d - 1), abs=1e-9)
    # Z^d is amenable: the spectral-radius-1 end of Grigorchuk's formula
    for d in (2, 3):
        assert AbelianRep(d).critical_exponent()[0] == pytest.approx(
            grigorchuk_delta(1.0, d), abs=1e-12
        )


def test_critical_exponent_at_least_half_growth():
    for texts in (KLEIN, S3, ("aaaa", "aaBB", "Baba")):
        rep = enumerate_quotient(texts)
        assert rep.critical_exponent()[0] >= half_growth_bound(2) - 1e-9


def test_grigorchuk_endpoints():
    assert grigorchuk_delta(1.0, 2) == pytest.approx(math.log(3), abs=1e-12)
    assert grigorchuk_delta(math.sqrt(3) / 2, 2) == pytest.approx(
        0.5 * math.log(3), abs=1e-12
    )
    assert grigorchuk_delta(1.0, 3) == pytest.approx(math.log(5), abs=1e-12)
    # monotone in rho on the valid range
    lo = grigorchuk_delta(math.sqrt(3) / 2, 2)
    mid = grigorchuk_delta(0.95, 2)
    hi = grigorchuk_delta(1.0, 2)
    assert lo < mid < hi
    with pytest.raises(ParameterError):
        grigorchuk_delta(0.5, 2)  # below the Kesten floor
    with pytest.raises(ParameterError):
        grigorchuk_delta(1.5, 2)

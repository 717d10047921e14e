import itertools
import math

import numpy as np
import pytest
from oracles import (
    abelian_sphere_states,
    brute_kernel_sphere_counts,
    in_kernel,
    power_iteration_exponent,
    sphere,
    sphere_counts,
)

from gwel.errors import ParameterError
from gwel.growth import (
    KERNEL_WORK_BUDGET,
    ball_counts,
    grigorchuk_delta,
    half_growth_bound,
)
from gwel.quotients import (
    AbelianRep,
    TrivialRep,
    coset_enumerate,
    from_point_permutations,
)
from gwel.words import parse_word

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


@pytest.mark.parametrize("d, n", [(2, 30), (3, 14)])
def test_abelian_closed_form_matches_dict_dp(d, n):
    counts = AbelianRep(d).kernel_sphere_counts(n, KERNEL_WORK_BUDGET)
    assert counts == [kernel for kernel, _ in abelian_sphere_states(AbelianRep(d), n)]


def test_abelian_rank3_counts_match_brute():
    ab = AbelianRep(3)
    counts = ab.kernel_sphere_counts(8, KERNEL_WORK_BUDGET)
    assert counts == brute_kernel_sphere_counts(ab, 8)
    assert counts[4] == 24  # the 24 rotations and inverses of the 3 commutators


def per_element(state):
    """The words of a dict-DP state summed over their last letter, as a
    map from (x+y, x-y) to counts."""
    out = {}
    for ((x, y), _), c in state.items():
        out[x + y, x - y] = out.get((x + y, x - y), 0) + c
    return out


def test_abelian_grid_vectors_match_dict_dp():
    # v_k sits at (2i - k, 2j - k) in the coordinates (x+y, x-y)
    grid = AbelianRep(2)._vectors(10, KERNEL_WORK_BUDGET)
    for k, (v, (_, state)) in enumerate(zip(grid, abelian_sphere_states(AbelianRep(2), 10))):
        assert v.shape == (k + 1, k + 1)
        cells = {(2 * i - k, 2 * j - k): int(c) for (i, j), c in np.ndenumerate(v) if c}
        assert cells == per_element(state)


def test_abelian_grid_crosses_int64_exactly():
    # past radius ~40 the grid holds Python ints; its origin stays equal to
    # the closed form's kernel counts
    counts = AbelianRep(2).kernel_sphere_counts(60, KERNEL_WORK_BUDGET)
    grid = list(AbelianRep(2)._vectors(60, KERNEL_WORK_BUDGET))
    assert len(grid) == 61 and grid[-1].dtype == object and counts[60] > 2**63
    assert [int(v[k // 2, k // 2]) if k % 2 == 0 else 0 for k, v in enumerate(grid)] == counts


def test_abelian_gap_counts_match_dict_dp():
    n = 12
    spheres, bounds = AbelianRep(2).gap_counts(n, KERNEL_WORK_BUDGET)
    states = list(abelian_sphere_states(AbelianRep(2), 2 * n))
    assert spheres == [kernel for kernel, _ in states]
    # c_k: the words of length <= k of k's parity, by endpoint
    reach = [{}, {}]
    for k in range(n + 1):
        for st, c in per_element(states[k][1]).items():
            reach[k % 2][st] = reach[k % 2].get(st, 0) + c
        if k:
            expected = math.fsum(
                math.comb(k, (k + s) // 2) * math.comb(k, (k + t) // 2) / 4**k * math.log(c)
                for (s, t), c in reach[k % 2].items()
            )
            assert bounds[k - 1] == expected, k
    assert len(bounds) == n


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

import math
import random
import time
from fractions import Fraction

import pytest

from gwel.boundary import (
    boundary_entropy,
    boundary_entropy_coefficient,
    cocycle_check,
    cylinder_mass_exact,
    kl_coefficient,
    proximality_sim,
    pushed_prefix_mass_exact,
    rn_derivative_exact,
    rn_exponent,
    rn_integral,
)
from gwel.entropy import exact_free_entropy
from gwel.errors import ParameterError
from gwel.measures import Distribution, srw
from gwel.words import FreeGroup, alphabet, parse_word, reduce_letters, sphere
from oracles import (
    rn_bound,
    sphere_boundary_entropy_coefficient,
    sphere_kl_coefficient,
    sphere_rn_integral,
)


def random_word(rng, rank, length):
    while True:
        letters = [rng.choice(alphabet(rank)) for _ in range(length)]
        w = reduce_letters(letters, rank)
        if len(w) == length:
            return w


def test_cylinder_partition_of_unity():
    for d in (2, 3):
        for m in (1, 2, 3):
            total = sum(cylinder_mass_exact(d, w) for w in sphere(d, m))
            assert total == 1
    assert cylinder_mass_exact(2, parse_word("ab", 2)) == Fraction(1, 12)


def test_cylinder_consistency():
    # a cylinder's mass is the sum over its children one level deeper
    d = 2
    for w in sphere(d, 2):
        children = Fraction(0)
        for l in alphabet(d):
            if l != -w.letters[-1]:
                children += cylinder_mass_exact(d, reduce_letters(w.letters + (l,), d))
        assert children == cylinder_mass_exact(d, w)


def test_cylinder_mass_of_aba():
    assert cylinder_mass_exact(2, parse_word("aba", 2)) == Fraction(1, 36)
    with pytest.raises(ParameterError):
        cylinder_mass_exact(2, parse_word("", 2))


def test_rn_exponent_examples():
    d = 2
    a = parse_word("a", 2)
    assert rn_exponent(d, a, parse_word("ab", 2)) == 1
    assert rn_exponent(d, a, parse_word("Ba", 2)) == -1
    assert rn_exponent(d, a, parse_word("Ab", 2)) == -1
    ab = parse_word("ab", 2)
    assert rn_exponent(d, ab, parse_word("aba", 2)) == 2
    assert rn_exponent(d, ab, parse_word("BAB", 2)) == -2
    with pytest.raises(ParameterError):
        rn_exponent(d, ab, parse_word("ab", 2))  # too shallow


def test_exponent_range_and_prefix_rule():
    # e(g, w) = 2 * (common prefix length) - |g| for deep cylinders
    rng = random.Random(131)
    d = 2
    for _ in range(300):
        g = random_word(rng, d, rng.randrange(1, 5))
        w = random_word(rng, d, len(g) + 1 + rng.randrange(0, 3))
        cp = 0
        while cp < len(g) and g.letters[cp] == w.letters[cp]:
            cp += 1
        assert rn_exponent(d, g, w) == 2 * cp - len(g)


def test_cocycle_identity():
    rng = random.Random(132)
    d = 2
    for _ in range(500):
        g = random_word(rng, d, rng.randrange(0, 4))
        h = random_word(rng, d, rng.randrange(0, 4))
        w = random_word(rng, d, len(g) + len(h) + 1 + rng.randrange(0, 2))
        assert cocycle_check(d, g, h, w)


def test_rn_integral_is_one():
    d = 2
    for n in range(0, 4):
        for g in sphere(d, n):
            assert rn_integral(d, g) == 1
    assert rn_integral(3, parse_word("abC", 3)) == 1


def test_rn_dominated_by_first_charge_bound():
    mu = srw(2)
    d = 2
    for n in range(1, 4):
        for g in sphere(d, n):
            bound = rn_bound(mu, g)
            worst = max(
                rn_derivative_exact(d, g, w) for w in sphere(d, n + 1)
            )
            assert worst <= bound
            assert worst == Fraction(3**n)  # attained along g's own ray


def test_boundary_entropy_matches_walk_entropy():
    for d in (2, 3, 4):
        coeff = boundary_entropy_coefficient(d, srw(d))
        assert coeff == Fraction(d - 1, d)
        assert boundary_entropy(d, srw(d)) == exact_free_entropy(d)


def test_kl_coefficient_per_generator():
    # each generator contributes (2d-2)/(2d) of a log(2d-1)
    for d in (2, 3):
        for g in sphere(d, 1):
            assert kl_coefficient(d, g) == Fraction(2 * d - 2, 2 * d)


def test_class_sums_match_sphere_oracles():
    for d, top in ((2, 5), (3, 3)):
        for n in range(top + 1):
            closed = n - Fraction(1, d) * sum(
                Fraction(1, (2 * d - 1) ** j) for j in range(n)
            )
            for g in sphere(d, n):
                assert rn_integral(d, g) == sphere_rn_integral(d, g) == 1
                assert kl_coefficient(d, g) == sphere_kl_coefficient(d, g) == closed


def test_boundary_coefficient_matches_sphere_oracle():
    for d in (2, 3, 4, 5):
        mu = srw(d)
        coeff = boundary_entropy_coefficient(d, mu)
        assert coeff == sphere_boundary_entropy_coefficient(d, mu)
    # non-uniform, with support of lengths 0 to 3
    masses = {"": Fraction(1, 8), "a": Fraction(1, 4), "B": Fraction(1, 8),
              "ab": Fraction(1, 6), "bA": Fraction(1, 12), "aBA": Fraction(1, 4)}
    exact = {parse_word(t, 2): q for t, q in masses.items()}
    mu = Distribution(FreeGroup(2), {g: float(q) for g, q in exact.items()}, exact=exact)
    coeff = boundary_entropy_coefficient(2, mu)
    assert coeff == sphere_boundary_entropy_coefficient(2, mu)
    assert coeff == sum(q * kl_coefficient(2, g) for g, q in exact.items())


def test_rn_derivative_exact_on_cylinder():
    w = parse_word("ab", 2)
    assert cylinder_mass_exact(2, w) == Fraction(1, 12)
    assert rn_derivative_exact(2, parse_word("a", 2), w) == 3


def test_pushed_prefix_mass_formula():
    assert pushed_prefix_mass_exact(2, 3, 3) == Fraction(3, 4)
    assert pushed_prefix_mass_exact(2, 5, 3) == 1 - Fraction(1, 36)
    # monotone in the walk length
    vals = [pushed_prefix_mass_exact(2, L, 3) for L in range(3, 10)]
    assert vals == sorted(vals)
    with pytest.raises(ParameterError):
        pushed_prefix_mass_exact(2, 2, 3)


@pytest.mark.parametrize("d", [2, 3, 26])
def test_proximality_masses_around_the_float_cut(d):
    k = 3
    # the first L - k at which the exact mass rounds to the float 1.0
    cut = next(e for e in range(100) if float(pushed_prefix_mass_exact(d, k + e, k)) == 1.0)
    start = time.perf_counter()
    report = proximality_sim(d, 40000, k, seed=3)
    assert time.perf_counter() - start < 1.0
    mass_of = {row.length: row.mass for row in report.rows}
    top = max(mass_of)
    assert set(range(k + cut - 3, k + cut + 4)) <= set(mass_of)  # the walk crosses the cut
    for length, mass in mass_of.items():
        if length < k:
            assert mass is None
        elif length <= k + cut + 3 or length == top:
            assert mass == float(pushed_prefix_mass_exact(d, length, k)), length
        else:
            assert mass == 1.0


def test_proximality_sim_deterministic():
    a = proximality_sim(2, 30, 3, seed=5, trials=4)
    b = proximality_sim(2, 30, 3, seed=5, trials=4)
    assert a == b
    assert proximality_sim(2, 30, 3, seed=6, trials=4) != a


def test_proximality_sim_concentrates():
    report = proximality_sim(2, 50, 3, seed=11, trials=20)
    assert len(report.rows) == 50 * 20
    for row in report.rows:
        if row.length < 3:
            assert row.mass is None
        else:
            expect = float(pushed_prefix_mass_exact(2, row.length, 3))
            assert row.mass == pytest.approx(expect, abs=1e-15)
            assert row.shallow == (row.length == 3)
    for m in report.final_masses():
        assert m is not None and m >= 0.999

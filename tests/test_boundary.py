import math
import random
import time
from fractions import Fraction

import pytest

from gwel.boundary import (
    ProximalityRow,
    _cocycle_exponents,
    boundary_entropy,
    boundary_entropy_coefficient,
    cocycle_check,
    kl_coefficient,
    proximality_sim,
    pushed_prefix_mass_exact,
    rn_integral,
)
from gwel.entropy import exact_free_entropy
from gwel.errors import ParameterError, RankMismatchError
from gwel.measures import Distribution, srw
from gwel.words import FreeGroup, Word, alphabet, parse_word, reduce_letters
from oracles import (
    cylinder_mass_exact,
    lcp,
    multiply,
    multiply_cocycle_exponents,
    multiply_rn_exponent,
    prefix_classes,
    proximality_rows,
    rn_bound,
    rn_derivative_exact,
    rn_exponent,
    sphere,
    sphere_boundary_entropy_coefficient,
    sphere_kl_coefficient,
    sphere_rn_integral,
    word_kl_coefficient,
    word_prefix_classes,
    word_rn_integral,
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
    # e(g, w) = |w| - |g^-1 w| by a reduced product, within [-|g|, |g|]
    rng = random.Random(131)
    d = 2
    for _ in range(300):
        g = random_word(rng, d, rng.randrange(1, 5))
        w = random_word(rng, d, len(g) + 1 + rng.randrange(0, 3))
        e = rn_exponent(d, g, w)
        assert e == multiply_rn_exponent(d, g, w)
        assert -len(g) <= e <= len(g)


def relabelled_sphere(d, n):
    """The words of length n whose generators first appear in the order
    a, b, c, ..., each first as a positive letter: one word per orbit of
    the signed permutations of the generators.  These keep lengths,
    reduced products and common prefixes, so pairs (g, w) with g from
    here and every w stand for all pairs."""
    out = []
    for g in sphere(d, n):
        seen = 0
        for l in g.letters:
            if abs(l) > seen:
                if l != seen + 1:
                    break
                seen += 1
        else:
            out.append(g)
    return out


@pytest.mark.parametrize("d", [2, 3])
def test_rn_exponent_matches_the_product_oracle(d):
    # every g with |g| <= 4, every w one or two letters deeper; at d = 3
    # and |g| = 4 only one letter deeper, as S(6) has 18,750 words
    orbits = {2: [1, 1, 2, 5, 14], 3: [1, 1, 2, 6, 23]}[d]
    assert [len(relabelled_sphere(d, n)) for n in range(5)] == orbits
    for n in range(5):
        depths = (n + 1,) if (d, n) == (3, 4) else (n + 1, n + 2)
        ws = [w for m in depths for w in sphere(d, m)]
        for g in relabelled_sphere(d, n):
            got = [rn_exponent(d, g, w) for w in ws]
            assert got == [multiply_rn_exponent(d, g, w) for w in ws], g


def cylinders(rng, d, g, h):
    """Words w of depths |g|+|h|+1 and +2 that follow gh or g for each of
    their prefix lengths and then go on at random.  Following gh past g's
    kept letters takes lcp(gh, w) into h, and when the seam cancels a
    part of g it also makes g^-1 w = inv(g[k:]) w[k:] follow h past its
    inverted part; following all of g makes k = |g|."""
    gh = multiply(g, h).letters
    out = []
    for depth in (len(g) + len(h) + 1, len(g) + len(h) + 2):
        for path in (gh, g.letters):
            for t in range(len(path) + 1):
                w = list(path[:t])
                while len(w) < depth:
                    l = rng.choice(alphabet(d))
                    if not w or l != -w[-1]:
                        w.append(l)
                out.append(Word(tuple(w), d))
    return out


def test_cocycle_exponents_match_the_product_oracle():
    # every (g, h) with |g|, |h| <= 2 at d = 2 (g up to relabelling) and
    # every w of the least depth the check accepts, |g| + |h| + 1; then
    # the same pairs with |g|, |h| <= 3, and 300 seeded pairs at d = 3 and
    # 30 pairs (g, g^-1), each with the cylinders of depth |g| + |h| + 1
    # and + 2 from `cylinders`.  Every branch of the scan is met at both ranks.
    d = 2
    spheres = [list(sphere(d, m)) for m in range(6)]
    hs = [h for n in range(3) for h in spheres[n]]
    for g in (g for n in range(3) for g in relabelled_sphere(d, n)):
        for h in hs:
            ws = spheres[len(g) + len(h) + 1]
            got = [_cocycle_exponents(d, g, h, w) for w in ws]
            assert got == [multiply_cocycle_exponents(d, g, h, w) for w in ws], (g, h)
            assert all(cocycle_check(d, g, h, w) for w in ws)
    rng = random.Random(20261020)
    pairs = [(2, g, h) for n in range(4) for g in relabelled_sphere(2, n)
             for m in range(4) for h in sphere(2, m)]
    drawn = [(3, random_word(rng, 3, rng.randrange(4)), random_word(rng, 3, rng.randrange(4)))
             for _ in range(300)]
    pairs += drawn + [(3, g, g.inverse()) for _, g, _ in drawn[:30]]
    met = set()
    for d, g, h in pairs:
        n, gh = len(g), multiply(g, h)
        j = (n + len(h) - len(gh)) // 2  # letters cancelled at the seam
        for w in cylinders(rng, d, g, h):
            assert _cocycle_exponents(d, g, h, w) == multiply_cocycle_exponents(d, g, h, w), (g, h, w)
            assert cocycle_check(d, g, h, w)
            k = lcp(g.letters, w.letters)
            inverted = n - k  # g^-1 w starts with inv(g[k:])
            branches = {
                "gh cancelled": n > 0 and len(gh) == 0,
                "k = |g|": n > 0 and k == n,
                "lcp(gh, w) in h": lcp(gh.letters, w.letters) > n - j,
                "inverted part ends inside h": 0 < inverted
                and lcp(h.letters, multiply(g.inverse(), w).letters) > inverted,
            }
            met |= {(name, d) for name, hit in branches.items() if hit}
    assert {(name, d) for name in branches for d in (2, 3)} == met


@pytest.mark.parametrize("d", [2, 3])
def test_prefix_classes_match_the_word_oracle(d):
    for n in range(5):
        for g in sphere(d, n):
            classes = [(m, lcp(g.letters, w.letters)) for m, w in word_prefix_classes(d, g)]
            assert list(prefix_classes(d, g)) == classes
            assert rn_integral(d, g) == word_rn_integral(d, g) == 1
            assert kl_coefficient(d, g) == word_kl_coefficient(d, g)
            # one Fraction per class: the sum the closed form replaces
            assert kl_coefficient(d, g) == sum(m * (n - 2 * k) for m, k in prefix_classes(d, g))


def error_of(fn, *args):
    try:
        fn(*args)
    except (ParameterError, ValueError) as e:
        return type(e), str(e)
    return None


def test_boundary_errors_match_the_oracles():
    a2, ab2, aba2 = (parse_word(t, 2) for t in ("a", "ab", "aba"))
    a3, aba3 = parse_word("a", 3), parse_word("aba", 3)
    shallow = (ParameterError, "cylinder depth 2 too shallow for |g| = 2")
    derivative = (RankMismatchError, "rank mismatch in derivative arguments")
    for args, want in [
        ((2, a3, aba2), derivative),  # g
        ((2, a2, aba3), derivative),  # w
        ((3, a2, aba2), derivative),  # d
        ((2, ab2, ab2), shallow),
        ((3, ab2, ab2), derivative),  # the rank check comes first
    ]:
        assert error_of(rn_exponent, *args) == error_of(multiply_rn_exponent, *args) == want
    for args, want in [
        ((2, a2, a3, aba2), (RankMismatchError, "rank mismatch: 2 vs 3")),  # g and h
        ((2, a3, a2, aba2), (RankMismatchError, "rank mismatch: 3 vs 2")),
        ((2, a3, a3, aba2), derivative),  # g and h agree, d and w do not
        ((2, a2, a2, aba3), derivative),  # w
        ((3, a2, a2, aba2), derivative),  # d
        ((2, a2, ab2, aba2), (ParameterError, "cylinder depth 3 too shallow for |g|+|h| = 3")),
        ((2, ab2, a3, aba2), (ParameterError, "cylinder depth 3 too shallow for |g|+|h| = 3")),
    ]:
        assert error_of(cocycle_check, *args) == error_of(multiply_cocycle_exponents, *args) == want
    for fn, oracle in ((rn_integral, word_rn_integral), (kl_coefficient, word_kl_coefficient)):
        want = (RankMismatchError, "word rank 2 differs from 3")
        assert error_of(fn, 3, ab2) == error_of(oracle, 3, ab2) == want


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


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_proximality_rows_match_the_row_oracle(d, k):
    for trials, steps in ((1, 1), (60, 7), (2, 500), (13, 41)):
        reports = {}
        for seed in (0, 7):
            want = proximality_rows(d, steps, k, seed, trials)
            report = reports[seed] = proximality_sim(d, steps, k, seed, trials=trials)
            assert len(report.rows) == len(want)
            assert report.rows == want
            assert all(type(row) is ProximalityRow for row in report.rows)
            assert (report.rows[0], report.rows[-1], report.rows[1:4]) == (want[0], want[-1], want[1:4])
            assert report.final_masses() == [want[t * steps + steps - 1].mass for t in range(trials)]
            again = proximality_sim(d, steps, k, seed, trials=trials)
            assert again == report and hash(again) == hash(report)
        assert reports[0] != reports[7]

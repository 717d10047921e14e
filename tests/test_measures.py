import math
import random
from fractions import Fraction

import pytest

from gwel.errors import DistributionError
from gwel.measures import Distribution, srw
from gwel.words import FreeGroup, alphabet, parse_word, reduce_letters
from oracles import (
    ContextMismatchError,
    NotReachedError,
    convolve,
    convolve_power,
    identity,
    multiply,
    point_mass,
    prob,
    rn_bound,
    shannon_entropy,
)


def brute_convolve(mu, nu):
    # direct double sum, no sparsity tricks
    out = {}
    for g, p in mu.items():
        for h, q in nu.items():
            gh = multiply(g, h)
            out[gh] = out.get(gh, 0.0) + p * q
    return out


def test_srw_shape():
    mu = srw(2)
    assert len(mu) == 4
    for g in mu.support():
        assert len(g) == 1
        assert prob(mu, g) == 0.25
    exact = dict(mu.exact_items())
    assert all(v == Fraction(1, 4) for v in exact.values())


def test_distribution_validation():
    G = FreeGroup(2)
    a = parse_word("a", 2)
    b = parse_word("b", 2)
    with pytest.raises(DistributionError):
        Distribution(G, {a: 0.6, b: 0.5})  # sums to 1.1
    with pytest.raises(DistributionError):
        Distribution(G, {a: -0.2, b: 1.2})
    # zero-probability atoms are dropped
    mu = Distribution(G, {a: 1.0, b: 0.0})
    assert set(mu.support()) == {a}


def test_convolution_matches_brute():
    rng = random.Random(91)
    G = FreeGroup(2)
    for _ in range(20):
        support = set()
        while len(support) < 5:
            letters = [rng.choice(alphabet(2)) for _ in range(rng.randrange(0, 4))]
            support.add(reduce_letters(letters, 2))
        weights = [rng.random() + 0.05 for _ in support]
        total = sum(weights)
        mu = Distribution(G, {g: w / total for g, w in zip(support, weights)})
        left = convolve(mu, srw(2))
        oracle = brute_convolve(mu, srw(2))
        assert set(left.support()) == {g for g, p in oracle.items() if p > 0}
        for g in left.support():
            assert abs(prob(left, g) - oracle[g]) < 1e-12


def test_convolve_power_caching_and_parity():
    mu = srw(2)
    p0 = convolve_power(mu, 0)
    assert set(p0.support()) == {identity(2)}
    p4 = convolve_power(mu, 4)
    assert convolve_power(mu, 4) is p4  # cached
    # srw powers live on words of the same parity
    for g in p4.support():
        assert len(g) % 2 == 0
    assert abs(sum(prob(p4, g) for g in p4.support()) - 1.0) < 1e-12
    # exact channel survives convolution powers
    exact = dict(p4.exact_items())
    assert sum(exact.values()) == 1
    assert exact[identity(2)] == Fraction(28, 256)


def test_identity_return_probability():
    # P(X_2 = e) = 1/(2d): one step out, the inverse step back
    for d in (2, 3, 4):
        p2 = convolve_power(srw(d), 2)
        assert prob(p2, identity(d)) == pytest.approx(1 / (2 * d), abs=1e-15)
    # convolution keeps only the float channel; for d=2 every mass is
    # dyadic, so the fallback rationals are still exact
    p2 = convolve_power(srw(2), 2)
    assert dict(p2.exact_items())[identity(2)] == Fraction(1, 4)


def test_context_mismatch():
    with pytest.raises(ContextMismatchError):
        convolve(srw(2), srw(3))


def test_shannon_entropy_values():
    assert shannon_entropy(srw(2)) == pytest.approx(math.log(4), abs=1e-15)
    assert shannon_entropy(point_mass(FreeGroup(2), identity(2))) == 0.0
    p2 = convolve_power(srw(2), 2)
    # H = -sum p log p with atoms 1/4 at e and 1/16 at 12 words of length 2
    expect = -(0.25 * math.log(0.25) + 12 * (1 / 16) * math.log(1 / 16))
    assert shannon_entropy(p2) == pytest.approx(expect, abs=1e-14)


def test_rn_bound_powers():
    mu = srw(2)
    a = parse_word("a", 2)
    # mu(a) = 1/4 and mu(a^-1) = 1/4 charge at the first power
    assert rn_bound(mu, a) == pytest.approx(4.0)
    ab = parse_word("ab", 2)
    # ab first charged by mu^2 with mass 1/16
    assert rn_bound(mu, ab) == pytest.approx(16.0)
    far = parse_word("abababababababababab", 2)
    with pytest.raises(NotReachedError):
        rn_bound(mu, far, n_max=3)

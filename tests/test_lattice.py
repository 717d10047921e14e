import math
import random

import numpy as np
import pytest

from gwel.errors import ParameterError
from gwel.lattice import (
    FiniteAction,
    FiniteSpace,
    Partition,
    entropy_functional,
    join,
    l2_distance,
    meet,
    monotone_chain_limit,
    random_weights,
)
from oracles import (
    chain_rule_check,
    cond_expect_matrix,
    dense_l2_distance,
    discrete,
    from_blocks,
    invariant_closure,
    solve_stationary,
)


def all_partitions(m):
    # canonical restricted-growth strings enumerate every set partition
    out = []

    def rec(prefix, top):
        if len(prefix) == m:
            out.append(Partition(prefix))
            return
        for b in range(top + 2):
            rec(prefix + [b], max(top, b))

    rec([0], 0)
    return out


def random_partition(rng, m):
    labels = [rng.randrange(0, m) for _ in range(m)]
    return Partition(labels)


def test_partition_canonicalization():
    p = Partition([2, 2, 0, 1])
    q = Partition([0, 0, 1, 2])
    assert p == q
    assert p.blocks() == [[0, 1], [2], [3]]
    assert from_blocks([[3, 1], [0, 2]], 4) == Partition([0, 1, 0, 1])
    assert discrete(3).n_blocks == 3
    assert Partition.trivial(3).n_blocks == 1


def test_refines():
    fine = Partition([0, 1, 2, 3])
    mid = Partition([0, 0, 1, 1])
    assert fine.refines(mid)
    assert not mid.refines(fine)
    assert mid.refines(mid)
    assert Partition([0, 1, 0, 1]).refines(Partition([0, 1, 0, 1]))
    assert not Partition([0, 0, 1, 1]).refines(Partition([0, 1, 1, 0]))


def test_bell_counts():
    assert len(all_partitions(4)) == 15
    assert len(all_partitions(5)) == 52


def test_join_meet_match_exhaustive():
    # join = coarsest common refinement, meet = finest common coarsening
    for m in (3, 4, 5):
        parts = all_partitions(m)
        rng = random.Random(m)
        pairs = [(rng.choice(parts), rng.choice(parts)) for _ in range(40)]
        for p, q in pairs:
            j = join(p, q)
            assert j.refines(p) and j.refines(q)
            for r in parts:
                if r.refines(p) and r.refines(q):
                    assert r.refines(j)
            w = meet(p, q)
            assert p.refines(w) and q.refines(w)
            for r in parts:
                if p.refines(r) and q.refines(r):
                    assert w.refines(r)


def test_cond_expectation_projection_properties():
    rng = random.Random(17)
    for _ in range(40):
        m = rng.randrange(2, 7)
        lam = random_weights(m, rng.randrange(10**6))
        space = FiniteSpace(lam)
        part = random_partition(rng, m)
        E = cond_expect_matrix(space, part)
        lam_v = np.array(lam)
        # idempotent
        assert np.allclose(E @ E, E, atol=1e-12)
        # self-adjoint for the lam inner product
        assert np.allclose(lam_v[:, None] * E, (lam_v[:, None] * E).T, atol=1e-12)
        # averaging: constants fixed, mass preserved
        ones = np.ones(m)
        assert np.allclose(E @ ones, ones, atol=1e-12)
        f = np.array([rng.uniform(-2, 2) for _ in range(m)])
        Ef = E @ f
        assert float(lam_v @ Ef) == pytest.approx(float(lam_v @ f), abs=1e-12)
        # contraction in both weighted norms
        l2 = math.sqrt(float(lam_v @ (f * f)))
        assert math.sqrt(float(lam_v @ (Ef * Ef))) <= l2 + 1e-12
        assert float(lam_v @ np.abs(Ef)) <= float(lam_v @ np.abs(f)) + 1e-12


def test_l2_distance_rank_identity():
    # for nested projections the squared HS distance is the rank gap
    rng = random.Random(18)
    for _ in range(30):
        m = rng.randrange(2, 7)
        space = FiniteSpace(random_weights(m, rng.randrange(10**6)))
        q = random_partition(rng, m)
        p = meet(q, random_partition(rng, m))  # q refines p
        d = l2_distance(space, q, p)
        assert d * d == pytest.approx(q.n_blocks - p.n_blocks, abs=1e-9)


def test_l2_distance_matches_dense_oracle():
    # non-nested pairs, where the distance is not a rank gap
    rng = random.Random(21)
    checked = 0
    while checked < 300:
        m = rng.randrange(3, 30)
        space = FiniteSpace(random_weights(m, rng.randrange(10**6)))
        p, q = random_partition(rng, m), random_partition(rng, m)
        if p.refines(q) or q.refines(p):
            continue
        got = l2_distance(space, p, q)
        assert got == pytest.approx(dense_l2_distance(space, p, q), rel=1e-12, abs=0.0)
        assert l2_distance(space, q, p) == pytest.approx(got, rel=1e-12, abs=0.0)
        assert l2_distance(space, p, p) == 0.0
        checked += 1
    with pytest.raises(ParameterError):
        l2_distance(FiniteSpace.uniform(3), discrete(3), Partition.trivial(4))


def test_action_translate_and_invariance():
    # a = (0 1 2) cycling three points, fixing point 3
    act = FiniteAction([(1, 2, 0, 3)])
    p = Partition([0, 1, 1, 2])
    t = act.translate(p, 1)
    # labels are canonical, so compare blocks as sets: the block of g.x
    # in the image is the g-image of the block of x
    for x in range(4):
        src = {y for y in range(4) if p.block_of[y] == p.block_of[x]}
        gx = act.act(1, x)
        img = {y for y in range(4) if t.block_of[y] == t.block_of[gx]}
        assert img == {act.act(1, y) for y in src}
    assert act.is_invariant(Partition([0, 0, 0, 1]))
    assert not act.is_invariant(p)
    assert act.act_word((1, 1, 1), 0) == 0


def test_invariant_closure_matches_exhaustive():
    rng = random.Random(19)
    act = FiniteAction([(1, 0, 2, 4, 3)])  # (0 1)(3 4)
    parts = all_partitions(5)
    for _ in range(40):
        p = random_partition(rng, 5)
        closure = invariant_closure(act, p)
        assert act.is_invariant(closure)
        assert p.refines(closure)
        # no strictly finer invariant partition lies between
        for r in parts:
            if p.refines(r) and act.is_invariant(r):
                assert closure.refines(r)


def test_entropy_functional_swap_example():
    act = FiniteAction([(1, 0)])
    space = FiniteSpace((2 / 3, 1 / 3))
    val = entropy_functional(act, space, discrete(2))
    assert val == pytest.approx(math.log(2) / 3, abs=1e-14)
    assert entropy_functional(act, space, Partition.trivial(2)) == 0.0
    with pytest.raises(ParameterError):
        # blocks must be permuted by the generators
        entropy_functional(
            FiniteAction([(1, 2, 0)]), FiniteSpace((0.2, 0.3, 0.5)), Partition([0, 0, 1])
        )


def test_entropy_functional_nonnegative_and_monotone():
    rng = random.Random(20)
    act = FiniteAction([(1, 0, 3, 2, 4, 5), (0, 1, 2, 3, 5, 4)])
    for _ in range(60):
        space = FiniteSpace(random_weights(6, rng.randrange(10**6)))
        p = invariant_closure(act, random_partition(rng, 6))
        q = join(p, invariant_closure(act, random_partition(rng, 6)))
        # q refines p, both invariant; finer partitions see more divergence
        fp = entropy_functional(act, space, p)
        fq = entropy_functional(act, space, q)
        assert fp >= 0.0 and fq >= 0.0
        assert fq >= fp - 1e-12


def test_chain_rule_check():
    act = FiniteAction([(1, 0, 3, 2)])  # (0 1)(2 3)
    space = FiniteSpace((0.4, 0.1, 0.3, 0.2))
    p = Partition([0, 0, 1, 1])
    q = discrete(4)
    assert act.is_invariant(p)
    assert chain_rule_check(act, space, p, q, 1)
    assert chain_rule_check(act, space, p, q, (1, 1, -1))
    with pytest.raises(ParameterError):
        chain_rule_check(act, space, q, p, 1)  # not nested this way around


def test_monotone_chain_increasing():
    space = FiniteSpace.uniform(4)
    chain = [
        Partition.trivial(4),
        Partition([0, 0, 1, 1]),
        discrete(4),
    ]
    act = FiniteAction([(1, 0, 3, 2)])
    report = monotone_chain_limit(space, chain, "increasing", action=act)
    assert report.limit == discrete(4)
    assert report.distances[-1] == 0.0
    assert report.distances_non_increasing
    assert report.stabilized_at == 2
    assert report.functional_monotone
    assert report.functionals[-1] == report.functional_limit


def test_monotone_chain_decreasing():
    space = FiniteSpace.uniform(4)
    chain = [
        discrete(4),
        Partition([0, 0, 1, 1]),
        Partition.trivial(4),
        Partition.trivial(4),
    ]
    report = monotone_chain_limit(space, chain, "decreasing")
    assert report.limit == Partition.trivial(4)
    assert report.stabilized_at == 2  # already at the limit one step early
    assert report.distances_non_increasing
    assert report.functionals is None
    with pytest.raises(ParameterError):
        monotone_chain_limit(space, list(reversed(chain)), "decreasing")


def test_solve_stationary_uniform():
    act = FiniteAction([(1, 2, 0, 3), (0, 1, 3, 2)])
    lam = solve_stationary(act)
    assert all(v == pytest.approx(0.25, abs=1e-12) for v in lam)
    # stationarity residual under the step distribution
    for x in range(4):
        avg = sum(w * lam[act.act(l, x)] for l, w in act.step)
        assert avg == pytest.approx(lam[x], abs=1e-12)


def test_random_weights_seeded():
    a = random_weights(5, 42)
    assert a == random_weights(5, 42)
    assert a != random_weights(5, 43)
    assert all(v > 0 for v in a)
    assert math.fsum(a) == pytest.approx(1.0, abs=1e-12)

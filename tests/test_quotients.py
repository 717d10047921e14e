import inspect
import random
import sys
import tracemalloc

import numpy as np
import pytest

from gwel import quotients
from gwel.entropy import entropy_gap_check
from gwel.errors import CosetLimitError, GwelError, ParameterError
from gwel.quotients import (
    QUOTIENT_SIZE_LIMIT,
    AbelianRep,
    TrivialRep,
    _check_relators,
    coset_enumerate,
    from_point_permutations,
)
from gwel.words import alphabet, letter_key, parse_word, reduce_letters
from oracles import (
    all_tuples_low_index_degree,
    binomial_entropy_loop,
    cycle_types,
    dense_perm_entropy,
    hlt_coset_table,
    in_kernel,
    multiply,
    sphere,
    transfer_sphere_counts,
    tuple_closure_rows,
    two_colouring,
)


def rels(*texts, rank=2):
    return [parse_word(t, rank) for t in texts]


def random_word(rng, rank, max_len):
    letters = [rng.choice(alphabet(rank)) for _ in range(rng.randrange(0, max_len + 1))]
    return reduce_letters(letters, rank)


def act(rep, q, w):
    """The element q acted on by the letters of w, one apply_letter each."""
    for l in w.letters:
        q = rep.apply_letter(q, l)
    return q


# finite quotients with known orders
KNOWN_ORDERS = [
    (("aa", "bb", "abab"), 4),        # Z/2 x Z/2
    (("aa", "bb", "ababab"), 6),      # S_3 as dihedral of the triangle
    (("aa", "bb", "abababab"), 8),    # dihedral of the square
    (("aaa", "bb", "abab"), 6),       # S_3 again, rotation-reflection form
    (("aaaa", "aaBB", "Baba"), 8),    # quaternion group
    (("aaaaa", "b"), 5),              # Z/5 with b killed
    (("a", "b"), 1),                  # everything dies
]


def test_enumeration_orders():
    for texts, order in KNOWN_ORDERS:
        rep = coset_enumerate(2, rels(*texts))
        assert rep.size == order, texts


def relator_corpus(seed, count):
    """Seeded presentations of rank 2 and 3: powers of most generators and
    one or two powers of short random words, shuffled.  Some are finite,
    some infinite, some have a relator that reduces to the identity; a
    generator without a power relator leaves rows for the fill step."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.choice((2, 3))
        gens = [g for g in range(1, d + 1) if rng.random() < 0.7]
        relators = [reduce_letters([g] * rng.randint(1, 7), d) for g in gens]
        for _ in range(rng.randint(1, 2)):
            w = [rng.choice(alphabet(d)) for _ in range(rng.randint(2, 5))]
            relators.append(reduce_letters(w * rng.randint(1, 4), d))
        rng.shuffle(relators)
        yield d, relators


def enumeration_outcome(build, d, relators, max_cosets):
    """The table bytes, or the type and message of the error raised."""
    try:
        return build(d, relators, max_cosets)._array().tobytes()
    except GwelError as exc:
        return type(exc), str(exc)


# a triangle group (index 3), PSL(2, Z) = Z/2 * Z/3 and Z/2 * Z/2 * Z/2
CERTIFIED = [
    (2, rels("aaa", "bbb", "ababab")),
    (2, rels("aa", "bbb")),
    (3, rels("aa", "bb", "cc", rank=3)),
]
# Z/30 x Z/3, the dihedral group of order 12 and the (2, 3, 6) triangle group
POWERS = [
    (2, rels("a" * 30, "bbb", "abAB")),
    (2, rels("aa", "bb", "ab" * 6)),
    (2, rels("aa", "bbb", "ab" * 6)),
]


def test_coset_enumeration_matches_the_hlt_oracle():
    # the same definition sequence gives the same table, numbering
    # included, and the same error at every cap
    cases = [(d, r, cap) for d, r in relator_corpus(12, 45) for cap in (1, 7, 300, 3000)]
    cases += [(2, rels(*texts), 10**6) for texts, _ in KNOWN_ORDERS]
    # b (and c) only inside relators: both of their columns are still
    # empty when the fill step reaches a coset, so its order sets the numbering
    cases += [(2, rels("aaa", "abba"), 10**6), (3, rels("bbb", "BCCB", "a", rank=3), 10**6)]
    # infinite quotients refused by a certificate before enumeration, and
    # proper powers whose closed scans are skipped, at every cap
    cases += [(d, relators, cap) for d, relators in CERTIFIED + POWERS for cap in (1, 7, 300, 3000)]
    for d, relators, cap in cases:
        want = enumeration_outcome(hlt_coset_table, d, relators, cap)
        assert enumeration_outcome(coset_enumerate, d, relators, cap) == want, (relators, cap)
    assert {type(o) for o in (enumeration_outcome(coset_enumerate, *c) for c in cases)} == {
        bytes, tuple}


@pytest.mark.parametrize(
    "texts, cap, size",
    [
        (("a" * 100, "b" * 100, "abAB"), 10**6, 10**4),  # Z/100 x Z/100
        (("aaa", "bbb", "ababab"), 10**5, None),  # a triangle group: the cap trips
    ],
)
def test_benchmark_presentations_match_the_hlt_oracle(texts, cap, size):
    want = enumeration_outcome(hlt_coset_table, 2, rels(*texts), cap)
    assert enumeration_outcome(coset_enumerate, 2, rels(*texts), cap) == want
    if size is None:
        message = f"coset limit exceeded (max_cosets={cap}); raise --max-cosets"
        assert want == (CosetLimitError, message)
    else:
        assert len(want) == size * 4 * 8


def certified(d, relators):
    columns = quotients._validate_relators(d, relators)
    return quotients._free_product_of_cyclics(d, columns) or quotients._low_index_degree(d, columns)


def test_certified_presentations_never_complete():
    # a certificate proves the quotient infinite, so no presentation it
    # refuses may be one whose enumeration completes
    outcomes = {"certified": 0, "completed": 0}
    for d, relators in relator_corpus(15, 450):
        try:
            hlt_coset_table(d, relators, 2000)
        except CosetLimitError as exc:
            # the cap, not the abelianization: a certificate has work to do
            if str(exc).startswith("coset limit"):
                outcomes["certified"] += certified(d, relators)
        except ParameterError:
            pass  # a relator reduces to the identity
        else:
            assert not certified(d, relators), relators
            outcomes["completed"] += 1
    assert min(outcomes.values()) >= 100, outcomes


def test_low_index_certificate():
    def degree(*texts):
        return quotients._low_index_degree(2, quotients._validate_relators(2, rels(*texts)))

    # (3, 3, 3): its translation subgroup Z^2 has index 3
    assert degree("aaa", "bbb", "ababab") == 3
    # the infinite dihedral group: its index-2 subgroup is Z
    assert degree("aa", "bb") == 2
    # (2, 3, 7) is perfect and has no subgroup of index 2 to 6, so no
    # certificate is found and its enumeration runs to the cap
    assert degree("aa", "bbb", "ab" * 7) == 0
    assert not certified(2, rels("aa", "bbb", "ab" * 7))
    # finite quotients have no infinite subgroup
    for texts, _ in KNOWN_ORDERS:
        assert degree(*texts) == 0, texts


def test_cycle_type_search_matches_the_all_tuples_oracle():
    # one first permutation per cycle type finds the least degree that
    # every tuple finds, certified or not
    presentations = [(2, rels(*texts)) for texts, _ in KNOWN_ORDERS] + CERTIFIED + POWERS
    presentations += [(2, rels("aaa", "abba")), (3, rels("bbb", "BCCB", "a", rank=3))]
    presentations += [(2, rels("a" * 100, "b" * 100, "abAB")), (2, rels("aa", "bb", "abab"))]
    presentations += [(2, rels("aa", "bb")), (2, rels("aa", "bbb", "ab" * 7))]  # (2, 3, 7)
    presentations += [(2, rels("aa", "bbb", "ab" * 8))]  # (2, 3, 8)
    presentations += list(relator_corpus(12, 45)) + list(relator_corpus(15, 450))
    degrees = []
    for d, relators in presentations:
        try:
            columns = quotients._validate_relators(d, relators)
        except ParameterError:
            continue  # a relator reduces to the identity
        degree = quotients._low_index_degree(d, columns)
        assert degree == all_tuples_low_index_degree(d, columns), relators
        degrees.append(degree)
    assert set(degrees) == {0, 2, 3, 4}, sorted(set(degrees))


def test_free_product_certificate():
    def free_product(*texts, rank=2):
        columns = quotients._validate_relators(rank, rels(*texts, rank=rank))
        return quotients._free_product_of_cyclics(rank, columns)

    assert free_product("aa", "bbb")
    assert free_product("aaaa", "aaaaaa", "bbbbbbbbb")  # Z/2 * Z/9
    assert free_product("aa", "bb", "c", rank=3)
    assert not free_product("aaaa", "aaaaaaa", "bbb")  # a dies: Z/3
    assert not free_product("aa", "bb", "abab")  # the Klein group


def test_builders_bound_the_cap_from_above():
    klein = rels("aa", "bb", "abab")
    assert coset_enumerate(2, klein, QUOTIENT_SIZE_LIMIT).size == 4
    assert from_point_permutations(2, {1: (1, 0)}, QUOTIENT_SIZE_LIMIT).size == 2
    for build, args, name in (
        (coset_enumerate, (2, klein), "max_cosets"),
        (from_point_permutations, (2, {1: (1, 0)}), "max_elements"),
    ):
        with pytest.raises(ParameterError, match=f"^{name} must be <= {QUOTIENT_SIZE_LIMIT}, "):
            build(*args, QUOTIENT_SIZE_LIMIT + 1)
        with pytest.raises(ParameterError, match=rf"^{name} must be >= 1 \(set by --max-cosets\)$"):
            build(*args, 0)


def test_relators_and_conjugates_die():
    rng = random.Random(55)
    relators = rels("aa", "bb", "ababab")
    rep = coset_enumerate(2, relators)
    for r in relators:
        assert rep.project(r) == rep.identity
        for _ in range(20):
            w = random_word(rng, 2, 6)
            assert rep.project(multiply(multiply(w, r), w.inverse())) == rep.identity


def test_projection_is_homomorphism():
    rng = random.Random(56)
    rep = coset_enumerate(2, rels("aa", "bb", "abababab"))
    for _ in range(500):
        u = random_word(rng, 2, 8)
        v = random_word(rng, 2, 8)
        assert rep.project(multiply(u, v)) == act(rep, rep.project(u), v)
        assert act(rep, rep.project(u.inverse()), u) == rep.identity


def test_relabeling_invariance():
    # different relator orders may number cosets differently, but the
    # group is the same: equal size and generator cycle types
    a = coset_enumerate(2, rels("aa", "bb", "ababab"))
    b = coset_enumerate(2, rels("ababab", "bb", "aa"))
    assert a.size == b.size
    assert cycle_types(a) == cycle_types(b)


def test_infinite_groups_hit_the_guard():
    with pytest.raises(CosetLimitError):
        coset_enumerate(2, rels("aa", "bb"), max_cosets=500)  # infinite dihedral
    with pytest.raises(CosetLimitError):
        coset_enumerate(2, rels("abAB"), max_cosets=500)  # Z^2
    with pytest.raises(CosetLimitError):
        coset_enumerate(2, [], max_cosets=500)  # free group itself
    assert CosetLimitError("x").exit_code == 3


def test_bad_relators_rejected():
    with pytest.raises(ParameterError):
        coset_enumerate(2, rels("c", rank=3))  # rank mismatch
    with pytest.raises(ParameterError):
        coset_enumerate(2, [parse_word("aA", 2)])  # reduces to identity


def test_point_permutation_closure():
    # a = (1 2), b = (2 3) generate S_3; elements act regularly
    rep = from_point_permutations(2, {1: (1, 0, 2), 2: (0, 2, 1)})
    assert rep.size == 6
    rng = random.Random(57)
    for _ in range(300):
        u = random_word(rng, 2, 7)
        v = random_word(rng, 2, 7)
        assert rep.project(multiply(u, v)) == act(rep, rep.project(u), v)
        assert act(rep, rep.project(u.inverse()), u) == rep.identity
    # kernel = words acting trivially on the points; normal under conjugation
    w = parse_word("abab", 2)  # (1 2)(2 3)(1 2)(2 3) = 3-cycle squared, not e
    assert not in_kernel(w, rep)
    k = parse_word("aa", 2)  # (1 2)^2 = e on points
    assert in_kernel(k, rep)
    for _ in range(50):
        u = random_word(rng, 2, 6)
        assert in_kernel(multiply(multiply(u, k), u.inverse()), rep)


def test_abelian_and_trivial_reps():
    ab = AbelianRep(2)
    w = parse_word("abAbb", 2)
    assert ab.project(w) == (0, 3)
    assert in_kernel(parse_word("abAB", 2), ab)
    assert not in_kernel(parse_word("ab", 2), ab)
    tr = TrivialRep(2)
    assert tr.project(w) == 0
    assert tr.size == 1


def test_kernel_words_small_spheres():
    # kernel of the Klein quotient: words with even a-count and even
    # b-count; cross-check projection against the parity oracle
    rep = coset_enumerate(2, rels("aa", "bb", "abab"))
    for n in range(0, 5):
        for w in sphere(2, n):
            ea = sum(1 for l in w.letters if abs(l) == 1) % 2
            eb = sum(1 for l in w.letters if abs(l) == 2) % 2
            assert in_kernel(w, rep) == (ea == 0 and eb == 0)


def relabelled_sym_images(rng, m):
    """S_m from an m-cycle and a transposition on shuffled points."""
    sigma = list(range(m))
    rng.shuffle(sigma)
    cycle, swap = list(range(m)), list(range(m))
    for i in range(m):
        cycle[sigma[i]] = sigma[(i + 1) % m]
    swap[sigma[0]], swap[sigma[1]] = sigma[1], sigma[0]
    return {1: tuple(cycle), 2: tuple(swap)}


def cycles_images(m, *cycles):
    """A permutation of m points from disjoint cycles."""
    perm = list(range(m))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
    return tuple(perm)


# (rank, point images): S_3..S_7 under seeded relabellings, an
# intransitive action (Z/2 x Z/3 on 2 + 3 points), a missing generator
# (b acts trivially), rank 3 (S_4 by three transpositions; Z/2 x Z/3
# with b missing), S_4 with a cyclic group on 12 + 4 points and on
# 4 + 13 points: the widest action keyed by a packed uint64 and one
# keyed by its bytes, and A_5 from (1 2 3) and (1 2 3 4 5).  The Cayley
# graphs of S_4, S_6 and the 12 + 4 and 4 + 13 point groups are
# bipartite; S_3, S_5, S_7 (an odd m-cycle is an even permutation) and
# A_5 have odd cycles
CLOSURES = [(2, relabelled_sym_images(random.Random(60 + m), m)) for m in range(3, 8)] + [
    (2, {1: (1, 0, 2, 3, 4), 2: (0, 1, 3, 4, 2)}),
    (2, {2: (1, 2, 3, 4, 0)}),
    (3, {1: (1, 0, 2, 3), 2: (0, 2, 1, 3), 3: (0, 1, 3, 2)}),
    (3, {1: (1, 0, 2, 3, 4), 3: (0, 1, 3, 4, 2)}),
    (2, {1: cycles_images(16, [12, 13, 14, 15], list(range(12))), 2: cycles_images(16, [14, 15])}),
    (2, {1: cycles_images(17, [0, 1, 2, 3], list(range(4, 17))), 2: cycles_images(17, [0, 1])}),
    (2, {1: cycles_images(5, [0, 1, 2]), 2: cycles_images(5, [0, 1, 2, 3, 4])}),
]


def table_rows(rep):
    return [[rep.apply_col(q, col) for col in range(2 * rep.rank)] for q in range(rep.size)]


def all_test_reps():
    reps = [from_point_permutations(d, images) for d, images in CLOSURES]
    reps += [coset_enumerate(2, rels(*texts)) for texts, _ in KNOWN_ORDERS]
    reps += [coset_enumerate(2, rels("aaaaa", "bbbbb", "abAB")), TrivialRep(2), TrivialRep(3)]
    return reps


@pytest.mark.parametrize("d, images", CLOSURES)
def test_closure_matches_tuple_oracle(d, images):
    # same elements in the same order: entropy sums run in index order
    rep = from_point_permutations(d, images)
    assert table_rows(rep) == tuple_closure_rows(d, images)
    ident = tuple(range(len(next(iter(images.values())))))
    assert rep.point_images == tuple(images.get(g, ident) for g in range(1, d + 1))


def test_transfer_counts_match_int_oracle():
    # radius 45 (d = 2) and 30 (d = 3) run past the switch from int64
    # to Python ints at sphere sizes above 2^63 - 1
    biggest = 0
    for rep in all_test_reps():
        n = 45 if rep.rank == 2 else 30
        counts = rep.kernel_sphere_counts(n, 10**9)
        assert counts == transfer_sphere_counts(rep, n), rep
        assert all(type(c) is int for c in counts)
        biggest = max(biggest, counts[-1])
    assert biggest > 2**63


def test_table_columns_are_mutually_inverse_permutations():
    for rep in all_test_reps():
        table = table_rows(rep)
        for col in range(2 * rep.rank):
            image = [row[col] for row in table]
            assert sorted(image) == list(range(rep.size)), (rep, col)
            assert all(table[t][col ^ 1] == q for q, t in enumerate(image)), (rep, col)


def test_relator_check_rejects_a_tampered_table():
    relators = rels("aa", "bb", "abab")
    cols = [[letter_key(l) for l in r.letters] for r in relators]
    table = coset_enumerate(2, relators)._array().copy()
    _check_relators(table, cols)
    table[0, 0] = 0  # a no longer moves the identity coset
    with pytest.raises(ParameterError, match="^relator fails to close on the final table$"):
        _check_relators(table, cols)


def test_closure_guard_trips_past_max_elements():
    images = relabelled_sym_images(random.Random(7), 6)
    assert from_point_permutations(2, images, max_elements=720).size == 720
    msg = "^generated permutation group exceeds 719 elements; raise --max-cosets$"
    with pytest.raises(CosetLimitError, match=msg):
        from_point_permutations(2, images, max_elements=719)


def level_widths(rows):
    """The sizes of the breadth-first levels of a multiplication table."""
    level = {0: 0}
    queue = [0]
    for x in queue:
        for y in rows[x]:
            if y not in level:
                level[y] = level[x] + 1
                queue.append(y)
    return [list(level.values()).count(k) for k in range(max(level.values()) + 1)]


# S_6 (bipartite), the 4 + 13 point group keyed by bytes (bipartite) and A_5
@pytest.mark.parametrize("d, images", [CLOSURES[3], CLOSURES[-2], CLOSURES[-1]])
def test_chunked_closure_numbers_like_the_tuple_oracle(d, images, monkeypatch):
    # levels wider than 5 rows split into chunks of 5: the same numbering,
    # at most 5 rows of 2d products keyed at once, and the guard trips at
    # the chunk that passes the cap
    want = tuple_closure_rows(d, images)
    assert max(level_widths(want)) > 5
    keyed = []

    def row_keys(rows, bits):
        keyed.append(len(rows))
        return row_keys_of_the_module(rows, bits)

    row_keys_of_the_module = quotients._row_keys
    monkeypatch.setattr(quotients, "_CHUNK", 5)
    monkeypatch.setattr(quotients, "_row_keys", row_keys)
    assert table_rows(from_point_permutations(d, images, max_elements=len(want))) == want
    assert max(keyed) <= 5 * 2 * d
    msg = f"^generated permutation group exceeds {len(want) - 1} elements; raise --max-cosets$"
    with pytest.raises(CosetLimitError, match=msg):
        from_point_permutations(d, images, max_elements=len(want) - 1)


def test_parity_classes_match_a_two_colouring():
    # every builder path takes its classes from `_level_parity` over the
    # finished table: the 2-colouring of the Cayley graph or, when the
    # graph has an odd cycle, one class
    s6 = from_point_permutations(*CLOSURES[3])
    paths = [  # (rep, whether its Cayley graph is bipartite)
        (coset_enumerate(2, rels("aa", "bb", "ababab")), True),  # HLT, all relators even
        (coset_enumerate(2, rels("aaa", "bb", "abab")), False),  # HLT, an odd relator
        (s6, True),  # closure, bipartite
        (from_point_permutations(*CLOSURES[-1]), False),  # closure, A_5 has odd cycles
        (quotients.PermRep(s6.rank, table_rows(s6)), True),  # a bare table
        (TrivialRep(2), False),
    ]
    for rep, bipartite in paths:
        want = two_colouring(table_rows(rep))
        assert any(want) == bipartite, rep
        assert quotients._level_parity(rep._array()).tolist() == want, rep
        assert len(rep._gathers()) == 1 + bipartite, rep
        assert rep._gathers() is rep._gathers(), rep  # built once and kept
    for rep in all_test_reps():
        want = two_colouring(table_rows(rep))
        assert quotients._level_parity(rep._array()).tolist() == want, rep
        assert len(rep._gathers()) == 1 + any(want), rep


def dihedral_rep(n):
    """D_n, r^i at index i and s r^i at n + i, columns a, A, b, B: every
    element but the identity has a neighbour of smaller index, and the
    tree of smallest neighbours is about n deep."""
    i = np.arange(n)
    up, down, flip = (i + 1) % n, (i - 1) % n, -i % n
    cols = [np.concatenate(pair) for pair in
            [(up, n + up), (down, n + down), (n + flip, flip), (n + flip, flip)]]
    return quotients.PermRep(2, np.stack(cols, axis=1))


def profile_events(f):
    """The number of calls and returns, Python and C, that f() makes."""
    events, before = [], sys.getprofile()
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        f()
    finally:
        sys.setprofile(before)
    return len(events)


def test_parity_classes_of_a_long_diameter_cost_less_than_a_short_walk():
    # D_20000 has diameter 20000: a search by levels would make a call or
    # more per level, 10^4 rounds of them; pointer doubling makes a few
    # per pass over the elements, 15 passes, so building the gathers makes
    # fewer calls than a 30-step walk (calls, not seconds, so that the
    # bound holds on a loaded machine)
    rep = dihedral_rep(20000)
    build = profile_events(rep._gathers)
    walk = profile_events(lambda: rep.kernel_sphere_counts(30, 10**9))
    assert build < walk, (build, walk)
    odd = quotients._level_parity(rep._array())
    assert odd.tolist() == two_colouring(table_rows(rep))
    assert odd[1] and odd[20000] and not odd[2] and not odd[20001]


def test_a_table_without_smaller_neighbours_walks_one_class():
    # numbered so that element 1 comes before all its neighbours, S_4's
    # bipartite table keeps one class, with the same floats and counts
    s4 = from_point_permutations(2, {1: (1, 2, 3, 0), 2: (1, 0, 2, 3)})
    rows = table_rows(s4)
    last = max(range(1, s4.size), key=lambda q: min(rows[q]))
    swap = {1: last, last: 1}
    relabel = [swap.get(q, q) for q in range(s4.size)]
    bare = quotients.PermRep(2, [[relabel[x] for x in rows[relabel[q]]] for q in range(s4.size)])
    assert min(table_rows(bare)[1]) > 1 and any(two_colouring(table_rows(bare)))
    assert not quotients._level_parity(bare._array()).any()
    assert len(bare._gathers()) == 1
    assert bare.entropy_values(20) == dense_perm_entropy(bare, 20)
    assert bare.kernel_sphere_counts(20, 10**9) == transfer_sphere_counts(bare, 20)


def test_gap_check_derives_the_parity_classes_once(monkeypatch):
    calls = []

    def level_parity(table):
        calls.append(len(table))
        return level_parity_of_the_module(table)

    level_parity_of_the_module = quotients._level_parity
    monkeypatch.setattr(quotients, "_level_parity", level_parity)
    s8 = from_point_permutations(2, {1: (1, 2, 3, 4, 5, 6, 7, 0), 2: (1, 0, 2, 3, 4, 5, 6, 7)})
    assert calls == []  # the builder leaves the rep as it made it
    entropy_gap_check(2, s8, 4)
    assert calls == [40320]


@pytest.mark.parametrize(
    "method", ["entropy_values", "kernel_sphere_counts", "gap_counts", "_vectors", "_laws"]
)
def test_quotient_families_share_one_protocol_signature(method):
    perm, abelian = getattr(quotients.PermRep, method), getattr(AbelianRep, method)
    assert inspect.signature(perm) == inspect.signature(abelian)


def test_perm_entropies_match_the_dense_vector_loop():
    # the law on one parity class holds the dense law's positive entries
    # in index order, so every float is the same
    for rep in all_test_reps():
        assert rep.entropy_values(40) == dense_perm_entropy(rep, 40), rep


def test_abelian_entropies_match_the_append_insert_loop():
    assert AbelianRep(2).entropy_values(400) == binomial_entropy_loop(400)


def test_gap_counts_hold_one_set_of_gathers():
    # one S_8 set of gathers is the walks' largest array: a fresh rep builds
    # it once, keeps it and hands it to all three walks, so no second set
    # coexists
    s8 = from_point_permutations(2, {1: (1, 2, 3, 4, 5, 6, 7, 0), 2: (1, 0, 2, 3, 4, 5, 6, 7)})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spheres, bounds = s8.gap_counts(6, 10**9)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    one = sum(g.nbytes for step in s8._gathers() for g in step)
    assert spheres == [1, 0, 2, 0, 6, 0, 42, 0, 200, 0, 1262, 0, 7794] and len(bounds) == 6
    assert peak <= 2.2 * one, (peak, one)

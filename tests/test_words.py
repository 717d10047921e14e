import random

import pytest

from gwel.errors import ParseError, RankMismatchError
from gwel.words import (
    FreeGroup,
    Word,
    alphabet,
    ball_size,
    cyclically_reduce,
    format_word,
    letter_key,
    parse_word,
    reduce_letters,
    sphere_size,
)
from oracles import identity, multiply, sphere


def random_letters(rng, rank, length):
    letters = [g for g in alphabet(rank)]
    return [rng.choice(letters) for _ in range(length)]


def oracle_reduce(letters):
    # repeatedly delete the first adjacent inverse pair until none remain
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def test_letter_key_order():
    # a < a^-1 < b < b^-1 < c < ...
    assert [letter_key(l) for l in (1, -1, 2, -2, 3, -3)] == [0, 1, 2, 3, 4, 5]
    assert alphabet(2) == [1, -1, 2, -2]


def test_word_rejects_unreduced_and_out_of_range():
    with pytest.raises(ValueError):
        Word((1, -1), 2)
    with pytest.raises(RankMismatchError):
        Word((3,), 2)
    with pytest.raises(RankMismatchError):
        Word((0,), 2)


@pytest.mark.parametrize(
    "letters, rank, error, message",
    [
        ((0,), 2, RankMismatchError, "letter 0 invalid for rank 2"),
        ((1, 3), 2, RankMismatchError, "letter 3 invalid for rank 2"),
        ((-3,), 2, RankMismatchError, "letter -3 invalid for rank 2"),
        ((1.0,), 2, RankMismatchError, "letter 1.0 invalid for rank 2"),
        (("a",), 2, RankMismatchError, "letter 'a' invalid for rank 2"),
        ((1, "a"), 2, RankMismatchError, "letter 'a' invalid for rank 2"),
        ((None,), 2, RankMismatchError, "letter None invalid for rank 2"),
        ((1,), 0, RankMismatchError, "rank must be >= 1, got 0"),
        ((), 0, RankMismatchError, "rank must be >= 1, got 0"),
        ((1, -1, 2), 2, ValueError, "not freely reduced at position 1: 1, -1"),
        ((2, 1, -1), 2, ValueError, "not freely reduced at position 2: 1, -1"),
        # the first unreduced pair is named, and a bad letter anywhere wins
        ((1, -1, 2, -2), 2, ValueError, "not freely reduced at position 1: 1, -1"),
        ((1, -1, 3), 2, RankMismatchError, "letter 3 invalid for rank 2"),
        ((1, -1, 0), 2, RankMismatchError, "letter 0 invalid for rank 2"),
        ((True, -1), 2, ValueError, "not freely reduced at position 1: True, -1"),
    ],
)
def test_word_construction_errors(letters, rank, error, message):
    with pytest.raises(error) as e:
        Word(letters, rank)
    assert type(e.value) is error
    assert str(e.value) == message


def two_pass_error(letters, rank):
    # the validator as first written: every letter, then every adjacent pair
    if rank < 1:
        return RankMismatchError, f"rank must be >= 1, got {rank}"
    for l in letters:
        if not isinstance(l, int) or l == 0 or abs(l) > rank:
            return RankMismatchError, f"letter {l!r} invalid for rank {rank}"
    for i in range(len(letters) - 1):
        if letters[i + 1] == -letters[i]:
            return ValueError, (
                f"not freely reduced at position {i + 1}: {letters[i]}, {letters[i + 1]}"
            )
    return None


def test_word_validation_matches_the_two_pass_check():
    rng = random.Random(74)
    pool = [1, -1, 2, -2, 1, -1, 2, -2, 0, 3, -3, 1.0, True, "a"]
    accepted = 0
    for _ in range(5000):
        letters = tuple(rng.choice(pool) for _ in range(rng.randrange(0, 7)))
        rank = rng.choice((2, 2, 2, 3, 0))
        expected = two_pass_error(letters, rank)
        try:
            w = Word(letters, rank)
        except (RankMismatchError, ValueError) as e:
            assert (type(e), str(e)) == expected, letters
        else:
            assert expected is None and w.letters == letters, letters
            accepted += 1
    assert accepted > 500


def test_word_accepts_bools_as_ints():
    # isinstance(True, int) holds, so True passes as the letter 1
    w = Word((True, 2), 2)
    assert w == Word((1, 2), 2) and str(w) == "ab"
    assert Word(letters=(1, -2), rank=2) == parse_word("aB", 2)


def test_internal_words_equal_validated_words():
    # multiply, inverse, cyclically_reduce and sphere build their results
    # without re-validating; each must equal the validated public Word
    def check(w):
        v = Word(w.letters, w.rank)
        assert w == v and hash(w) == hash(v)
        assert all(w.letters[i + 1] != -w.letters[i] for i in range(len(w) - 1))

    for d in (2, 3):
        ball = [w for n in range(4) for w in sphere(d, n)]
        for a in ball:
            check(a)
            check(a.inverse())
            check(cyclically_reduce(a))
            for b in ball:
                check(multiply(a, b))
    check(identity(2))
    with pytest.raises(ValueError):
        Word((1, -1), 2)
    with pytest.raises(RankMismatchError):
        Word((1, 3), 2)
    with pytest.raises(RankMismatchError):
        reduce_letters((1, 3), 2)
    with pytest.raises(RankMismatchError):
        identity(0)


def test_reduce_matches_oracle():
    rng = random.Random(71)
    for _ in range(300):
        raw = random_letters(rng, 2, rng.randrange(0, 14))
        assert reduce_letters(raw, 2).letters == oracle_reduce(raw)


def test_group_laws():
    rng = random.Random(72)
    e = identity(3)
    for _ in range(200):
        a = reduce_letters(random_letters(rng, 3, rng.randrange(0, 9)), 3)
        b = reduce_letters(random_letters(rng, 3, rng.randrange(0, 9)), 3)
        c = reduce_letters(random_letters(rng, 3, rng.randrange(0, 9)), 3)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, a.inverse()) == e
        assert multiply(a.inverse(), a) == e
        assert multiply(a, e) == a
        assert multiply(e, a) == a
        assert multiply(a, b).inverse() == multiply(b.inverse(), a.inverse())


def test_cancellation_across_seam():
    # abA * aBA: the whole seam collapses, a b (Aa) B A -> a (bB) A -> e
    a = parse_word("abA", 2)
    b = parse_word("aBA", 2)
    assert multiply(a, b) == identity(2)
    # partial cancellation leaves a shorter product
    assert str(multiply(parse_word("ab", 2), parse_word("Ba", 2))) == "aa"


def test_cyclic_reduction():
    w = parse_word("aBbA", 2)  # already freely reduces to identity
    assert w == identity(2)
    v = parse_word("abA", 2)
    assert cyclically_reduce(v) == parse_word("b", 2)
    u = parse_word("Babab", 2)
    assert cyclically_reduce(u) == parse_word("aba", 2)
    assert cyclically_reduce(identity(2)) == identity(2)


def test_sphere_sizes_closed_form():
    assert [sphere_size(2, n) for n in range(5)] == [1, 4, 12, 36, 108]
    assert [ball_size(2, n) for n in range(4)] == [1, 5, 17, 53]
    assert [sphere_size(3, n) for n in range(4)] == [1, 6, 30, 150]
    for d in (2, 3, 4):
        for n in range(1, 7):
            assert ball_size(d, n) == ball_size(d, n - 1) + sphere_size(d, n)


def test_ball_size_matches_sphere_sums():
    for d in range(1, 7):
        for n in range(-2, 401):
            assert ball_size(d, n) == sum(sphere_size(d, k) for k in range(n + 1))


def test_sphere_enumeration():
    for d in (2, 3):
        for n in range(0, 5):
            words = list(sphere(d, n))
            assert len(words) == sphere_size(d, n)
            assert len(set(words)) == len(words)
            for w in words:
                assert len(w) == n
            keys = [w.sort_key() for w in words]
            assert keys == sorted(keys)  # canonical order


def test_parse_format_roundtrip():
    rng = random.Random(73)
    for _ in range(200):
        w = reduce_letters(random_letters(rng, 4, rng.randrange(0, 10)), 4)
        assert parse_word(format_word(w), 4) == w
    assert format_word(identity(2)) == ""
    assert str(parse_word("aaBAc", 3)) == "aaBAc"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_word("ab?c", 2)
    assert e.value.position == 3
    with pytest.raises(ParseError) as e:
        parse_word("abc", 2)
    assert e.value.position == 3
    assert "exceeds rank" in str(e.value)


def test_free_group_wrapper():
    G = FreeGroup(2)
    a = parse_word("ab", 2)
    assert multiply(a, a.inverse()) == identity(G.rank)
    with pytest.raises(RankMismatchError):
        G.validate_element(parse_word("c", 3))

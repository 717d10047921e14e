import random
import sys
import time

import numpy as np
import pytest

from gwel.errors import CosetLimitError, ParseError
from gwel.lattice import FiniteSpace, Partition
from gwel.parsing import (
    _parse_cycle_assignments,
    describe_quotient_spec,
    parse_lattice_config,
    parse_quotient_spec,
)
from gwel.quotients import DEFAULT_MAX_COSETS, AbelianRep, PermRep, TrivialRep, coset_enumerate
from gwel.words import parse_word
from oracles import charwise_cycle_assignments


def test_fixed_specs():
    assert isinstance(parse_quotient_spec("trivial", 2), TrivialRep)
    assert isinstance(parse_quotient_spec(" abelian ", 3), AbelianRep)
    assert parse_quotient_spec("abelian", 3).rank == 3


def test_relator_spec_parses_and_resolves():
    rep = parse_quotient_spec("relators: aa, bb, abab", 2)
    assert isinstance(rep, PermRep)
    assert rep.size == 4
    rels = [parse_word(t, 2) for t in ("aa", "bb", "abab")]
    assert np.array_equal(rep._array(), coset_enumerate(2, rels)._array())
    # Abbba is cyclically reduced to bbb on the way in
    assert parse_quotient_spec("relators: Abbba, a", 2).size == 3


def test_empty_relator_list_is_legal():
    # it parses, and asks for the whole free group; the guard must trip
    with pytest.raises(CosetLimitError):
        parse_quotient_spec("relators:", 2, max_cosets=200)
    with pytest.raises(CosetLimitError):
        parse_quotient_spec("relators:  ", 2, max_cosets=200)


def test_empty_relator_list_trips_the_default_guard_at_once():
    # F_d itself: the default cap of 10^6 cosets trips before any is defined
    start = time.perf_counter()
    with pytest.raises(CosetLimitError, match=f"max_cosets={DEFAULT_MAX_COSETS}"):
        parse_quotient_spec("relators:", 2)
    assert time.perf_counter() - start < 0.5


def test_relator_errors_have_global_positions():
    with pytest.raises(ParseError) as e:
        parse_quotient_spec("relators: aa, b!b", 2)
    assert e.value.position == 16
    with pytest.raises(ParseError) as e:
        parse_quotient_spec("relators: aa, , bb", 2)
    assert "empty relator" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_quotient_spec("relators: aA", 2)
    assert "identity" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_quotient_spec("rellators: aa", 2)
    assert "unknown" in str(e.value).lower()
    assert ParseError("x").exit_code == 2


def test_perm_spec():
    rep = parse_quotient_spec("perm: a=(1 2); b=(1 3)", 2)
    assert isinstance(rep, PermRep)
    assert rep.size == 6  # the two transpositions generate S_3
    assert "images on 3 points" in describe_quotient_spec(rep)
    rep2 = parse_quotient_spec("perm: a=(1 2)(3 4); b=(2 3);", 2)  # trailing ; ok
    assert rep2.size == 8  # dihedral action on the 4-cycle 1-3-2-4


def test_perm_spec_errors():
    cases = [
        ("perm: a=(1 2); a=(1 3)", "twice"),
        ("perm: a=(1 2)(2 3)", "repeated"),
        ("perm: a=(0 1)", "1-based"),
        ("perm: a(1 2)", "'='"),
        ("perm: a=(1 2", ")"),
        ("perm: a=()", "empty cycle"),
        ("perm: a=", "cycle"),
        ("perm: c=(1 2)", "rank"),
        ("perm:", "empty"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as e:
            parse_quotient_spec(text, 2)
        assert needle in str(e.value), text


def test_describe_specs():
    assert describe_quotient_spec(TrivialRep(2)) == "trivial quotient"
    assert describe_quotient_spec(AbelianRep(3)) == "abelianization Z^3"
    rep = parse_quotient_spec("relators: aa, bb, abab", 2)
    assert describe_quotient_spec(rep) == "perm-quotient of size 4"


def test_lattice_config_full():
    text = """
# comment line
points 4
weights 0.1, 0.2, 0.3, 0.4
action a=(1 2); b=(3 4)
direction increasing
chain 1,2,3,4
chain 1,2|3,4
chain 1|2|3,4
"""
    cfg = parse_lattice_config(text)
    assert cfg.space == FiniteSpace((0.1, 0.2, 0.3, 0.4))
    assert cfg.direction == "increasing"
    assert len(cfg.chain) == 3
    assert cfg.chain[1] == Partition([0, 0, 1, 1])
    assert cfg.action is not None and cfg.action.n_gens == 2
    assert cfg.action.act(1, 0) == 1  # a swaps points 1 and 2 (0-based 0,1)


def test_lattice_config_weight_modes():
    base = "points 3\ndirection decreasing\nchain 1,2,3\n"
    uni = parse_lattice_config(base + "weights uniform")
    assert uni.space == FiniteSpace.uniform(3)
    assert parse_lattice_config(base).space == FiniteSpace.uniform(3)
    r1 = parse_lattice_config(base + "weights random:99")
    r2 = parse_lattice_config(base + "weights random:99")
    assert r1.space == r2.space
    assert r1.space != parse_lattice_config(base + "weights random:100").space


def test_lattice_config_errors():
    cases = [
        ("direction increasing\nchain 1,2", "points"),
        ("points 3\nchain 1,2,3", "direction"),
        ("points 3\ndirection increasing", "chain"),
        ("points 3\ndirection sideways\nchain 1,2,3", "direction"),
        ("points 3\ndirection increasing\nchain 1,2", "not covered"),
        ("points 3\ndirection increasing\nchain 1,1,2", "two blocks"),
        ("points 3\ndirection increasing\nchain 1,2,5", "outside"),
        ("points 3\nweights 0.5, 0.5\ndirection increasing\nchain 1,2,3", "3 points"),
        ("points 3\nmystery 7\ndirection increasing\nchain 1,2,3", "unknown"),
        ("points 3\ndirection increasing\nchain 1,2,3\naction b=(1 2)", "consecutive"),
        ("points 3\ndirection increasing\nchain 1,2,3\naction a=(1 5)", "points"),
    ]
    for text, needle in cases:
        with pytest.raises(ParseError) as e:
            parse_lattice_config(text)
        assert needle in str(e.value), text


def _outcome(read, text, offset, rank):
    try:
        return read(text, offset, rank)
    except ParseError as e:
        return e.raw, e.position


# letters in and out of rank, an inverse, every cycle-notation symbol,
# space, tab and one junk character
CYCLE_ALPHABET = "abcdzAB0123456789=(); \t!"


def _cycle_text(rng):
    """Random assignments, as often wrong as right, with up to two
    characters inserted, deleted or replaced; or random characters, alone
    or after a valid assignment."""
    if rng.random() < 0.25:
        head = rng.choice(("", "a=(1 2); "))
        return head + "".join(rng.choices(CYCLE_ALPHABET, k=rng.randrange(12)))
    text = list(";".join(
        f"{g} =" + "".join(
            f"({' '.join(map(str, rng.sample(range(13), rng.choice((0, 1, 2, 2, 3)))))})"
            for _ in range(rng.choice((0, 1, 1, 2, 2)))
        )
        for g in rng.choice(("a", "ab", "ba", "abc", "aa", "az"))
    ) + rng.choice(("", ";", " ; ")))
    for _ in range(rng.randrange(3)):
        i = rng.randrange(len(text) + 1)
        text[i : i + rng.randrange(2)] = rng.choice(CYCLE_ALPHABET) * rng.randrange(2)
    return "".join(text)


def test_token_reader_matches_the_charwise_scan():
    rng = random.Random(20260419)
    for _ in range(12000):
        text = _cycle_text(rng)
        offset, rank = rng.choice((0, 5, 17)), rng.choice((1, 2, 3, 26))
        expect = _outcome(charwise_cycle_assignments, text, offset, rank)
        assert _outcome(_parse_cycle_assignments, text, offset, rank) == expect, text


def test_cycle_points_read_ascii_digits_only():
    with pytest.raises(ParseError) as e:
        parse_quotient_spec("perm: a=(1 \u0661)", 2)  # an Arabic-Indic one
    assert (e.value.raw, e.value.position) == ("malformed cycle: unexpected '\u0661'", 12)
    with pytest.raises(ParseError) as e:
        parse_quotient_spec("perm: a=(1 " + "9" * 5000 + ")", 2)
    assert (e.value.raw, e.value.position) == ("cycle point too long: 5000 digits", 12)


# Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits: a bad integer
# literal is still a ParseError there, not an AttributeError
NO_DIGIT_LIMIT = {
    "points abc": "line 1: points must be a positive integer",
    "chain 1,x": "line 3: bad point 'x' in chain partition",
    "weights random:x": "line 4: random weights need an integer seed",
}


@pytest.mark.parametrize("line", list(NO_DIGIT_LIMIT))
def test_bad_integer_literal_without_a_digit_limit_is_a_parse_error(line, monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    lines = {"points": "points 2", "direction": "direction increasing", "chain": "chain 1,2"}
    lines[line.split()[0]] = line
    with pytest.raises(ParseError) as e:
        parse_lattice_config("\n".join(lines.values()) + "\n")
    assert str(e.value) == NO_DIGIT_LIMIT[line]

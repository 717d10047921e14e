"""Exact arithmetic in the free group F_d: freely reduced words.

Letters are nonzero signed integers: +i is the i-th generator (1-based),
-i its inverse.  A word literal spells letters as ascii characters,
lowercase for generators and uppercase for inverses; the empty string is
the identity.  "abAB" is a b a^-1 b^-1.

The canonical letter order interleaves each generator with its inverse,
a < a^-1 < b < b^-1 < ..., which fixes the order of `alphabet`, the
columns of quotient tables and the order `Word.sort_key` gives words.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParameterError, ParseError, RankMismatchError

LETTERS = "abcdefghijklmnopqrstuvwxyz"  # generator names; uppercase spells inverses


def letter_key(letter: int) -> int:
    """Position of a letter in the canonical order a < a^-1 < b < b^-1 < ..."""
    return ((abs(letter) - 1) << 1) | (letter < 0)


def alphabet(rank: int) -> list[int]:
    """All 2d letters in canonical order."""
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return out


def _check_letters(letters, rank):
    if rank < 1:
        raise RankMismatchError(f"rank must be >= 1, got {rank}")
    for l in letters:
        if not isinstance(l, int) or l == 0 or abs(l) > rank:
            raise RankMismatchError(f"letter {l!r} invalid for rank {rank}")


def _reject(letters, rank):
    """Raise the error of letters that fail Word's one-pass check: an
    invalid letter anywhere before the first unreduced pair."""
    _check_letters(letters, rank)
    i = next(i for i in range(1, len(letters)) if letters[i] == -letters[i - 1])
    raise ValueError(f"not freely reduced at position {i}: {letters[i - 1]}, {letters[i]}")


@dataclass(frozen=True, slots=True, init=False)
class Word:
    """A freely reduced word.  Immutable, hashable, usable as a dict key."""

    letters: tuple[int, ...]
    rank: int

    def __init__(self, letters: tuple[int, ...], rank: int):
        _set_letters(self, letters)
        _set_rank(self, rank)
        self.__post_init__()

    def __post_init__(self):
        # one pass checks each letter and its seam with the one before
        letters, rank = self.letters, self.rank
        if rank < 1:
            raise RankMismatchError(f"rank must be >= 1, got {rank}")
        prev = 0
        for l in letters:
            if not isinstance(l, int) or not 0 < abs(l) <= rank or l == -prev:
                _reject(letters, rank)
            prev = l

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_word(self)

    def inverse(self) -> "Word":
        return _word(tuple(-l for l in reversed(self.letters)), self.rank)

    def sort_key(self):
        """Length-then-lexicographic key in the canonical letter order."""
        return (len(self.letters), tuple(letter_key(l) for l in self.letters))


_set_letters, _set_rank = Word.letters.__set__, Word.rank.__set__


def _word(letters: tuple[int, ...], rank: int) -> Word:
    """A Word built without __post_init__, for letters known valid and reduced."""
    w = object.__new__(Word)
    _set_letters(w, letters)
    _set_rank(w, rank)
    return w


def reduce_letters(letters, rank: int) -> Word:
    """Freely reduce a letter sequence by a single stack scan."""
    _check_letters(letters, rank)
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return _word(tuple(stack), rank)


def cyclically_reduce(w: Word) -> Word:
    """Strip matching first/last letters until the word is cyclically reduced."""
    letters = w.letters
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return _word(letters, w.rank)


def sphere_size(d: int, n: int) -> int:
    """|S(n)|, exact: 1 for n=0, else 2d(2d-1)^(n-1)."""
    if n < 0:
        raise ValueError("radius must be >= 0")
    if n == 0:
        return 1
    return 2 * d * (2 * d - 1) ** (n - 1)


def ball_size(d: int, n: int) -> int:
    """|B(n)|, exact: 0 for n < 0, 2n+1 for d = 1, else (d(2d-1)^n - 1)/(d-1)."""
    if n < 0:
        return 0
    if d == 1:
        return 2 * n + 1
    return (d * (2 * d - 1) ** n - 1) // (d - 1)


def parse_word(text: str, rank: int) -> Word:
    """Parse a word literal; the result is reduced.

    Errors carry the 1-based position of the offending character.
    """
    letters = []
    for i, ch in enumerate(text):
        if ch in LETTERS:
            idx = LETTERS.index(ch) + 1
            sign = 1
        elif ch.lower() in LETTERS:
            idx = LETTERS.index(ch.lower()) + 1
            sign = -1
        else:
            raise ParseError(f"unknown letter {ch!r}", position=i + 1)
        if idx > rank:
            raise ParseError(f"letter {ch!r} exceeds rank {rank}", position=i + 1)
        letters.append(sign * idx)
    return reduce_letters(letters, rank)


def format_word(w: Word) -> str:
    out = []
    for l in w.letters:
        if abs(l) > len(LETTERS):
            raise ParameterError(
                f"generator {abs(l)} has no name: words use the 26 letters a-z (--rank <= 26)"
            )
        ch = LETTERS[abs(l) - 1]
        out.append(ch if l > 0 else ch.upper())
    return "".join(out)


@dataclass(frozen=True, slots=True)
class FreeGroup:
    """Context of a distribution on F_d: its rank and the check that an
    element is a word of that rank."""

    rank: int

    def validate_element(self, a) -> None:
        if not isinstance(a, Word) or a.rank != self.rank:
            raise RankMismatchError(f"{a!r} is not a rank-{self.rank} word")

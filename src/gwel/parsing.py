"""Text formats: quotient specs and the lattice experiment config.

Quotient spec grammar (one line):

    trivial
    abelian
    relators: aa, bb, abAB
    perm: a=(1 2)(3 4); b=(1 3)

Cycle notation is read as tokens, each a run of ASCII digits or one
non-space character.  Every number (cycle points, `points`, chain points,
the `random:` seed) is ASCII digits, at most as many as int() converts.
Parse errors carry 1-based character positions into the given text.
The lattice config is flat key-value text, one directive per line:
points, weights (uniform | random:SEED | comma list), action (cycle
notation as above), direction (increasing | decreasing), and one
`chain` line per partition (blocks split by '|', points by ',',
1-based).  '#' starts a comment.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import ParameterError, ParseError, ResourceGuardError
from .lattice import FiniteAction, FiniteSpace, Partition, random_weights
from .quotients import (
    DEFAULT_MAX_COSETS,
    AbelianRep,
    PermRep,
    QuotientRep,
    TrivialRep,
    _check_cap,
    coset_enumerate,
    from_point_permutations,
)
from .reports import _digit_limit
from .words import LETTERS, Word, cyclically_reduce, parse_word


def _parse_relator_body(body: str, offset: int, rank: int) -> list[Word]:
    if body.strip() == "":
        return []
    relators = []
    at = 0
    for chunk in body.split(","):
        lead = len(chunk) - len(chunk.lstrip())
        start = offset + at + lead  # 0-based into the full text
        stripped = chunk.strip()
        if stripped == "":
            raise ParseError("empty relator", position=start + 1)
        try:
            w = parse_word(stripped, rank)
        except ParseError as e:
            raise ParseError(e.raw, position=start + e.position) from None
        w = cyclically_reduce(w)
        if len(w) == 0:
            raise ParseError(
                "relator reduces to the identity", position=start + 1
            )
        relators.append(w)
        at += len(chunk) + 1
    return relators


def _integer(token: str) -> int | None:
    """`token`'s value if it is ASCII digits that int() converts, else None."""
    try:
        return int(token) if token.isascii() and token.isdigit() else None
    except ValueError:  # more digits than the interpreter's limit, `_digit_limit`
        return None


def _quote(token: str) -> str:
    """`token` quoted for a one-line message: whole up to 20 characters,
    else its first 20 and its length."""
    if len(token) <= 20:
        return repr(token)
    return f"{token[:20]!r}... ({len(token)} characters)"


def _number(n: int) -> str:
    """`n` for a one-line message: whole up to 20 digits, else its first
    20 digits and its digit count."""
    digits = str(n)
    if len(digits) <= 20:
        return digits
    return f"{digits[:20]}... ({len(digits)} digits)"


def _too_long(what: str, token: str) -> str | None:
    """The message for a `what` of more ASCII digits than int() converts;
    None for any other token."""
    limit = _digit_limit()  # 0: no limit
    if not (token.isascii() and token.isdigit() and 0 < limit < len(token)):
        return None
    return f"{what} has {len(token)} digits, more than int() converts ({limit})"


_TOKEN = re.compile(r"\s*([0-9]+|\S)")  # a run of ASCII digits or one other character


def _parse_cycle_assignments(
    text: str, offset: int, max_letters: int
) -> dict[int, list[list[int]]]:
    """Parse `a=(1 2)(3 4); b=(1 3)` starting at `offset` (0-based) in
    the full input; returns generator index -> cycles of 1-based points."""
    end = offset + len(text) + 1  # the end of the text closes the last assignment
    tokens = ((m[1], offset + m.start(1) + 1) for m in _TOKEN.finditer(text))
    tokens = itertools.chain(tokens, [(";", end)])
    out: dict[int, list[list[int]]] = {}
    start = offset + 1  # where the current assignment begins
    for tok, pos in tokens:
        if tok == ";":
            if pos == end and out:
                break  # a trailing semicolon
            raise ParseError("empty generator assignment", position=start)
        ch = tok[0]
        if ch not in LETTERS:
            raise ParseError(f"unknown letter {ch!r}", position=pos)
        gen = LETTERS.index(ch) + 1
        if gen > max_letters:
            raise ParseError(f"letter {ch!r} exceeds rank {max_letters}", position=pos)
        if gen in out:
            raise ParseError(f"generator {ch!r} assigned twice", position=pos)
        tok, pos = next(tokens)
        if tok != "=":
            raise ParseError(f"expected '=' after generator {ch!r}", position=pos)
        cycles: list[list[int]] = []
        seen_points: set[int] = set()
        tok, pos = next(tokens)
        while tok != ";":
            if tok != "(":
                raise ParseError(f"malformed cycle: expected '(' not {tok[0]!r}", position=pos)
            cycle: list[int] = []
            tok, pos = next(tokens)
            while tok != ")":
                if tok == ";":
                    raise ParseError("malformed cycle: missing ')'", position=pos)
                if not "0" <= tok[0] <= "9":
                    raise ParseError(f"malformed cycle: unexpected {tok!r}", position=pos)
                point = _integer(tok)
                if point is None:
                    raise ParseError(f"cycle point too long: {len(tok)} digits", position=pos)
                if point < 1:
                    raise ParseError("cycle points are 1-based", position=pos)
                if point in seen_points:
                    raise ParseError(f"point {_number(point)} repeated in cycles", position=pos)
                seen_points.add(point)
                cycle.append(point)
                tok, pos = next(tokens)
            if not cycle:
                raise ParseError("empty cycle", position=pos)
            cycles.append(cycle)
            tok, pos = next(tokens)
        if not cycles:
            raise ParseError(f"generator {ch!r} has no cycles", position=pos)
        out[gen] = cycles
        start = pos + 1
    return out


def _cycles_to_perm(cycles: list[list[int]], m: int) -> tuple[int, ...]:
    perm = list(range(m))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def parse_quotient_spec(
    text: str, rank: int, max_cosets: int = DEFAULT_MAX_COSETS
) -> QuotientRep:
    """Parse a quotient spec into its rep; relator specs are enumerated
    into cosets under `max_cosets`, and a perm spec is charged rank x its
    largest point against `max_cosets` before any image is built."""
    if rank < 2:
        raise ParameterError(f"rank must be >= 2, got {rank}")
    lead = len(text) - len(text.lstrip())
    body = text.strip()
    if body == "trivial":
        return TrivialRep(rank)
    if body == "abelian":
        return AbelianRep(rank)
    if body.startswith("relators:"):
        colon = text.index("relators:") + len("relators:")
        relators = _parse_relator_body(text[colon:], colon, rank)
        return coset_enumerate(rank, relators, max_cosets=max_cosets)
    if body.startswith("perm:"):
        colon = text.index("perm:") + len("perm:")
        cycles = _parse_cycle_assignments(text[colon:], colon, rank)
        m = max(p for cyc in cycles.values() for cycle in cyc for p in cycle)
        # every generator image, and every closure row, is m points wide
        _check_cap("max_elements", max_cosets)
        if rank * m > max_cosets:
            raise ResourceGuardError(
                f"perm: point {m} sets {rank} generator images of {m} points, "
                f"{rank * m} entries over max_cosets={max_cosets}; raise --max-cosets"
            )
        images = {
            gen: _cycles_to_perm(cyc, m) for gen, cyc in cycles.items()
        }
        return from_point_permutations(rank, images, max_elements=max_cosets)
    head = body.split(":", 1)[0].split()[0] if body else ""
    raise ParseError(
        f"unknown quotient directive {head!r}", position=lead + 1
    )


def describe_quotient_spec(rep) -> str:
    if isinstance(rep, PermRep) and rep.point_images is not None:
        pts = len(rep.point_images[0])
        return f"perm-quotient of size {rep.size} (images on {pts} points)"
    return rep.describe()


@dataclass(frozen=True)
class LatticeConfig:
    space: FiniteSpace
    chain: tuple[Partition, ...]
    direction: str
    action: FiniteAction | None


def _parse_partition_line(value: str, points: int, lineno: int) -> Partition:
    """The line's partition; the points it names are checked before
    anything of size `points` is built, so a line that leaves a point out
    fails in time proportional to its text."""
    block_of: dict[int, int] = {}
    for b, block in enumerate(value.split("|")):
        for tok in block.split(","):
            tok = tok.strip()
            p = _integer(tok)
            if p is None:
                why = _too_long("chain point", tok) or f"bad point {_quote(tok)} in chain partition"
                raise ParseError(f"line {lineno}: {why}")
            if not 1 <= p <= points:
                raise ParseError(f"line {lineno}: point {_number(p)} outside 1..{_number(points)}")
            if p in block_of:
                raise ParseError(f"line {lineno}: point {p} appears in two blocks")
            block_of[p] = b
    if len(block_of) < points:
        missing = next(p for p in range(1, points + 1) if p not in block_of)
        raise ParseError(f"line {lineno}: point {missing} not covered")
    return Partition([block_of[p] for p in range(1, points + 1)])


def parse_lattice_config(text: str) -> LatticeConfig:
    points = None
    weights_value = None
    weights_line = 0
    action_value = None
    action_offset = 0
    direction = None
    chain_lines: list[tuple[int, str]] = []

    offset = 0
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0]
        stripped = line.strip()
        if stripped:
            parts = stripped.split(None, 1)
            key = parts[0]
            value = parts[1] if len(parts) > 1 else ""
            if key == "points":
                points = _integer(value)
                if not points:
                    why = _too_long("points", value) or "points must be a positive integer"
                    raise ParseError(f"line {lineno}: {why}")
            elif key == "weights":
                weights_value, weights_line = value, lineno
            elif key == "action":
                action_value = value
                action_offset = offset + raw_line.index(value, len("action"))
            elif key == "direction":
                if value not in ("increasing", "decreasing"):
                    raise ParseError(
                        f"line {lineno}: direction must be increasing or decreasing"
                    )
                direction = value
            elif key == "chain":
                chain_lines.append((lineno, value))
            else:
                raise ParseError(f"line {lineno}: unknown directive {_quote(key)}")
        offset += len(raw_line) + 1

    if points is None:
        raise ParseError("config is missing a points line")
    if direction is None:
        raise ParseError("config is missing a direction line")
    if not chain_lines:
        raise ParseError("config needs at least one chain line")
    chain = tuple(
        _parse_partition_line(value, points, lineno) for lineno, value in chain_lines
    )

    if weights_value is None or weights_value == "uniform":
        weights = FiniteSpace.uniform(points).weights
    elif weights_value.startswith("random:"):
        token = weights_value[len("random:") :].strip()
        seed = _integer(token)
        if seed is None:
            why = _too_long("random seed", token) or "random weights need an integer seed"
            raise ParseError(f"line {weights_line}: {why}")
        weights = random_weights(points, seed)
    else:
        vals = []
        for tok in weights_value.split(","):
            try:
                vals.append(float(tok.strip()))
            except ValueError:
                raise ParseError(
                    f"line {weights_line}: bad weight {_quote(tok.strip())}"
                ) from None
        if len(vals) != points:
            raise ParseError(
                f"line {weights_line}: {len(vals)} weights for {points} points"
            )
        weights = tuple(vals)
    space = FiniteSpace(weights)

    action = None
    if action_value is not None:
        cycles = _parse_cycle_assignments(action_value, action_offset, len(LETTERS))
        gens = sorted(cycles)
        if gens != list(range(1, len(gens) + 1)):
            raise ParseError(
                "action generators must be consecutive letters from 'a'"
            )
        top = max(p for cyc in cycles.values() for cycle in cyc for p in cycle)
        if top > points:
            raise ParseError(
                f"action uses point {top} but the space has {points} points"
            )
        perms = [_cycles_to_perm(cycles[g], points) for g in gens]
        action = FiniteAction(perms)

    return LatticeConfig(space=space, chain=chain, direction=direction, action=action)


__all__ = [
    "LatticeConfig",
    "describe_quotient_spec",
    "parse_lattice_config",
    "parse_quotient_spec",
]

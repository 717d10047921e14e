"""Deterministic report serialization.

JSON output uses sorted keys and floats rounded to 12 significant
digits, so byte-identical reports come out of identical inputs no
matter how the computation was scheduled.  Exact integers stay
integers; rationals are {num, den} pairs; all entropy values are in
nats and every report says so.

The JSON text is the layout of `json.dumps(report_to_object(report),
sort_keys=True, indent=2)`, byte for byte, but written here: with
`indent` set the standard library falls back to its pure-Python
encoder.  The writer cleans and lays out a list `_ROW_CHUNK` items at a
time, so a Sequence that makes its rows as they are read, such as
proximality's, is never held whole.  A chunk of scalars, or of rows of
one nonzero width holding scalars, is cleaned column by column with
exact-type tests and no call per cell, and goes through the C encoder
in one call, with the newline and indent in its item separator; any
other chunk takes the recursive layout item by item.  The encoded
chunks are joined once into the report's bytes, so a report of 10^6
rows is never held as rows, cleaned rows and text at the same time.
CSV goes through the same chunks.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .errors import ConvergenceError, GwelError, ParameterError, ResourceGuardError

TOOL_VERSION = f"gwel {__version__}"


@dataclass
class Report:
    command: str
    params: dict
    seed: int | None
    series: dict  # {"columns": [names], "rows": a Sequence of [scalar or None, ...]}
    summary: dict
    warnings: list = field(default_factory=list)


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit


def _too_long(limit: int) -> ResourceGuardError:
    return ResourceGuardError(f"report integer has over {limit} digits; lower --steps")


def printable(v: int) -> int:
    """v, unless str(v) would pass the interpreter's digit limit; under
    3 * limit bits an integer has under `limit` digits."""
    limit = _digit_limit()
    if not limit or v.bit_length() <= 3 * limit or abs(v) < 10**limit:
        return v
    raise _too_long(limit)


def check_power_digits(q: int, n: int) -> None:
    """Raise printable's error for q**n, and for any count at least as
    large, when n * log10(q) passes the digit limit by over one digit, a
    margin no float rounding reaches; nearer the limit, printable decides
    on the exact count.  Costs no power of q."""
    limit = _digit_limit()
    if limit and n * math.log10(q) > limit + 1:
        raise _too_long(limit)


def _is_list(obj) -> bool:
    # a report's lazy rows are a Sequence; strings are not lists
    return isinstance(obj, Sequence) and not isinstance(obj, (str, bytes, bytearray))


def _clean(obj):
    # exact types first: they are nearly every cell, and numpy floats,
    # which subclass float, take the isinstance ladder below
    cls = type(obj)
    if cls is float:
        return _sig(obj)
    if cls is int:
        # 1920 bits stay under any digit limit Python accepts (0 or >= 640)
        return obj if obj.bit_length() <= 1920 else printable(obj)
    if cls is list:
        return [_clean(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return _sig(obj)
    if isinstance(obj, int):
        return obj if obj.bit_length() <= 1920 else printable(obj)
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if _is_list(obj):
        return [_clean(v) for v in obj]
    return str(obj)


def _fields(report: Report) -> dict:
    return {
        "command": report.command,
        "params": report.params,
        "seed": report.seed,
        "series": report.series,
        "summary": report.summary,
        "warnings": [str(w) for w in report.warnings],
        "tool_version": TOOL_VERSION,
        "units": "nats",
    }


def report_to_object(report: Report) -> dict:
    return _clean(_fields(report))


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_ROW_CHUNK = 4096  # list items cleaned and encoded per encoder call
_INT_CAP = 1 << 1920  # _clean's bound: smaller ints skip printable


def _encode(obj, sep: str = ",") -> str:
    """One call to the C encoder; NaN and inf raise ValueError.  It is
    given scalars and lists of scalars or of rows of scalars, which hold
    no cycle to check."""
    return json.dumps(obj, separators=(sep, ": "), allow_nan=False, check_circular=False)


def _chunks(items):
    """Lists of `_ROW_CHUNK` consecutive items, the last one shorter."""
    it = iter(items)
    while chunk := list(itertools.islice(it, _ROW_CHUNK)):
        yield chunk


def _clean_cells(cells: list, width: int) -> bool:
    """Clean `cells`, scalars in rows of `width`, in place column by
    column: exact-type tests, a digit check only for a column whose ints
    pass _clean's bound, one rounding per distinct float.  False, with
    nothing changed, when a cell is not a scalar of an exact type (a
    numpy float, a Fraction, a list): its chunk takes the recursive
    layout, which cleans it item by item."""
    cols = [cells[i::width] for i in range(width)]
    col_kinds = [set(map(type, col)) for col in cols]
    if not _SCALAR_TYPES.issuperset(itertools.chain.from_iterable(col_kinds)):
        return False
    for i, (col, kinds) in enumerate(zip(cols, col_kinds)):
        if int in kinds:
            ints = col if len(kinds) == 1 else [v for v in col if type(v) is int]
            if max(ints) >= _INT_CAP or min(ints) <= -_INT_CAP:
                for v in ints:
                    printable(v)
        if float in kinds:
            # one rounding per distinct nonzero float; a zero keeps its sign
            sig = {v: _sig(v) for v in {v for v in col if type(v) is float and v}}
            cells[i::width] = [sig[v] if type(v) is float and v else v for v in col]
    return True


def _chunk_text(items: list, ind: str) -> str:
    """The items of one chunk of a list, each on its own line at the
    level whose newline and indent are `ind`, joined by commas: one
    encoder call when they are all scalars, or all rows of one nonzero
    width holding scalars, else one recursive layout per item."""
    kinds = set(map(type, items))
    if kinds <= _SCALAR_TYPES:
        if _clean_cells(items, 1):
            return ind + _encode(items, "," + ind)[1:-1]
    elif all(issubclass(k, (list, tuple)) for k in kinds):
        widths = set(map(len, items))
        width = widths.pop() if len(widths) == 1 else 0
        cells = list(itertools.chain.from_iterable(items)) if width else []
        if width and _clean_cells(cells, width):
            # encoded string cells never hold a raw newline, so
            # "],<newline><cell indent>[" occurs only between rows
            cell = ind + "  "
            rows = list(zip(*[iter(cells)] * width))
            body = _encode(rows, "," + cell)[2:-2].replace(f"],{cell}[", f"{ind}],{ind}[{cell}")
            return f"{ind}[{cell}{body}{ind}]"
    return ",".join(ind + "".join(_parts(v, ind)) for v in items)


def _parts(obj, pad: str = "\n"):
    """The text of `_clean(obj)` as `json.dumps(_clean(obj),
    sort_keys=True, indent=2)` lays it out at the nesting level whose
    newline and indent are `pad`, in parts: one per chunk of a list."""
    if not isinstance(obj, dict) and not _is_list(obj):
        obj = _clean(obj)  # a scalar, or a Fraction's {num, den}
        if not isinstance(obj, dict):
            yield _encode(obj)
            return
    ind = pad + "  "
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        sep = "{"
        for k in sorted(obj):
            yield f"{sep}{ind}{_encode(k)}: "
            yield from _parts(obj[k], ind)
            sep = ","
        yield pad + "}" if obj else "{}"
        return
    sep = "["
    for chunk in _chunks(obj):
        yield sep + _chunk_text(chunk, ind)
        sep = ","
    yield pad + "]" if sep == "," else "[]"


def report_json_bytes(report: Report) -> bytes:
    try:
        return b"".join(map(str.encode, itertools.chain(_parts(_fields(report)), ["\n"])))
    except ValueError:
        raise ConvergenceError("report holds a non-finite number (NaN or inf)") from None


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ConvergenceError("report holds a non-finite number (NaN or inf)")
        return f"{v:.12g}"
    if isinstance(v, int):
        return str(printable(v))  # trips before a slow int-to-str conversion
    return str(v)


# `_csv_cell` of a cell of each exact scalar type it can never reject
_CSV_TEXT = {
    float: "{:.12g}".format,
    int: str,
    str: str,
    bool: "01".__getitem__,
    type(None): lambda v: "",
}


def _csv_column(col: tuple) -> list[str] | None:
    """`_csv_cell` of every cell of one column, by exact-type tests; None
    when a cell is not a scalar of an exact type, or is a non-finite float
    or an int past _clean's bound, which `_csv_cell` must see in row order."""
    kinds = set(map(type, col))
    if not _SCALAR_TYPES.issuperset(kinds):
        return None
    if float in kinds and not all(map(math.isfinite, col if len(kinds) == 1 else
                                      [v for v in col if type(v) is float])):
        return None
    if int in kinds:
        ints = col if len(kinds) == 1 else [v for v in col if type(v) is int]
        if max(ints) >= _INT_CAP or min(ints) <= -_INT_CAP:
            return None
    if len(kinds) == 1:
        return list(map(_CSV_TEXT[kinds.pop()], col))
    return [_CSV_TEXT[type(v)](v) for v in col]


def _csv_chunk_text(rows: list) -> str:
    """The CSV lines of one chunk of rows: column by column when the rows
    are lists or tuples of one nonzero width whose every column
    `_csv_column` formats, else cell by cell."""
    tuples = all(isinstance(row, (list, tuple)) for row in rows)
    if tuples and len(set(map(len, rows))) == 1 and rows[0]:
        cols = [_csv_column(col) for col in zip(*rows)]
        if None not in cols:
            return "\n".join(map(",".join, zip(*cols))) + "\n"
    return "".join([",".join(map(_csv_cell, row)) + "\n" for row in rows])


def _csv_parts(report: Report):
    yield ",".join(str(c) for c in report.series.get("columns", [])) + "\n"
    for chunk in _chunks(report.series.get("rows", [])):
        yield _csv_chunk_text(chunk)


def report_csv_bytes(report: Report) -> bytes:
    return b"".join(map(str.encode, _csv_parts(report)))


def emit_report(report: Report, fmt: str = "json", out: str | None = None) -> bytes:
    """Serialize and write to `out` (or stdout); returns the bytes.  Nothing
    is written unless the whole report serializes."""
    if fmt == "json":
        data = report_json_bytes(report)
    elif fmt == "csv":
        data = report_csv_bytes(report)
    else:
        raise GwelError(f"unknown report format {fmt!r}")
    if out is None:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as e:
            raise ParameterError(f"cannot write --out {out}: {e}") from None
    return data


__all__ = [
    "Report",
    "TOOL_VERSION",
    "emit_report",
    "printable",
    "report_csv_bytes",
    "report_json_bytes",
    "report_to_object",
]

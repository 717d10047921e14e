"""Deterministic report serialization.

JSON output uses sorted keys and floats rounded to 12 significant
digits, so byte-identical reports come out of identical inputs no
matter how the computation was scheduled.  Exact integers stay
integers; rationals are {num, den} pairs; all entropy values are in
nats and every report says so.

The JSON text is the layout of `json.dumps(obj, sort_keys=True,
indent=2)`, byte for byte, but written here: with `indent` set the
standard library falls back to its pure-Python encoder, so each flat
list of scalars, and each block of flat rows, goes through the C
encoder in one call with the newline and indent in its item separator.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
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
    series: dict  # {"columns": [names], "rows": [[scalar or None, ...]]}
    summary: dict
    warnings: list = field(default_factory=list)


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def printable(v: int) -> int:
    """v, unless str(v) would pass the interpreter's digit limit; under
    3 * limit bits an integer has under `limit` digits."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if not limit or v.bit_length() <= 3 * limit or abs(v) < 10**limit:
        return v
    raise ResourceGuardError(f"report integer has over {limit} digits; lower --steps")


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
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return str(obj)


def report_to_object(report: Report) -> dict:
    return {
        "command": report.command,
        "params": _clean(report.params),
        "seed": report.seed,
        "series": _clean(report.series),
        "summary": _clean(report.summary),
        "warnings": [str(w) for w in report.warnings],
        "tool_version": TOOL_VERSION,
        "units": "nats",
    }


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _encode(obj, sep: str = ",") -> str:
    """One call to the C encoder; NaN and inf raise ValueError.  `_clean`
    builds a fresh tree, so it holds no cycle to check for."""
    return json.dumps(obj, separators=(sep, ": "), allow_nan=False, check_circular=False)


def _flat(values) -> bool:
    return _SCALAR_TYPES.issuperset(map(type, values))


def _indent2(obj, pad: str = "\n") -> str:
    """obj laid out as `json.dumps(obj, sort_keys=True, indent=2)` lays it
    out at the nesting level whose newline and indent are `pad`."""
    ind = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",".join(f"{ind}{_encode(k)}: {_indent2(obj[k], ind)}" for k in sorted(obj))
        return f"{{{items}{pad}}}"
    if not isinstance(obj, (list, tuple)):
        return _encode(obj)
    if not obj:
        return "[]"
    if _flat(obj):
        return f"[{ind}{_encode(obj, ',' + ind)[1:-1]}{pad}]"
    if set(map(type, obj)) == {list} and all(obj) and _flat(itertools.chain.from_iterable(obj)):
        # nonempty flat rows: encoded string cells never hold a raw
        # newline, so "],<newline><cell indent>[" occurs only between rows
        cell = ind + "  "
        body = _encode(obj, "," + cell)[2:-2].replace(f"],{cell}[", f"{ind}],{ind}[{cell}")
        return f"[{ind}[{cell}{body}{ind}]{pad}]"
    items = ",".join(ind + _indent2(v, ind) for v in obj)
    return f"[{items}{pad}]"


def report_json_bytes(report: Report) -> bytes:
    obj = report_to_object(report)
    try:
        text = _indent2(obj)
    except ValueError:
        raise ConvergenceError("report holds a non-finite number (NaN or inf)") from None
    return (text + "\n").encode("utf-8")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ConvergenceError("report holds a non-finite number (NaN or inf)")
        return f"{v:.12g}"
    return str(v)


def report_csv_bytes(report: Report) -> bytes:
    cols = report.series.get("columns", [])
    rows = report.series.get("rows", [])
    for v in (v for row in rows for v in row if isinstance(v, int)):
        printable(v)  # trips before any slow int-to-str conversion
    lines = [",".join(str(c) for c in cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_report(report: Report, fmt: str = "json", out: str | None = None) -> bytes:
    """Serialize and write to `out` (or stdout); returns the bytes."""
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

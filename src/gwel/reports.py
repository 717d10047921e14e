"""Deterministic report serialization.

JSON output uses sorted keys and floats rounded to 12 significant
digits, so byte-identical reports come out of identical inputs no
matter how the computation was scheduled.  Exact integers stay
integers; rationals are {num, den} pairs; all entropy values are in
nats and every report says so.

The JSON text is the layout of `json.dumps(..., sort_keys=True,
indent=2)`, byte for byte, but written here: with `indent` set the
standard library falls back to its pure-Python encoder.  A report's
series is a `Table` of named columns, each of a kind the writer formats
without looking at its cells.  JSON and CSV rows are made `_ROW_CHUNK`
at a time, a column at a time; a code column with few values for its
rows formats each value once.  Params, summary and warnings take the
recursive layout.  Text is encoded into one buffer as it is made, so a
report of 10^6 rows is held once, as bytes, and never as rows.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .errors import ConvergenceError, GwelError, ParameterError, ResourceGuardError

TOOL_VERSION = f"gwel {__version__}"


class Column(NamedTuple):
    """`kind` is "int", "float" (float or None), "bool", "str" or "code";
    `data` a list, range or 1-D numpy array.  A code column's cells are
    those of `values` at its codes: a column of another kind whose data
    is a list, tuple or range."""

    kind: str
    data: Sequence
    values: Column | None = None


@dataclass(frozen=True)
class Table:
    """A report's series: columns of one length by name, in order."""

    columns: dict[str, Column]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())).data) if self.columns else 0


def _list(data) -> list:
    return data.tolist() if hasattr(data, "tolist") else list(data)


def _cells(col: Column, lo: int = 0, hi: int | None = None) -> list:
    data = _list(col.data[lo:hi])
    return list(map(col.values.data.__getitem__, data)) if col.kind == "code" else data


@dataclass
class Report:
    command: str
    params: dict
    seed: int | None
    series: Table
    summary: dict
    warnings: list = field(default_factory=list)


def _sig(x: float) -> float:
    return float(f"{x:.12g}")


def _digit_limit() -> int:
    return getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit


def _too_long(limit: int) -> ResourceGuardError:
    return ResourceGuardError(f"report integer has over {limit} digits; lower --steps")


def _non_finite() -> ConvergenceError:
    return ConvergenceError("report holds a non-finite number (NaN or inf)")


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
    # a list or tuple of params, summary or warnings; strings are not
    return isinstance(obj, Sequence) and not isinstance(obj, (str, bytes, bytearray))


def _clean(obj):
    """A scalar as the JSON value it is written as; a Fraction as {num, den}."""
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return _sig(obj)
    if isinstance(obj, int):
        # 1920 bits stay under any digit limit Python accepts (0 or >= 640)
        return obj if obj.bit_length() <= 1920 else printable(obj)
    if isinstance(obj, Fraction):
        return {"num": obj.numerator, "den": obj.denominator}
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


_ROW_CHUNK = 1024  # table rows formatted per chunk
_INT_CAP = 1 << 1920  # _clean's bound: smaller ints skip printable


def _encode(obj) -> str:
    """A scalar or {num, den} pair by the C encoder; NaN and inf raise ValueError."""
    return json.dumps(obj, separators=(",", ": "), allow_nan=False)


def _texts(kind: str, vals: list, as_json: bool) -> list[str]:
    """The JSON or CSV text of each cell of a column of a scalar kind."""
    if kind == "int":
        if vals and (max(vals) >= _INT_CAP or min(vals) <= -_INT_CAP):
            for v in vals:
                printable(v)
        return list(map(str, vals))
    if kind == "float":
        if not all(v is None or math.isfinite(v) for v in vals):
            raise _non_finite()
        if as_json:
            return ["null" if v is None else repr(_sig(v)) for v in vals]
        return ["" if v is None else f"{v:.12g}" for v in vals]
    if kind == "bool":
        no, yes = ("false", "true") if as_json else ("0", "1")
        return [yes if v else no for v in vals]
    return list(map(encode_basestring_ascii if as_json else str, vals))  # json.dumps of a str


def _row_texts(table: Table, sep: str, as_json: bool):
    """The text of each row of `table`, its cells joined by `sep`, in
    lists of `_ROW_CHUNK` rows."""
    cols = list(table.columns.values())
    kinds = [col.values.kind if col.kind == "code" else col.kind for col in cols]
    # a code column with few values for its rows formats each value once;
    # any other column formats its cells a chunk at a time
    texts = [_texts(kind, _cells(col.values), as_json)
             if col.kind == "code" and 8 * len(col.values.data) <= len(table) else None
             for col, kind in zip(cols, kinds)]
    for lo in range(0, len(table), _ROW_CHUNK):
        hi = lo + _ROW_CHUNK
        yield list(map(sep.join, zip(*[
            _texts(kind, _cells(col, lo, hi), as_json) if text is None
            else list(map(text.__getitem__, _list(col.data[lo:hi])))
            for col, kind, text in zip(cols, kinds, texts)
        ])))


def _table_parts(table: Table, pad: str):
    """The layout of {"columns": [...], "rows": [[...], ...]} for `table`."""
    ind, row, cell = pad + "  ", pad + "    ", pad + "      "
    yield f'{{{ind}"columns": '
    yield from _parts(list(table.columns), ind)
    yield f',{ind}"rows": '
    start, between = f"[{row}[{cell}", f"{row}],{row}[{cell}"
    for rows in _row_texts(table, "," + cell, True):
        yield start + between.join(rows)
        start = between
    yield f"{row}]{ind}]{pad}}}" if len(table) else f"[]{pad}}}"


def _parts(obj, pad: str = "\n"):
    """The text of `obj` as `json.dumps(..., sort_keys=True, indent=2)`
    lays it out, its scalars through `_clean` and a table as {"columns",
    "rows"}, at the nesting level whose newline and indent are `pad`, in
    parts: a table's rows a chunk at a time."""
    if isinstance(obj, Table):
        yield from _table_parts(obj, pad)
        return
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
    for v in obj:
        yield sep + ind
        yield from _parts(v, ind)
        sep = ","
    yield pad + "]" if sep == "," else "[]"


def _join(parts) -> bytes:
    """The parts encoded into one buffer as they come."""
    buf = io.BytesIO()
    for part in parts:
        buf.write(part.encode())
    return buf.getvalue()


def report_json_bytes(report: Report) -> bytes:
    try:
        return _join(itertools.chain(_parts(_fields(report)), ["\n"]))
    except ValueError:
        raise _non_finite() from None


def _csv_parts(table: Table):
    yield ",".join(table.columns) + "\n"
    for rows in _row_texts(table, ",", False):
        yield "\n".join(rows) + "\n"


def report_csv_bytes(report: Report) -> bytes:
    return _join(_csv_parts(report.series))


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
    "Column",
    "Report",
    "TOOL_VERSION",
    "Table",
    "emit_report",
    "printable",
    "report_csv_bytes",
    "report_json_bytes",
]

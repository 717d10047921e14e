import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import csv_cell, indent2_json, report_to_object, table_rows
from test_golden_reports import CASES

from gwel import cli, reports
from gwel.errors import ConvergenceError, ResourceGuardError
from gwel.reports import (
    TOOL_VERSION,
    Column,
    Report,
    Table,
    report_csv_bytes,
    report_json_bytes,
)

SAMPLE_ROWS = [(1, 1 / 3, True), (2, None, False)]


def sample_report(rows=SAMPLE_ROWS):
    return Report(
        command="demo",
        params={"rank": 2, "steps": 3},
        seed=855509,
        series=cli._table("n:int value:float flag:bool", rows),
        summary={
            "coefficient": Fraction(2, 6),
            "pi_ish": 3.14159265358979,
            "label": "x",
            "none": None,
        },
        warnings=["something to know"],
    )


def test_json_shape_and_rounding():
    obj = json.loads(report_json_bytes(sample_report()))
    assert obj["command"] == "demo"
    assert obj["tool_version"] == TOOL_VERSION
    assert obj["units"] == "nats"
    assert obj["seed"] == 855509
    assert obj["params"] == {"rank": 2, "steps": 3}
    # floats carry 12 significant digits
    assert obj["series"]["rows"][0][1] == 0.333333333333
    assert obj["summary"]["pi_ish"] == 3.14159265359
    # fractions become exact integer pairs, bools and nulls survive
    assert obj["summary"]["coefficient"] == {"num": 1, "den": 3}
    assert obj["series"]["rows"][0][2] is True
    assert obj["series"]["rows"][1][1] is None
    assert obj["warnings"] == ["something to know"]


def test_json_bytes_deterministic_and_sorted():
    a = report_json_bytes(sample_report())
    b = report_json_bytes(sample_report())
    assert a == b
    assert a.endswith(b"\n")
    text = a.decode()
    assert text.index('"command"') < text.index('"params"') < text.index('"seed"')


def test_csv_shape():
    lines = report_csv_bytes(sample_report()).decode().splitlines()
    assert lines[0] == "n,value,flag"
    assert lines[1] == "1,0.333333333333,1"
    assert lines[2] == "2,,0"


def test_round_trip_object():
    obj = report_to_object(sample_report())
    assert json.loads(json.dumps(obj, sort_keys=True)) == json.loads(
        report_json_bytes(sample_report())
    )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_value_is_an_error(bad):
    report = sample_report()
    report.summary["pi_ish"] = bad
    with pytest.raises(ConvergenceError, match="non-finite"):
        report_json_bytes(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_csv_cell_is_an_error(bad):
    report = sample_report([*SAMPLE_ROWS, (3, bad, False)])
    with pytest.raises(ConvergenceError, match="non-finite"):
        report_csv_bytes(report)
    with pytest.raises(ConvergenceError, match="non-finite"):
        report_json_bytes(report)


def oracle_bytes(report):
    return (indent2_json(report_to_object(report)) + "\n").encode("utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_matches_indent2_oracle_on_golden_reports(name, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent)
    args = cli.build_parser().parse_args(CASES[name])
    report = cli._VERBS[args.verb].run(args)
    assert report_json_bytes(report) == oracle_bytes(report)


def tricky_reports():
    tricky = 'row end "],\n  [" in a cell, quotes \\" and non-ASCII: \u00e9\u2211\U0001d4d7'
    yield Report(
        command="empty",
        params={},
        seed=None,
        series=Table({}),
        summary={"empty_list": [], "empty_dict": {}},
    )
    yield Report(
        command="mixed",
        params={"nested": [[1, [2, []]], {"z": [], "a": {}}], tricky: tricky},
        seed=2**64 + 1,
        series=Table({
            "a": Column("int", [1, 2, 2**70, -(2**63) - 1]),
            tricky: Column("str", [tricky, "", "],\n        [", tricky]),
            "x": Column("float", [2.5, None, np.float64(0.1) * 3, -0.0]),
            "flag": Column("bool", [True, False, True, False]),
        }),
        summary={"flags": [True, None, False], "big": -(2**63) - 1, "x": np.float64(2 / 3)},
        warnings=[tricky],
    )
    yield Report(
        command="rows",
        params={"rank": 2},
        seed=0,
        series=cli._table("n:int h:float s:str", [
            (1, 0.5, "],\n      ["), (2, None, ""), (3, 2.0**63, tricky)
        ]),
        summary={"row": [[1, 2], [3]], "single": [[None]]},
    )


@pytest.mark.parametrize("report", list(tricky_reports()), ids=lambda r: r.command)
def test_writer_matches_indent2_oracle_on_hand_built_reports(report):
    assert report_json_bytes(report) == oracle_bytes(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_cell_in_any_row_shape_is_an_error(bad):
    # alone, beside columns of other kinds, and among a code column's values
    for series in (
        cli._table("n:int x:float", [(1, bad)]),
        cli._table("n:int s:str x:float", [(1, "s", bad)]),
        Table({"m": Column("code", [0], Column("float", [bad]))}),
    ):
        report = sample_report()
        report.series = series
        with pytest.raises(ConvergenceError, match="non-finite"):
            report_json_bytes(report)


SEAM = 'row end "],\n  [" and "],\n      [" in a cell, quotes \\" and non-ASCII: \u00e9\u2211'
SEAM_ROWS = [
    (1, 0.1 * 3, SEAM, True, None),
    (2**64 + 1, -0.0, "", False, 0.0),
    (-(2**63) - 1, 1e-7, SEAM, True, None),
    (4, np.float64(2 / 3), "x", False, 2.5),
    (2**70, None, "],\n        [", True, -0.0),
]


def seam_report(n):
    rows = [SEAM_ROWS[i % len(SEAM_ROWS)] for i in range(n)]
    return Report(
        command="seams",
        params={"rows": n},
        seed=1,
        series=cli._table("a:int b:float c:str d:bool e:float", rows),
        summary={
            "cells": [v for row in rows for v in row][: 2 * n],
            "rows": tuple(rows),
            "ratio": Fraction(-7, 3),
        },
    )


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_chunked_writer_matches_the_oracle_at_every_seam(chunk, monkeypatch):
    monkeypatch.setattr(reports, "_ROW_CHUNK", chunk)
    for n in sorted({0, 1, chunk - 1, chunk, chunk + 1, 2 * len(SEAM_ROWS) + 1}):
        report = seam_report(n)
        assert report_json_bytes(report) == oracle_bytes(report), n
    args = cli.build_parser().parse_args(["proximality", "--steps", "7", "--trials", "2"])
    report = cli._VERBS["proximality"].run(args)
    assert report_json_bytes(report) == oracle_bytes(report)


def cell_csv_bytes(report):
    """The CSV bytes with every cell through `csv_cell`, one row at a time,
    codes looked up."""
    lines = [",".join(report.series.columns)]
    lines += [",".join(map(csv_cell, row)) for row in table_rows(report.series)]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_csv_columns_match_the_cell_by_cell_writer(chunk, monkeypatch):
    # the writer formats each chunk a column at a time, the oracle a cell at a time
    monkeypatch.setattr(reports, "_ROW_CHUNK", chunk)
    wide = [row + (1e300 * i, -2 * i, "s", i % 3 == 0, i / 7 if i % 2 else None) for i, row in
            enumerate([(1, 0.5), (2**64, -0.0), (3, 1e-7)] * 3)]
    cases = [seam_report(n) for n in range(2 * len(SEAM_ROWS) + 2)]
    cases += [*tricky_reports(), sample_report()]
    wide_table = cli._table("a:int b:float c:float d:int e:str f:bool g:float", wide)
    cases.append(Report("wide", {}, None, wide_table, {}))
    args = cli.build_parser().parse_args(["proximality", "--steps", "7", "--trials", "2"])
    cases.append(cli._VERBS["proximality"].run(args))
    for report in cases:
        assert report_csv_bytes(report) == cell_csv_bytes(report), report.command


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_cell_in_the_last_chunk_is_an_error(bad, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(reports, "_ROW_CHUNK", 2)
    rows = [(i, 0.5) for i in range(4)] + [(4, bad)]
    report = Report("growth", {}, None, cli._table("n:int x:float", rows), {})
    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=lambda _: report))
    for fmt, write in (("json", report_json_bytes), ("csv", report_csv_bytes)):
        with pytest.raises(ConvergenceError, match="non-finite"):
            write(report)
        out = tmp_path / f"report.{fmt}"
        assert cli.main(["growth", "--format", fmt, "--out", str(out)]) == 4
        assert not out.exists()
        assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("chunk", [1, 4096])
def test_integer_past_the_digit_limit_in_a_flat_row_is_a_guard_error(chunk, monkeypatch):
    monkeypatch.setattr(reports, "_ROW_CHUNK", chunk)
    huge = 10 ** sys.get_int_max_str_digits()
    # an int column before a column of another kind, and after one
    for series in (
        cli._table("n:int x:str", [(1, "y"), (-huge, "x")]),
        cli._table("x:float n:int", [(0.5, 1), (0.25, huge)]),
    ):
        report = Report("growth", {}, None, series, {})
        for write in (report_json_bytes, report_csv_bytes):
            with pytest.raises(ResourceGuardError, match="digits; lower --steps"):
                write(report)


def table_report(n):
    """A Table of n rows with a column of every kind and code columns on
    two or three values (from 24 rows on, each value is formatted once);
    cells cycle through -0.0, None, escapes and big ints."""
    floats = [None, -0.0, 0.1 * 3, 1e-7, 0.0, np.float64(2 / 3)]
    codes = np.arange(n, dtype=np.int32) % 3
    return Report(
        command="table",
        params={"rows": n},
        seed=3,
        series=reports.Table({
            "i": reports.Column("int", [(-1) ** i * 2 ** (i % 70) for i in range(n)]),
            "x": reports.Column("float", [floats[i % len(floats)] for i in range(n)]),
            "s": reports.Column("str", [(SEAM, "", ",")[i % 3] for i in range(n)]),
            "b": reports.Column("bool", np.arange(n) % 4 == 1),
            "L": reports.Column("code", codes, reports.Column("int", range(3))),
            "m": reports.Column("code", codes, reports.Column("float", [None, -0.0, 1 / 3])),
            "f": reports.Column("code", codes, reports.Column("bool", [True, False, True])),
            "g": reports.Column("code", np.arange(n) % 2, reports.Column("str", ['q"', SEAM])),
            "a": reports.Column("float", [(7.0, None, 0.1 * 3, -0.0)[i % 4] for i in range(n)]),
        }),
        summary={"n": n},
    )


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_table_writer_matches_both_oracles(chunk, monkeypatch):
    monkeypatch.setattr(reports, "_ROW_CHUNK", chunk)
    cases = [table_report(n) for n in sorted({0, 1, 2, chunk - 1, chunk, chunk + 1, 13, 40})]
    cases.append(Report("no-columns", {}, None, reports.Table({}), {}))
    for report in cases:
        assert report_json_bytes(report) == oracle_bytes(report), report.params
        assert report_csv_bytes(report) == cell_csv_bytes(report), report.params
    one = json.loads(report_json_bytes(table_report(2)))
    assert one["series"]["rows"][1] == [-2, -0.0, "", True, 1, -0.0, False, SEAM, None]
    assert str(one["series"]["rows"][1][1]) == "-0.0"


def bad_tables():
    huge = 10 ** sys.get_int_max_str_digits()
    codes = np.zeros(3, dtype=np.int32)
    for bad in (float("nan"), float("inf"), np.float64("-inf")):
        yield 4, {"x": reports.Column("float", [0.5, None, bad])}
        yield 4, {"m": reports.Column("code", codes, reports.Column("float", [bad]))}
        yield 4, {"a": reports.Column("float", np.array([1.0, 0.5, bad]))}
    yield 3, {"n": reports.Column("int", [1, -huge, 2])}
    yield 3, {"L": reports.Column("code", codes, reports.Column("int", [huge]))}
    yield 3, {"r": reports.Column("int", range(huge, huge + 3))}


@pytest.mark.parametrize("code, columns", list(bad_tables()))
def test_table_that_cannot_be_written_leaves_no_output(code, columns, monkeypatch, tmp_path, capsys):
    report = Report("growth", {}, None, reports.Table({"k": reports.Column("int", [1, 2, 3]), **columns}), {})
    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=lambda _: report))
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        assert cli.main(["growth", "--format", fmt, "--out", str(out)]) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("non-finite" if code == 4 else "digits; lower --steps") in err

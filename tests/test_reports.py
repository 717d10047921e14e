import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from oracles import indent2_json
from test_golden_reports import CASES

from gwel import cli, reports
from gwel.errors import ConvergenceError, ResourceGuardError
from gwel.reports import (
    TOOL_VERSION,
    Report,
    report_csv_bytes,
    report_json_bytes,
    report_to_object,
)


def sample_report():
    return Report(
        command="demo",
        params={"rank": 2, "steps": 3},
        seed=855509,
        series={
            "columns": ["n", "value", "flag"],
            "rows": [[1, 1 / 3, True], [2, None, False]],
        },
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
    report = sample_report()
    report.series["rows"].append([3, bad, False])
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
    report = cli._HANDLERS[args.verb](args)
    assert report_json_bytes(report) == oracle_bytes(report)


def tricky_reports():
    tricky = 'row end "],\n  [" in a cell, quotes \\" and non-ASCII: \u00e9\u2211\U0001d4d7'
    yield Report(
        command="empty",
        params={},
        seed=None,
        series={"columns": [], "rows": []},
        summary={"empty_list": [], "empty_dict": {}},
    )
    yield Report(
        command="mixed",
        params={"nested": [[1, [2, []]], {"z": [], "a": {}}], tricky: tricky},
        seed=2**64 + 1,
        series={
            "columns": ["a", tricky],
            "rows": [
                [1, 2.5, tricky, True, None],
                [2],
                [3, Fraction(-7, 3), np.float64(0.1) * 3, 2**70],
                [tricky, "],\n        [", False],
            ],
        },
        summary={"flags": [True, None, False], "big": -(2**63) - 1, "x": np.float64(2 / 3)},
        warnings=[tricky],
    )
    yield Report(
        command="rows",
        params={"rank": 2},
        seed=0,
        series={
            "columns": ["n", "h", "s"],
            # unequal lengths and string cells, all scalar: the one-call path
            "rows": [[1, 0.5, "],\n      ["], [2, None], [3, 2**63, True, tricky]],
        },
        summary={"row": [[1, 2], [3]], "single": [[None]]},
    )


@pytest.mark.parametrize("report", list(tricky_reports()), ids=lambda r: r.command)
def test_writer_matches_indent2_oracle_on_hand_built_reports(report):
    assert report_json_bytes(report) == oracle_bytes(report)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_cell_in_any_row_shape_is_an_error(bad):
    for rows in ([[1, bad]], [[1, Fraction(1, 2), bad]], [[1, [bad]]]):
        report = sample_report()
        report.series["rows"] = rows
        with pytest.raises(ConvergenceError, match="non-finite"):
            report_json_bytes(report)


SEAM = 'row end "],\n  [" and "],\n      [" in a cell, quotes \\" and non-ASCII: \u00e9\u2211'
SEAM_ROWS = [
    [1, 0.1 * 3, SEAM, True, None],
    [2**64 + 1, -(2**63) - 1, False, -0.0, 0.0],
    [3, Fraction(-7, 3), 1e-7, None, SEAM],  # the Fraction takes the recursive path
    [4, np.float64(2 / 3), 2**70, 2.5, True],  # so does the numpy float
    [5, 0.1 * 3, None, "x", False],
]


def seam_report(n):
    rows = [SEAM_ROWS[i % len(SEAM_ROWS)] for i in range(n)]
    return Report(
        command="seams",
        params={"rows": n},
        seed=1,
        series={"columns": ["a", "b", "c", "d", "e"], "rows": rows},
        summary={"cells": [v for row in rows for v in row][: 2 * n], "rows": tuple(rows)},
    )


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_chunked_writer_matches_the_oracle_at_every_seam(chunk, monkeypatch):
    monkeypatch.setattr(reports, "_ROW_CHUNK", chunk)
    for n in sorted({0, 1, chunk - 1, chunk, chunk + 1, 2 * len(SEAM_ROWS) + 1}):
        report = seam_report(n)
        assert report_json_bytes(report) == oracle_bytes(report), n
    args = cli.build_parser().parse_args(["proximality", "--steps", "7", "--trials", "2"])
    report = cli._HANDLERS["proximality"](args)
    assert report_json_bytes(report) == oracle_bytes(report)


def cell_csv_bytes(report):
    """The CSV bytes with every cell through `_csv_cell`, one row at a time;
    a Table's rows are its cells with the codes looked up."""
    series = report.series
    if isinstance(series, reports.Table):
        series = {"columns": list(series.columns), "rows": series.rows()}
    lines = [",".join(map(str, series["columns"]))]
    lines += [",".join(map(reports._csv_cell, row)) for row in series["rows"]]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
def test_csv_columns_match_the_cell_by_cell_writer(chunk, monkeypatch):
    # chunks of exact scalars are formatted column by column; a Fraction,
    # a numpy float or a row of another width sends its chunk cell by cell
    monkeypatch.setattr(reports, "_ROW_CHUNK", chunk)
    wide = [row + [1e300 * i, -2 * i, "s", i % 3 == 0, i if i % 2 else None] for i, row in
            enumerate([[1, 0.5], [-0.0, 2**64], [3, 1e-7]] * 3)]
    cases = [seam_report(n) for n in range(2 * len(SEAM_ROWS) + 2)]
    cases += [*tricky_reports(), sample_report()]
    cases.append(Report("wide", {}, None, {"columns": list("abcdefg"), "rows": wide}, {}))
    args = cli.build_parser().parse_args(["proximality", "--steps", "7", "--trials", "2"])
    cases.append(cli._HANDLERS["proximality"](args))
    for report in cases:
        assert report_csv_bytes(report) == cell_csv_bytes(report), report.command


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_non_finite_cell_in_the_last_chunk_is_an_error(bad, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(reports, "_ROW_CHUNK", 2)
    rows = [[i, 0.5] for i in range(4)] + [[4, bad]]
    report = Report("growth", {}, None, {"columns": ["n", "x"], "rows": rows}, {})
    monkeypatch.setitem(cli._HANDLERS, "growth", lambda args: report)
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
    # a column of ints only, and a column that mixes ints with floats
    for rows in ([[1, 0.5], [-huge, "x"]], [[1, 0.5], [2, huge]]):
        report = Report("growth", {}, None, {"columns": ["n", "x"], "rows": rows}, {})
        for write in (report_json_bytes, report_csv_bytes):
            with pytest.raises(ResourceGuardError, match="digits; lower --steps"):
                write(report)


def table_report(n):
    """A Table of n rows with a column of every kind and code columns on
    two or three values (from 24 rows on, each value is formatted once);
    cells cycle through -0.0, None, escapes and big ints, and through
    every kind in the "any" column."""
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
            "a": reports.Column("any", [(7, None, SEAM, False, 0.1 * 3, -0.0)[i % 6] for i in range(n)]),
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
        yield 4, {"a": reports.Column("any", [1, None, float(bad)])}
    yield 3, {"n": reports.Column("int", [1, -huge, 2])}
    yield 3, {"L": reports.Column("code", codes, reports.Column("int", [huge]))}
    yield 3, {"a": reports.Column("any", ["s", huge, None])}


@pytest.mark.parametrize("code, columns", list(bad_tables()))
def test_table_that_cannot_be_written_leaves_no_output(code, columns, monkeypatch, tmp_path, capsys):
    report = Report("growth", {}, None, reports.Table({"k": reports.Column("int", [1, 2, 3]), **columns}), {})
    monkeypatch.setitem(cli._HANDLERS, "growth", lambda args: report)
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        assert cli.main(["growth", "--format", fmt, "--out", str(out)]) == code
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("non-finite" if code == 4 else "digits; lower --steps") in err

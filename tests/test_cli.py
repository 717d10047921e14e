import hashlib
import json
import math
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from oracles import brute_kernel_sphere_counts

from gwel import cli
from gwel.cli import main
from gwel.errors import ConvergenceError, ResourceGuardError
from gwel.parsing import parse_quotient_spec
from gwel.quotients import AbelianRep
from gwel.reports import check_power_digits, printable
from gwel.words import ball_size, sphere_size

LIMIT = sys.get_int_max_str_digits()


def run_json(capsysbinary, argv):
    code = main(argv)
    out = capsysbinary.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_walk_entropy_json(capsysbinary):
    obj = run_json(capsysbinary, ["walk-entropy", "--rank", "2", "--steps", "5"])
    assert obj["command"] == "walk-entropy"
    assert obj["series"]["columns"] == ["n", "H", "H_over_n", "increment"]
    assert len(obj["series"]["rows"]) == 5
    assert obj["series"]["rows"][0][1] == pytest.approx(1.38629436112)
    assert obj["summary"]["h_rw_exact"] == pytest.approx(0.549306144334)
    # scheduling and output options are not part of the result identity
    assert "threads" not in obj["params"]
    assert "out" not in obj["params"]
    assert obj["seed"] == 0xD0DD5


def test_walk_entropy_quotient(capsysbinary):
    obj = run_json(
        capsysbinary,
        ["walk-entropy", "--steps", "4", "--quotient", "relators: aa, bb, abab"],
    )
    assert obj["summary"]["walk_on"] == "perm-quotient of size 4"
    # the Klein walk maxes out at log 4 minus the lazy-free parity split
    assert obj["series"]["rows"][3][1] <= 1.3862943612
    # the one-element quotient has zero entropy, printed as 0.0, never -0.0
    assert main(["walk-entropy", "--steps", "3", "--quotient", "trivial"]) == 0
    raw = capsysbinary.readouterr().out
    assert json.loads(raw)["summary"]["last_H_over_n"] == 0.0
    assert b"-0.0" not in raw


def test_growth_csv(capsysbinary):
    code = main(["growth", "--steps", "3", "--format", "csv"])
    out = capsysbinary.readouterr().out.decode()
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,count,log_count_over_n"
    assert lines[1] == "0,1,"
    assert lines[4].startswith("3,53,")


def test_drift_deterministic_across_threads(capsysbinary):
    outs = []
    for threads in ("1", "4", "8"):
        code = main(
            ["drift", "--steps", "500", "--trials", "50", "--threads", threads]
        )
        assert code == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1] == outs[2]


def test_seed_changes_output(capsysbinary):
    a = run_json(capsysbinary, ["drift", "--steps", "300", "--trials", "40"])
    b = run_json(
        capsysbinary, ["drift", "--steps", "300", "--trials", "40", "--seed", "9"]
    )
    assert a["seed"] == 0xD0DD5 and b["seed"] == 9
    assert a["summary"]["estimate"] != b["summary"]["estimate"]


def test_out_file(tmp_path, capsysbinary):
    path = tmp_path / "report.json"
    code = main(["theorem-a", "--rank", "3", "--out", str(path)])
    assert code == 0
    assert capsysbinary.readouterr().out == b""
    obj = json.loads(path.read_bytes())
    assert obj["summary"]["bound"] == pytest.approx(0.268239652072)
    assert obj["summary"]["coefficient_of_log"] == {"num": 1, "den": 6}


def test_cogrowth_verbs(capsysbinary):
    obj = run_json(
        capsysbinary,
        ["cogrowth", "--quotient", "relators: aa, bb, abab", "--steps", "8"],
    )
    assert "method" not in obj["params"]
    klein = parse_quotient_spec("relators: aa, bb, abab", 2)
    assert [row[1] for row in obj["series"]["rows"]] == brute_kernel_sphere_counts(klein, 8)
    assert obj["series"]["rows"][2][1] == 4
    assert obj["summary"]["delta"] == pytest.approx(1.09861228867)
    assert obj["summary"]["bound_holds"] is True
    abel = run_json(
        capsysbinary, ["cogrowth", "--quotient", "abelian", "--steps", "8"]
    )
    assert abel["series"]["rows"][4][1] == 8
    assert "amenable" in abel["summary"]["delta_method"]


@pytest.mark.parametrize("method", ["transfer", "brute", "both"])
def test_cogrowth_has_no_method_flag(method, capsys):
    argv = ["cogrowth", "--quotient", "trivial", "--method", method]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--method" in captured.err


def test_gap_check_reports_warning(capsysbinary):
    obj = run_json(
        capsysbinary,
        ["gap-check", "--quotient", "relators: aa, bb, abab", "--steps", "3"],
    )
    assert obj["summary"]["lemma_holds"] is True
    assert any("k=2" in w for w in obj["warnings"])


def test_boundary_entropy_and_guivarch(capsysbinary):
    b = run_json(capsysbinary, ["boundary-entropy", "--rank", "4"])
    assert b["summary"]["coefficient"] == {"num": 3, "den": 4}
    assert b["summary"]["matches_h_rw_exact"] is True
    g = run_json(capsysbinary, ["guivarch", "--steps", "1000", "--trials", "100"])
    assert g["summary"]["residual"] < 0.05
    assert g["summary"]["holds_within_3se"] is True


def test_proximality_rows(capsysbinary):
    obj = run_json(
        capsysbinary,
        ["proximality", "--steps", "12", "--trials", "3", "--prefix-depth", "2"],
    )
    assert len(obj["series"]["rows"]) == 36
    assert obj["summary"]["final_mass_min"] > 0.9


# sha256 of the benchmark's proximality reports (bench seeds 1 and 2), as
# written from whole rows before the writer went chunk by chunk
PROXIMALITY_DIGESTS = {
    (266717575, "json"): "e3b90b360ddc4492ea468821ab35bbea441bcf49f2d90bd7313d98d5796f5acb",
    (266717575, "csv"): "2cb88802351357a5105f7b920248ed3a88527ca75bc1a02249844e472d85ce5c",
    (2165107085, "json"): "11bb2939467ac76d5fc39a3f57f008ed7cd974663629a69f3cb21ee048b67d70",
    (2165107085, "csv"): "a485cabab19e053ef047660e9e6446fc401546079d3e9380b8300d8b09843891",
}


@pytest.mark.parametrize("seed, fmt", sorted(PROXIMALITY_DIGESTS))
def test_proximality_report_bytes_are_unchanged(seed, fmt, tmp_path):
    out = tmp_path / f"report.{fmt}"
    argv = ["proximality", "--steps", "500", "--trials", "60", "--seed", str(seed)]
    assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PROXIMALITY_DIGESTS[seed, fmt]


def test_proximality_masses_end_at_the_longest_walk(tmp_path, monkeypatch):
    # a prefix depth past every walk costs no mass per unreached length
    from gwel import boundary

    made = []
    sim = boundary.proximality_sim

    def keep(*args, **kwargs):
        made.append(sim(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(boundary, "proximality_sim", keep)
    out = tmp_path / "report.json"
    argv = ["proximality", "--prefix-depth", "1000000000", "--steps", "5", "--trials", "2"]
    assert main([*argv, "--out", str(out)]) == 0
    (rpt,) = made
    assert len(rpt.masses) == rpt.lengths.max() + 1
    assert json.loads(out.read_bytes())["summary"]["skipped_rows"] == 10


def test_proximality_report_memory_is_a_small_multiple_of_its_bytes(tmp_path):
    # rows, cleaned rows and the text are never all held at once: the
    # peak is the encoded chunks plus their one join, about 2.5 times
    # the report here (6.8 times when every row was held three ways)
    out = tmp_path / "report.json"
    start = time.perf_counter()
    tracemalloc.start()
    try:
        code = main(["proximality", "--steps", "500", "--trials", "60", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * out.stat().st_size
    assert time.perf_counter() - start < 2.0


def test_boundary_entropy_refuses_a_large_rank_before_building_the_walk(capsys, monkeypatch):
    from gwel import measures

    def no_walk(d):
        raise AssertionError(f"srw({d}) built for a rank with no letters")

    monkeypatch.setattr(measures, "srw", no_walk)
    assert main(["boundary-entropy", "--rank", "1000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--rank" in err and "26 letters" in err


def test_lattice_experiment(tmp_path, capsysbinary):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(
        "points 4\nweights uniform\naction a=(1 2)(3 4)\n"
        "direction increasing\nchain 1,2,3,4\nchain 1,2|3,4\n"
    )
    obj = run_json(capsysbinary, ["lattice-experiment", "--config", str(cfg)])
    assert obj["summary"]["limit_blocks"] == 2
    assert obj["series"]["rows"][-1][2] == 0.0
    assert obj["summary"]["functional_monotone"] is True


def test_parameter_errors_exit_2(capsys):
    assert main(["walk-entropy", "--rank", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["cogrowth", "--steps", "4"]) == 2  # missing --quotient
    assert main(["walk-entropy", "--quotient", "relators: a!"]) == 2
    assert main(["drift", "--steps", "notanint"]) == 2
    assert main(["no-such-verb"]) == 2
    assert main(["lattice-experiment", "--config", "/no/such/file.cfg"]) == 2
    capsys.readouterr()
    for argv, flag in (
        (["drift", "--seed", "-1"], "seed"),
        (["guivarch", "--seed", "-1"], "seed"),
        (["proximality", "--seed", "-1"], "seed"),
        (["theorem-a", "--out", "/no/such/dir/report.json"], "--out"),
        (["boundary-entropy", "--rank", "27"], "26 letters"),
        (
            ["cogrowth", "--quotient", "perm: a=(1 2); b=(3 4)", "--max-cosets", "-5"],
            "--max-cosets",
        ),
        (
            ["cogrowth", "--quotient", "relators: aa, bb", "--max-cosets", "0"],
            "--max-cosets",
        ),
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert flag in err, argv


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_weight_exits_2(bad, tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(f"points 2\nweights 0.5, {bad}\ndirection increasing\nchain 1,2\n")
    assert main(["lattice-experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "finite" in err


def test_uncovered_chain_fails_before_sizing_the_space(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text("points 30000000\ndirection increasing\nchain 1\n")
    start = time.perf_counter()
    assert main(["lattice-experiment", "--config", str(cfg)]) == 2
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: line 3: point 2 not covered\n"


def test_resource_guard_exit_3(capsys):
    code = main(
        ["cogrowth", "--quotient", "relators: abAB", "--max-cosets", "100"]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err
    # an infinite quotient (a triangle group) trips the guard that names its flag
    code = main(
        ["cogrowth", "--quotient", "relators: aaa, bbb, ababab", "--max-cosets", "1000"]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--max-cosets" in err


def test_perm_point_labels_are_charged_against_max_cosets(capsys):
    # the largest point sets the width of every image and closure row, so
    # rank x that point is charged before any image is built
    start = time.perf_counter()
    assert main(["cogrowth", "--quotient", "perm: a=(1 10000000)", "--steps", "2"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == ("error: perm: point 10000000 sets 2 generator images of 10000000 points, "
                   "20000000 entries over max_cosets=1000000; raise --max-cosets\n")
    argv = ["cogrowth", "--quotient", "perm: a=(1 1000000)", "--steps", "2"]
    assert main([*argv, "--max-cosets", "2000000"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["quotient"] == "perm-quotient of size 2 (images on 1000000 points)"


@pytest.mark.parametrize("spec", ["relators: aaa, bbb, ababab", "perm: a=(1 2 3); b=(1 2)"])
def test_max_cosets_above_the_quotient_size_limit_exits_2(spec, capsys):
    # no verb can use a quotient above QUOTIENT_SIZE_LIMIT, so a larger cap
    # is refused before any enumeration starts
    start = time.perf_counter()
    assert main(["cogrowth", "--quotient", spec, "--max-cosets", "1000000000"]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--max-cosets" in err


@pytest.mark.parametrize("spec", ["trivial", "abelian"])
def test_max_cosets_is_ignored_without_an_enumeration(spec, capsysbinary):
    argv = ["cogrowth", "--quotient", spec, "--steps", "4"]
    assert run_json(capsysbinary, argv + ["--max-cosets", "1000000000"]) == run_json(
        capsysbinary, argv
    )


def test_cogrowth_abelian_at_radius_400_is_fast(capsysbinary):
    start = time.perf_counter()
    obj = run_json(capsysbinary, ["cogrowth", "--quotient", "abelian", "--steps", "400"])
    assert time.perf_counter() - start < 2.0
    assert len(obj["series"]["rows"]) == 401


def test_cogrowth_abelian_rank3_matches_brute(capsysbinary):
    obj = run_json(
        capsysbinary, ["cogrowth", "--quotient", "abelian", "--rank", "3", "--steps", "8"]
    )
    counts = [row[1] for row in obj["series"]["rows"]]
    assert counts == brute_kernel_sphere_counts(AbelianRep(3), 8)


# sha256 of the comma-joined counts that `cogrowth --quotient abelian --steps
# 200` printed when a (vector, last letter) dict DP computed them (about a
# minute on a 2-core x86 box); they begin 1, 0, 0, 0, 8, 0, 40, 0, 312
DICT_DP_COUNTS_200 = "5b734d0dfb94c492a5e90448238105dcea6d6c4ace4e62b52ab960a255da078c"


def test_cogrowth_abelian_200_matches_the_dict_dp_run(capsysbinary):
    obj = run_json(capsysbinary, ["cogrowth", "--quotient", "abelian", "--steps", "200"])
    counts = [row[1] for row in obj["series"]["rows"]]
    assert counts[:9] == [1, 0, 0, 0, 8, 0, 40, 0, 312]
    joined = ",".join(map(str, counts)).encode()
    assert hashlib.sha256(joined).hexdigest() == DICT_DP_COUNTS_200


def test_cogrowth_abelian_budget_trips_before_the_work(capsys):
    start = time.perf_counter()
    assert main(["cogrowth", "--quotient", "abelian", "--steps", "1000000"]) == 3
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.endswith("lower --steps\n")


def test_cogrowth_digit_guard_trips_before_counting(capsys):
    # the trivial quotient's counts are the sphere sizes 4 * 3^(n-1); the
    # first one past the digit limit is refused before any is counted
    n = next(n for n in range(1, 10**5) if 4 * 3 ** (n - 1) >= 10**LIMIT)
    for steps in (n, 100000):
        start = time.perf_counter()
        assert main(["cogrowth", "--quotient", "trivial", "--steps", str(steps)]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: report integer has over {LIMIT} digits; lower --steps\n"
    # radius 1000 is printable on Z^2, and over the budget, which trips first
    start = time.perf_counter()
    assert main(["cogrowth", "--quotient", "abelian", "--steps", "1000"]) == 3
    assert time.perf_counter() - start < 2.0
    assert capsys.readouterr().err == (
        "error: kernel sphere counts exceed the work budget beyond radius 627; lower --steps\n"
    )


@pytest.mark.parametrize("relators", ["abAB", "aa"])
def test_infinite_abelianization_exits_at_once(relators, capsys):
    start = time.perf_counter()
    assert main(["cogrowth", "--quotient", f"relators: {relators}"]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "maps onto Z" in err


# the last, the (2, 3, 7) triangle group, has no certificate and runs to the cap
@pytest.mark.parametrize("relators", ["aaa, bbb, ababab", "aa, bbb", "aa, bb",
                                      "aa, bbb, ababababababab"])
def test_finite_abelianization_still_reaches_the_coset_cap(relators, capsys):
    # infinite quotients whose abelianization is finite
    argv = ["cogrowth", "--quotient", f"relators: {relators}", "--max-cosets", "1000"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err == "error: coset limit exceeded (max_cosets=1000); raise --max-cosets\n"


def test_certified_infinite_quotient_exits_at_once_at_the_default_cap(capsys):
    start = time.perf_counter()
    assert main(["cogrowth", "--quotient", "relators: aaa, bbb, ababab"]) == 3
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err == "error: coset limit exceeded (max_cosets=1000000); raise --max-cosets\n"


def test_walk_entropy_work_guard(tmp_path, capsys):
    start = time.perf_counter()
    assert main(["walk-entropy", "--steps", "1000000"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--steps" in captured.err
    # gap-check runs the same series behind the same guard
    assert main(["gap-check", "--quotient", "trivial", "--steps", "1000000"]) == 3
    assert "--steps" in capsys.readouterr().err
    assert main(["walk-entropy", "--steps", "4000", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("verb", ["drift", "guivarch"])
def test_drift_work_guard(verb, capsys):
    start = time.perf_counter()
    assert main([verb, "--steps", "10000", "--trials", "10000000"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--trials" in captured.err


def test_proximality_work_guard(capsys):
    start = time.perf_counter()
    assert main(["proximality", "--steps", "10000000", "--trials", "100"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.endswith("lower --trials or --steps\n")


def test_convergence_maps_to_exit_4(capsys, monkeypatch):
    import gwel.cli as cli

    def boom(args):
        raise ConvergenceError("power iteration stalled")

    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=boom))
    assert main(["growth"]) == 4
    assert "stalled" in capsys.readouterr().err


def test_nan_report_maps_to_exit_4(capsys, monkeypatch):
    import gwel.cli as cli
    from gwel.reports import Report, Table

    def nan_report(args):
        return Report("growth", {}, None, Table({}), {"x": float("nan")})

    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=nan_report))
    assert main(["growth"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "non-finite" in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_cell_maps_to_exit_4_in_every_format(fmt, capsys, monkeypatch):
    import gwel.cli as cli
    from gwel.reports import Report

    def inf_report(args):
        series = cli._table("a:int b:float", [(1, float("nan")), (2, float("inf"))])
        return Report("growth", {}, None, series, {})

    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=inf_report))
    assert main(["growth", "--format", fmt]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "non-finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["cogrowth", "--quotient", "trivial", "--steps", "9200"],
        ["cogrowth", "--quotient", "trivial", "--steps", "9200", "--format", "csv"],
        ["growth", "--steps", "9200"],
    ],
)
def test_integer_past_the_str_digit_limit_exits_3(argv, capsys):
    # 3^9199 has 4390 digits, past Python's default limit of 4300
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--steps" in captured.err


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_growth_digit_guard_trips_before_the_series(fmt, capsys):
    start = time.perf_counter()
    assert main(["growth", "--steps", "100000", "--format", fmt]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: report integer has over {LIMIT} digits; lower --steps\n"
    # it trips at the first radius whose ball count has too many digits:
    # |B(n)| = 2 * 3^n - 1 is the largest count of the series
    top = 10**LIMIT
    n = next(n for n in range(10**5) if 2 * 3**n - 1 >= top)
    assert main(["growth", "--steps", str(n), "--format", fmt]) == 3
    assert printable(2 * 3 ** (n - 1) - 1) < top


@pytest.mark.parametrize("argv", [["growth"], ["cogrowth", "--quotient", "trivial"]])
def test_digit_guard_refuses_a_huge_radius_without_its_power(argv, capsys):
    start = time.perf_counter()
    assert main([*argv, "--steps", "10000000"]) == 3
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: report integer has over {LIMIT} digits; lower --steps\n"


def largest_printable(size, d):
    """The largest radius n whose size(d, n) has at most LIMIT digits."""
    n = int(LIMIT / math.log10(2 * d - 1)) - 3
    while size(d, n + 1) < 10**LIMIT:
        n += 1
    return n


@pytest.mark.parametrize("d", [2, 3, 26])
def test_digit_guard_leaves_the_last_printable_radii_to_the_exact_check(d):
    for size in (ball_size, sphere_size):
        n = largest_printable(size, d)
        for m in range(n - 2, n + 6):
            try:
                check_power_digits(2 * d - 1, m)
            except ResourceGuardError:
                assert m > n  # it refuses only counts past the limit
            else:
                assert m <= n + 3  # and refuses them within a digit or so
            if m <= n:
                assert printable(size(d, m)) == size(d, m)
            else:
                with pytest.raises(ResourceGuardError):
                    printable(size(d, m))


def test_largest_printable_radius_exits_0(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    for verb, size in ((["growth"], ball_size), (["cogrowth", "--quotient", "trivial"], sphere_size)):
        n = largest_printable(size, 26)
        assert main([*verb, "--rank", "26", "--steps", str(n), "--out", out]) == 0
        assert main([*verb, "--rank", "26", "--steps", str(n + 1), "--out", out]) == 3
    assert capsys.readouterr().err.count("digits; lower --steps\n") == 2


def test_memory_error_maps_to_exit_3(capsys, monkeypatch):
    import gwel.cli as cli

    def oom(args):
        raise MemoryError

    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=oom))
    assert main(["growth"]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory\n"


def test_keyboard_interrupt_maps_to_exit_130(capsys, monkeypatch):
    import gwel.cli as cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._VERBS, "growth", cli._VERBS["growth"]._replace(run=interrupted))
    assert main(["growth"]) == 130
    assert capsys.readouterr().err == "error: interrupted\n"


def test_zero_threads_is_refused(capsys):
    assert main(["growth", "--threads", "0"]) == 2
    assert capsys.readouterr().err == "error: thread count must be >= 1\n"


def test_help_documents_seed(capsys):
    with pytest.raises(SystemExit) as e:
        main(["drift", "--help"])
    assert e.value.code == 0
    assert "0xD0DD5" in capsys.readouterr().out


# not ASCII, or past int()'s default limit of 4300 digits
BAD_DIGITS = {"superscript": "\u00b2", "5000-digits": "9" * 5000}


@pytest.mark.parametrize("digits", list(BAD_DIGITS))
@pytest.mark.parametrize("line", ["perm: a=(1 {})", "points {}", "chain 1,{}", "weights random:{}"])
def test_bad_integer_literal_exits_2_with_one_line(line, digits, tmp_path, capsys):
    line = line.format(BAD_DIGITS[digits])
    if line.startswith("perm:"):
        argv = ["cogrowth", "--quotient", line]
    else:
        lines = {"points": "points 2", "direction": "direction increasing", "chain": "chain 1,2"}
        lines[line.split()[0]] = line
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines.values()) + "\n", encoding="utf-8")
        argv = ["lattice-experiment", "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# a 5000-character token is quoted by its first 20 characters and its
# length; ASCII digits past int()'s limit are named with that limit
LONG_TOKENS = {
    "chain 1,{digits}": f"line 3: chain point has 5000 digits, more than int() converts ({LIMIT})",
    "points {digits}": f"line 1: points has 5000 digits, more than int() converts ({LIMIT})",
    "weights random:{digits}": f"line 4: random seed has 5000 digits, more than int() converts ({LIMIT})",
    "chain 1,{text}": "line 3: bad point 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters) in chain partition",
    "weights 1,{text}": "line 4: bad weight 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)",
    "{text} 1": "line 4: unknown directive 'xxxxxxxxxxxxxxxxxxxx'... (5000 characters)",
}


@pytest.mark.parametrize("line", list(LONG_TOKENS))
def test_long_config_tokens_give_one_short_line(line, tmp_path, capsys):
    text = line.format(digits="9" * 5000, text="x" * 5000)
    lines = {"points": "points 2", "direction": "direction increasing", "chain": "chain 1,2"}
    key = line.split()[0]
    if key in lines:
        lines[key] = text
    else:
        lines["extra"] = text
    cfg = tmp_path / "long.cfg"
    cfg.write_text("\n".join(lines.values()) + "\n", encoding="utf-8")
    assert main(["lattice-experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {LONG_TOKENS[line]}\n"
    assert len(err.encode()) < 200


# a number of 4000 digits is named by its first 20 digits and its count
NINES = "9" * 4000


@pytest.mark.parametrize("argv, config, message", [
    (["cogrowth", "--quotient", f"perm: a=(1 {NINES} {NINES})"], None,
     "position 4013: point 99999999999999999999... (4000 digits) repeated in cycles"),
    (["lattice-experiment"], f"points 3\ndirection increasing\nchain 1,{NINES}|2,3\n",
     "line 3: point 99999999999999999999... (4000 digits) outside 1..3"),
])
def test_huge_points_give_one_short_line(argv, config, message, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


def parse_outcome(parse, argv, capsys):
    """The namespace or how parsing stopped, and what it printed."""
    try:
        outcome = vars(parse(argv))
    except SystemExit as e:
        outcome = ("exit", e.code)
    except cli._UsageError as e:
        outcome = ("usage error", str(e))
    printed = capsys.readouterr()
    return outcome, printed.out, printed.err


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_one_verb_parser_parses_like_the_full_parser(verb, capsys):
    # valid flags, help, the verb alone (a missing required option for
    # cogrowth, gap-check and lattice-experiment), an option without its
    # value, a bad integer, an unknown option and a stray positional
    cases = [EDGE_BASE[verb], ["-h"], [], ["--rank"], ["--rank", "x"], ["--bogus", "1"], ["extra"]]
    outcomes = set()
    for flags in cases:
        argv = [verb, *flags]
        want = parse_outcome(cli.build_parser().parse_args, argv, capsys)
        assert parse_outcome(cli._parse, argv, capsys) == want, argv
        outcomes.add(type(want[0]).__name__ if isinstance(want[0], dict) else want[0][0])
    assert outcomes == {"dict", "exit", "usage error"}


@pytest.mark.parametrize("rank", ["0", "1", "-3"])
@pytest.mark.parametrize("spec", ["trivial", "abelian", "relators: aa", "perm: a=(1 2)"])
@pytest.mark.parametrize("verb", ["walk-entropy", "cogrowth", "gap-check"])
def test_quotient_spec_rejects_rank_below_2(verb, spec, rank, capsys):
    assert main([verb, "--quotient", spec, "--rank", rank, "--steps", "2"]) == 2
    assert capsys.readouterr().err == f"error: rank must be >= 2, got {rank}\n"


GOLDEN = Path(__file__).parent / "golden"
# a fast run of every verb; an edge case's flags are appended, and the
# last occurrence of a flag wins
EDGE_BASE = {
    "walk-entropy": ["--steps", "3"],
    "drift": ["--steps", "5", "--trials", "4"],
    "growth": ["--steps", "3"],
    "cogrowth": ["--quotient", "trivial", "--steps", "3"],
    "gap-check": ["--quotient", "trivial", "--steps", "2"],
    "guivarch": ["--steps", "5", "--trials", "4"],
    "theorem-a": [],
    "boundary-entropy": [],
    "proximality": ["--steps", "5", "--trials", "2", "--prefix-depth", "2"],
    "lattice-experiment": ["--config", str(GOLDEN / "chain.cfg")],
}
EDGE_CASES = {
    **{f"rank{r}": ["--rank", r] for r in ("0", "1", "27", "-3")},
    **{f"steps{s}": ["--steps", s] for s in ("0", "-1")},
    **{f"trials{t}": ["--trials", t] for t in ("0", "1")},
    "seed-1": ["--seed", "-1"],
    "prefix-past-steps": ["--steps", "2", "--prefix-depth", "5"],
    "empty-quotient": ["--quotient", ""],
    "missing-config": ["--config", str(GOLDEN / "no-such.cfg")],
}


@pytest.mark.parametrize("case", list(EDGE_CASES))
@pytest.mark.parametrize("verb", list(EDGE_BASE))
def test_edge_values_give_a_report_or_one_error_line(verb, case, capsys):
    code = main([verb, *EDGE_BASE[verb], *EDGE_CASES[case]])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code in (2, 3, 4)
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err

"""Report bytes pinned against recorded JSON files in tests/golden/.

Each case is a CLI argv; its report must equal `golden/<name>.json` byte
for byte.  The cases are the criterion-10 verbs plus the quotient
families (abelian, trivial, `perm:` quotients of order 6 and 720) on walk-entropy,
cogrowth and gap-check, a long free-group entropy series and big-int
ball counts.  After an intended change to report bytes,
rewrite the files with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of tests/golden/.
"""

from pathlib import Path

import pytest

from gwel.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
S3 = "perm: a=(1 2 3); b=(1 2)"
KLEIN = "relators: aa, bb, abab"
S6 = "perm: a=(1 2 3 4 5 6); b=(1 2)"

# argv per case; the lattice config path is relative to tests/, because
# the report echoes it
CASES = {
    "walk_entropy": ["walk-entropy", "--steps", "30"],
    # at step 600, 89 of the 301 nonzero radial masses lie below 2^-80
    "walk_entropy_600": ["walk-entropy", "--steps", "600"],
    "drift": ["drift", "--steps", "2000", "--trials", "200"],
    "growth": ["growth", "--steps", "8"],
    # ball counts reach about 5^300, far past 2^63
    "growth_rank3": ["growth", "--rank", "3", "--steps", "300"],
    "cogrowth_klein": ["cogrowth", "--quotient", KLEIN, "--steps", "8"],
    "gap_check_klein": ["gap-check", "--quotient", KLEIN, "--steps", "4"],
    "guivarch": ["guivarch", "--steps", "2000", "--trials", "200"],
    "theorem_a": ["theorem-a", "--rank", "3"],
    "boundary_entropy": ["boundary-entropy", "--rank", "3"],
    "proximality": ["proximality", "--steps", "30", "--trials", "20"],
    "lattice_experiment": ["lattice-experiment", "--config", "golden/chain.cfg"],
    "lattice_experiment_random": [
        "lattice-experiment", "--config", "golden/chain_random.cfg",
    ],
    "walk_entropy_abelian": ["walk-entropy", "--quotient", "abelian", "--steps", "40"],
    "walk_entropy_trivial": ["walk-entropy", "--quotient", "trivial", "--steps", "5"],
    "cogrowth_abelian": ["cogrowth", "--quotient", "abelian"],
    "cogrowth_trivial": ["cogrowth", "--quotient", "trivial"],
    "cogrowth_s3": ["cogrowth", "--quotient", S3],
    "gap_check_abelian": ["gap-check", "--quotient", "abelian"],
    "gap_check_trivial": ["gap-check", "--quotient", "trivial"],
    "gap_check_s3": ["gap-check", "--quotient", S3],
    # S_6 has 720 elements; the cogrowth counts pass 2^63 by radius 60
    "walk_entropy_s6": ["walk-entropy", "--quotient", S6, "--steps", "40"],
    "cogrowth_s6": ["cogrowth", "--quotient", S6, "--steps", "60"],
}


def report_bytes(name, out):
    code = main(CASES[name] + ["--out", str(out)])
    assert code == 0, CASES[name]
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(TESTS)
    got = report_bytes(name, tmp_path / "report.json")
    assert got == (GOLDEN / f"{name}.json").read_bytes(), name


if __name__ == "__main__":
    import os

    os.chdir(TESTS)
    for case in CASES:
        path = GOLDEN / f"{case}.json"
        report_bytes(case, path)
        print(f"wrote {path}")

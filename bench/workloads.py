"""The benchmark's workloads, built from a seed.

Each workload is a fixed list of operations.  An operation is either a CLI
verb run through `gwel.cli.main(argv)` or a public library call.  The
seed derives every `--seed` passed to gwel, a relabelling of the points
that S_8 acts on, the random cocycle words and the lattice weights;
gwel receives only the generated inputs.  The same seed gives the same
inputs, and no seed changes how much work an operation does.

Sizes are scaled so that one pass takes a few seconds on a 2-core
machine; `run.py` repeats passes for the run length.
"""

from __future__ import annotations

import random

# Why each workload exists, next to its definition.
WHY = {
    "free-walk": (
        "CLI verbs on F_2 only: entropy, reports, proximality and ball counts; "
        "never builds a quotient, and runs drift/proximality with --threads 2"
    ),
    "quotient": (
        "CLI verbs on quotients: coset enumeration, S_8 closure, transfer counts, "
        "power iteration, convolution powers, Z^2 grid and one coset-guard trip"
    ),
    "boundary-exact": (
        "library calls on the rational boundary calculus: Word validation and "
        "sphere sums dominate; no quotient, no large report; one lattice run"
    ),
}

THREADS = 2  # ops that take --threads use 2; the sizes were chosen on a 2-core machine


def _seed(rng):
    return rng.randrange(2**32)


def _cli(name, argv, exit_code=0, stderr_lines=0, **ref):
    return {
        "name": name,
        "kind": "cli",
        "argv": argv,
        "exit": exit_code,
        "stderr_lines": stderr_lines,
        "ref": ref,
    }


def free_walk(rng, threads):
    """Why: exercises `entropy` (O(n^2) radial loop, Monte Carlo drift),
    `reports` (a proximality report of 3*10^4 rows), the proximality path
    of `boundary` and `growth.ball_counts`, and never builds a quotient.
    It is the bypass workload for quotient and closed-form changes, and
    the one that shows a real --threads."""
    t = str(threads)
    ops = [
        _cli("free_walk_entropy", ["walk-entropy", "--steps", "1500", "--seed", str(_seed(rng))]),
        _cli(
            "free_drift",
            ["drift", "--steps", "2000", "--trials", "5000", "--threads", t,
             "--seed", str(_seed(rng))],
        ),
        _cli("free_guivarch", ["guivarch", "--seed", str(_seed(rng))]),
        _cli(
            "free_proximality",
            ["proximality", "--steps", "500", "--trials", "60", "--threads", t,
             "--seed", str(_seed(rng))],
        ),
        _cli("free_growth", ["growth", "--steps", "600", "--seed", str(_seed(rng))]),
        _cli("free_boundary_entropy", ["boundary-entropy", "--rank", "3", "--seed", str(_seed(rng))]),
        _cli("free_theorem_a", ["theorem-a", "--rank", "3", "--seed", str(_seed(rng))]),
    ]
    return ops, {}


def _relabelled_sym_spec(rng, m):
    """S_m from an m-cycle and a transposition, conjugated by a seeded
    relabelling of the points: the same group, other inputs."""
    sigma = list(range(1, m + 1))
    rng.shuffle(sigma)
    a = tuple(sigma)
    b = (sigma[0], sigma[1])
    spec = "perm: a=(" + " ".join(map(str, a)) + "); b=(" + " ".join(map(str, b)) + ")"
    return spec, {"points": m, "a_cycle": a, "b_cycle": b}


def quotient(rng, threads):
    """Why: `quotients`, `growth`, `measures` and the quotient dynamic
    programs in `entropy` do nearly all the work.  The guard trip
    measures how fast a resource guard fires."""
    del threads
    s8, s8_ref = _relabelled_sym_spec(rng, 8)
    # Relator presentations stay fixed: coset enumeration work depends on
    # relator order and rotation (up to 5x for Z_100 x Z_100).
    n = 100
    zn = f"relators: {'a' * n}, {'b' * n}, abAB"
    klein = "relators: aa, bb, abab"
    guard = "relators: aaa, bbb, ababab"
    ops = [
        _cli("s8_walk_entropy",
             ["walk-entropy", "--quotient", s8, "--steps", "100", "--seed", str(_seed(rng))],
             group="sym", **s8_ref),
        _cli("s8_cogrowth",
             ["cogrowth", "--quotient", s8, "--steps", "24", "--seed", str(_seed(rng))],
             group="sym", **s8_ref),
        _cli("zn2_cogrowth",
             ["cogrowth", "--quotient", zn, "--steps", "12", "--seed", str(_seed(rng))],
             group="torus", order=n),
        _cli("klein_gap_check",
             ["gap-check", "--quotient", klein, "--steps", "8", "--seed", str(_seed(rng))],
             group="torus", order=2),
        _cli("z2_walk_entropy",
             ["walk-entropy", "--quotient", "abelian", "--steps", "200", "--seed", str(_seed(rng))]),
        _cli("z2_cogrowth",
             ["cogrowth", "--quotient", "abelian", "--steps", "16", "--seed", str(_seed(rng))]),
        _cli("guard_trip",
             ["cogrowth", "--quotient", guard, "--max-cosets", "100000",
              "--seed", str(_seed(rng))],
             exit_code=3, stderr_lines=1),
    ]
    return ops, {}


def _reduced_word(rng, d, length):
    out = []
    while len(out) < length:
        letter = rng.choice((1, -1)) * rng.randint(1, d)
        if out and out[-1] == -letter:
            continue
        out.append(letter)
    return out


def _all_reduced(d, max_len):
    """Every reduced word of length <= max_len, as letter lists."""
    letters = [s * i for i in range(1, d + 1) for s in (1, -1)]
    level = [[]]
    out = [[]]
    for _ in range(max_len):
        level = [w + [t] for w in level for t in letters if not w or w[-1] != -t]
        out.extend(level)
    return out


ROWS, COLS = 8, 64  # lattice points are (row, column); the action shifts rows


def _lattice_config(rng):
    """A 512-point space with seeded weights, the row-shift action and an
    increasing chain of invariant partitions, from one block to points."""
    m = ROWS * COLS
    raw = [rng.random() + 0.5 for _ in range(m)]
    total = sum(raw)
    weights = [v / total for v in raw]
    weights[-1] = 1.0 - sum(weights[:-1])
    cycles = "".join(
        "(" + " ".join(str(r * COLS + c + 1) for r in range(ROWS)) + ")" for c in range(COLS)
    )
    chain = []  # each partition as a block id per point
    for row_mod in (1, 2, 4, 8):
        chain.append([(p // COLS) % row_mod for p in range(m)])
    width = COLS // 2
    while width >= 1:
        chain.append([(p // COLS) * COLS + (p % COLS) // width for p in range(m)])
        width //= 2
    lines = [f"points {m}", "weights " + ", ".join(repr(w) for w in weights),
             f"action a={cycles}", "direction increasing"]
    for blocks in chain:
        groups: dict = {}
        for p, b in enumerate(blocks):
            groups.setdefault(b, []).append(str(p + 1))
        lines.append("chain " + "|".join(",".join(g) for g in groups.values()))
    text = "\n".join(lines) + "\n"
    return text, {"weights": weights, "chain": chain, "rows": ROWS, "cols": COLS}


def boundary_exact(rng, threads):
    """Why: `words` (building and validating Word objects) and the sphere
    sums in `boundary` dominate; the workload never touches a quotient or
    the JSON of a large report.  The lattice run is a small share."""
    del threads
    d = 2
    triples = []
    for _ in range(10**4):
        g = _reduced_word(rng, d, rng.randrange(0, 4))
        h = _reduced_word(rng, d, rng.randrange(0, 4))
        w = _reduced_word(rng, d, len(g) + len(h) + 1 + rng.randrange(0, 2))
        triples.append([g, h, w])
    rn_words = _all_reduced(2, 4)
    kl_words = _all_reduced(3, 3)
    rng.shuffle(rn_words)
    rng.shuffle(kl_words)
    config, lattice_ref = _lattice_config(rng)
    ops = [
        {"name": "cocycle", "kind": "cocycle", "d": d, "triples": triples},
        {"name": "rn_integral", "kind": "rn_integral", "d": 2, "words": rn_words},
        {"name": "kl_coefficient", "kind": "kl_coefficient", "d": 3, "words": kl_words},
        {"name": "boundary_coefficient", "kind": "boundary_coefficient", "ranks": [2, 3, 4, 5]},
        _cli("lattice", ["lattice-experiment", "--config", "{work}/lattice.cfg",
                         "--seed", str(_seed(rng))], **lattice_ref),
    ]
    return ops, {"lattice.cfg": config}


BUILDERS = {"free-walk": free_walk, "quotient": quotient, "boundary-exact": boundary_exact}

# Ops rerun with --threads 1, outside the timed passes, to check that the
# report bytes do not depend on the thread count.
THREAD_CHECKED = ("free_drift", "free_proximality")


def build(workload, seed, threads=THREADS):
    """(ops, files) for one workload: the op list and the input files it
    reads, relative to the run's work directory."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, threads)


def with_threads(op, threads):
    """A copy of a CLI op with its --threads value replaced."""
    argv = list(op["argv"])
    argv[argv.index("--threads") + 1] = str(threads)
    return {**op, "argv": argv}


def op_names():
    """Every op name of every workload, in workload order."""
    return [op["name"] for name in BUILDERS for op in build(name, 0)[0]]

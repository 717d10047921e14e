"""Independent references for every benchmark operation.

Nothing here calls gwel.  Each checker takes an op spec and the op's
output bytes and returns a list of problems; an empty list means the
output is right.  References are closed forms where the mathematics
gives one, otherwise short numpy programs that share no code with gwel
(finite-group walks and non-backtracking transfer counts over explicit
multiplication tables).  Floats are compared with a relative tolerance,
so a later change that moves a last printed digit still passes.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

RTOL = 1e-9


def h_rw(d):
    """Avez entropy of the simple random walk on F_d."""
    return (d - 1) / d * math.log(2 * d - 1)


def _close(a, b, rtol=RTOL, atol=1e-12):
    return a is not None and abs(a - b) <= max(rtol * abs(b), atol)


def radial_laws(d, n):
    """Laws of the radius |w_k|, k = 1..n, of the simple random walk on
    F_d: a birth-death chain that steps up with probability (2d-1)/(2d)
    and always steps up from 0."""
    q = 2 * d - 1
    p = np.zeros(n + 2)
    p[0] = 1.0
    for _ in range(n):
        new = np.zeros_like(p)
        new[1] += p[0]
        new[2:] += p[1:-1] * (q / (2 * d))
        new[:-2] += p[1:-1] / (2 * d)
        p = new
        yield p


def radial_entropies(d, n):
    """H(mu^k), k = 1..n, on F_d: mu^k is uniform on each sphere."""
    log_sphere = np.concatenate(([0.0], math.log(2 * d) + np.arange(n + 1) * math.log(2 * d - 1)))
    out = []
    for p in radial_laws(d, n):
        m = p > 0
        out.append(float(np.sum(p[m] * (log_sphere[m] - np.log(p[m])))))
    return out


def mean_drift(d, n):
    """E|w_n| / n exactly.  It tends to (d-1)/d, but at n steps it lies
    about 0.75/n above it for d = 2 (reflection at the identity), which
    is more than a standard error of a 5000-trial estimate at n = 2000."""
    for p in radial_laws(d, n):
        pass
    return float(np.dot(np.arange(n + 2), p)) / n


def binomial_z2_entropies(n):
    """H(mu^k) on Z^2 is 2 H(Bin(k, 1/2)): rotated by 45 degrees the walk
    is two independent +-1 walks."""
    out = []
    for k in range(1, n + 1):
        terms = []
        for j in range(k + 1):
            logp = math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1) - k * math.log(2)
            terms.append(-math.exp(logp) * logp)
        out.append(2 * math.fsum(terms))
    return out


def sym_tables(ref):
    """Right-multiplication tables (a, A, b, B) of S_m acting on the
    generators given as point cycles, plus the identity index."""
    m = ref["points"]
    gens = []
    for cycle in (ref["a_cycle"], ref["b_cycle"]):
        perm = list(range(m))
        for x, y in zip(cycle, cycle[1:] + cycle[:1]):
            perm[x - 1] = y - 1
        gens.append(perm)
    elems = list(itertools.permutations(range(m)))
    index = {e: i for i, e in enumerate(elems)}
    tables = []
    for s in gens:
        fwd = np.fromiter((index[tuple(s[j] for j in e)] for e in elems), np.int64, len(elems))
        tables.extend((fwd, _inverse(fwd)))
    return tables, index[tuple(range(m))]


def torus_tables(order):
    """Tables (a, A, b, B) of Z_order x Z_order, element x*order + y."""
    x, y = np.divmod(np.arange(order * order), order)
    a = ((x + 1) % order) * order + y
    b = x * order + (y + 1) % order
    return [a, _inverse(a), b, _inverse(b)], 0


def _inverse(perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def finite_entropies(tables, e, n):
    """H(mu'^k), k = 1..n, for the simple random walk on a finite group."""
    vec = np.zeros(len(tables[0]))
    vec[e] = 1.0
    out = []
    for _ in range(n):
        new = np.zeros_like(vec)
        for t in tables:
            new[t] += vec
        vec = new / len(tables)
        nz = vec[vec > 0]
        out.append(float(-(nz * np.log(nz)).sum()))
    return out


def kernel_counts(tables, e, n):
    """Reduced words of each length 0..n that map to the identity,
    counted by a non-backtracking transfer over (element, last letter).
    Column c ^ 1 is the inverse letter of column c."""
    size, nc = len(tables[0]), len(tables)
    vec = np.zeros((size, nc), dtype=np.int64)
    counts = [1]
    for step in range(1, n + 1):
        new = np.zeros_like(vec)
        if step == 1:
            for c, t in enumerate(tables):
                new[t[e], c] = 1
        else:
            tot = vec.sum(axis=1)
            for c, t in enumerate(tables):
                new[t, c] = tot - vec[:, c ^ 1]
        vec = new
        counts.append(int(vec[e].sum()))
    return counts


def ball_size(d, n):
    """|B(n)| in F_d by the geometric sum 1 + 2d((2d-1)^n - 1)/(2d-2)."""
    return (d * (2 * d - 1) ** n - 1) // (d - 1)


def kl_closed_form(d, length):
    """KL coefficient of a word of the given length:
    |g| - (1/d) sum_{j<|g|} (2d-1)^-j."""
    return length - Fraction(1, d) * sum(Fraction(1, (2 * d - 1) ** j) for j in range(length))


# -- checkers --------------------------------------------------------------


def _cli_parts(op, data):
    head, _, body = data.partition(b"\n")
    status = json.loads(head)
    problems = []
    if status["exit"] != op["exit"]:
        problems.append(f"exit code {status['exit']}, expected {op['exit']}")
    lines = status["stderr"].splitlines()
    if len(lines) != op["stderr_lines"]:
        problems.append(f"{len(lines)} stderr lines, expected {op['stderr_lines']}")
    report = json.loads(body) if op["exit"] == 0 and body else None
    if op["exit"] == 0 and report is None:
        problems.append("no report written")
    return report, problems


def _arg(op, flag):
    argv = op["argv"]
    return argv[argv.index(flag) + 1]


def _series_close(name, got, want, problems):
    if len(got) != len(want):
        problems.append(f"{name}: {len(got)} values, expected {len(want)}")
        return
    for k, (g, w) in enumerate(zip(got, want), start=1):
        if not _close(g, w):
            problems.append(f"{name}[{k}] = {g!r}, reference {w!r}")
            return


def _counts_rows(report, want, problems):
    rows = report["series"]["rows"]
    counts = [r[1] for r in rows]
    if counts != want:
        problems.append(f"counts {counts[:8]}..., reference {want[:8]}...")
    for n, c, ratio in rows:
        expect = math.log(c) / n if n > 0 and c > 0 else None
        if (ratio is None) != (expect is None) or (expect is not None and not _close(ratio, expect)):
            problems.append(f"log ratio at n={n}: {ratio!r}, reference {expect!r}")
            return


def _delta_is_log3(report, problems):
    delta = report["summary"]["delta"]
    if not _close(delta, math.log(3), rtol=1e-6):
        problems.append(f"delta {delta!r}, reference log 3")


def _entropy_rows(report, want, problems):
    rows = report["series"]["rows"]
    _series_close("H", [r[1] for r in rows], want, problems)
    prev = 0.0
    for k, h, hn, inc in rows:
        # the printed H carries 12 digits, so its differences carry fewer
        if not (_close(hn, h / k) and _close(inc, h - prev, atol=1e-10 * max(1.0, abs(h)))):
            problems.append(f"H_over_n or increment at {k}")
            return
        prev = h


def _free_walk_entropy(op, report, problems):
    n = int(_arg(op, "--steps"))
    _entropy_rows(report, radial_entropies(2, n), problems)
    s = report["summary"]
    if not _close(s["h_rw_exact"], h_rw(2)):
        problems.append("h_rw_exact")
    # H(mu^n) = h n + (1/2) log n + O(1), so the last increment exceeds h by about 1/(2n)
    if not 0 < s["last_increment"] - h_rw(2) < 1.0 / n:
        problems.append(f"last increment {s['last_increment']!r} not within 1/n above h_RW")


def _drift_ok(report, est, se, problems):
    want = mean_drift(2, report["params"]["steps"])
    if not abs(est - want) <= 4 * se:
        problems.append(f"drift {est!r} not within 4 SE ({se!r}) of its mean {want!r}")


def _free_drift(op, report, problems):
    s = report["summary"]
    _drift_ok(report, s["estimate"], s["stderr"], problems)
    if s["exact_drift"] != 0.5:
        problems.append("exact_drift")


def _free_guivarch(op, report, problems):
    s = report["summary"]
    _drift_ok(report, s["drift_estimate"], s["drift_stderr"], problems)
    for key, want in (("h_exact", h_rw(2)), ("v_exact", math.log(3)), ("drift_exact", 0.5),
                      ("product", s["drift_estimate"] * math.log(3))):
        if not _close(s[key], want):
            problems.append(f"{key} {s[key]!r}, reference {want!r}")


def _free_proximality(op, report, problems):
    d, k = 2, 3
    steps, trials = int(_arg(op, "--steps")), int(_arg(op, "--trials"))
    rows = report["series"]["rows"]
    if len(rows) != steps * trials:
        problems.append(f"{len(rows)} rows, expected {steps * trials}")
        return
    prev = None
    for i, (trial, step, length, mass, shallow) in enumerate(rows):
        if (trial, step - 1) != divmod(i, steps):
            problems.append(f"row {i}: trial/step {trial}/{step}")
            return
        last = 0 if step == 1 else prev
        if abs(length - last) != 1:
            problems.append(f"row {i}: length {length} after {last}")
            return
        prev = length
        if length < k:
            ok = mass is None and not shallow
        else:
            want = float(1 - Fraction(1, 2 * d * (2 * d - 1) ** (length - k)))
            ok = _close(mass, want) and shallow == (length == k)
        if not ok:
            problems.append(f"row {i}: mass {mass!r} shallow {shallow!r} at length {length}")
            return


def _free_growth(op, report, problems):
    n = int(_arg(op, "--steps"))
    _counts_rows(report, [ball_size(2, k) for k in range(n + 1)], problems)


def _free_boundary_entropy(op, report, problems):
    d = int(_arg(op, "--rank"))
    s = report["summary"]
    coeff = Fraction(d - 1, d)
    if not _close(s["h_nats"], h_rw(d)):
        problems.append(f"h_nats {s['h_nats']!r}, reference {h_rw(d)!r}")
    if s["coefficient"] != {"num": coeff.numerator, "den": coeff.denominator}:
        problems.append(f"coefficient {s['coefficient']!r}")
    rows = report["series"]["rows"]
    if len(rows) != 2 * d:
        problems.append(f"{len(rows)} generator rows")
    for gen, c, nats in rows:
        want = float(kl_closed_form(d, 1))
        if not (_close(c, want) and _close(nats, want * math.log(2 * d - 1))):
            problems.append(f"kl row {gen}: {c!r}, {nats!r}")


def _free_theorem_a(op, report, problems):
    d = int(_arg(op, "--rank"))
    s = report["summary"]
    ratio = Fraction(d - 2, 2 * d - 2)
    if not _close(s["bound"], float(ratio) * h_rw(d)):
        problems.append(f"bound {s['bound']!r}")
    log_coeff = ratio * Fraction(d - 1, d)
    if s["coefficient_of_log"] != {"num": log_coeff.numerator, "den": log_coeff.denominator}:
        problems.append(f"coefficient_of_log {s['coefficient_of_log']!r}")


def _group(op):
    ref = op["ref"]
    if ref["group"] == "sym":
        return sym_tables(ref)
    return torus_tables(ref["order"])


def _s8_walk_entropy(op, report, problems):
    tables, e = _group(op)
    n = int(_arg(op, "--steps"))
    _entropy_rows(report, finite_entropies(tables, e, n), problems)


def _quotient_cogrowth(op, report, problems):
    tables, e = _group(op)
    n = int(_arg(op, "--steps"))
    _counts_rows(report, kernel_counts(tables, e, n), problems)
    _delta_is_log3(report, problems)


def _klein_gap_check(op, report, problems):
    tables, e = _group(op)
    n = int(_arg(op, "--steps"))
    free = radial_entropies(2, n)
    quot = finite_entropies(tables, e, n)
    balls = list(itertools.accumulate(kernel_counts(tables, e, 2 * n)))
    rows = report["series"]["rows"]
    if len(rows) != n:
        problems.append(f"{len(rows)} rows, expected {n}")
        return
    for k, hf, hq, gap, gap_k, bound, lb_k, lb_2k in rows:
        ok = _close(hf, free[k - 1]) and _close(hq, quot[k - 1], atol=1e-10)
        ok = ok and _close(gap, hf - hq, atol=1e-10) and _close(gap_k, gap / k, atol=1e-10)
        # the gap is a conditional entropy, at most the log of the coset support sizes
        ok = ok and (bound is None or gap <= bound + 1e-9)
        for r, lb in ((k, lb_k), (2 * k, lb_2k)):
            ok = ok and (lb is None or _close(lb, math.log(balls[r])))
        if not ok:
            problems.append(f"gap-check row {k} disagrees with the reference")
            return
    _delta_is_log3(report, problems)
    if not report["summary"]["lemma_holds"]:
        problems.append("lemma_holds is false")


def _z2_walk_entropy(op, report, problems):
    n = int(_arg(op, "--steps"))
    _entropy_rows(report, binomial_z2_entropies(n), problems)


def _z2_cogrowth(op, report, problems):
    n = int(_arg(op, "--steps"))
    # words of length <= n never wrap round a torus of side 2n + 1
    tables, e = torus_tables(2 * n + 1)
    _counts_rows(report, kernel_counts(tables, e, n), problems)
    _delta_is_log3(report, problems)


def _guard_trip(op, report, problems):
    pass  # exit code 3 and a single stderr line are checked for every CLI op


def _lattice(op, report, problems):
    ref = op["ref"]
    w = np.array(ref["weights"])
    rows_n, cols = ref["rows"], ref["cols"]
    p = np.arange(len(w))
    shift = {1: ((p // cols + 1) % rows_n) * cols + p % cols,
             -1: ((p // cols - 1) % rows_n) * cols + p % cols}
    blocks, functionals = [], []
    for assignment in ref["chain"]:
        ids, block = np.unique(np.array(assignment), return_inverse=True)
        bw = np.bincount(block, weights=w)
        first = np.array([np.flatnonzero(block == b)[0] for b in range(len(ids))])
        terms = [0.5 * np.sum(bw * (np.log(bw) - np.log(bw[block[shift[s][first]]])))
                 for s in (1, -1)]
        blocks.append(len(ids))
        functionals.append(math.fsum(terms))
    rows = report["series"]["rows"]
    if len(rows) != len(blocks):
        problems.append(f"{len(rows)} chain rows, expected {len(blocks)}")
        return
    for (step, nb, dist, func), b, f in zip(rows, blocks, functionals):
        # nested conditional expectations differ by a projection of rank b_limit - b
        want = math.sqrt(blocks[-1] - b)
        if nb != b or not _close(dist, want, atol=1e-9) or not _close(func, f, atol=1e-12):
            problems.append(f"chain step {step}: {nb}, {dist!r}, {func!r}; reference {b}, {want!r}, {f!r}")
            return
    s = report["summary"]
    want = {"limit_blocks": blocks[-1], "stabilized_at": len(blocks) - 1,
            "distances_non_increasing": True, "functional_monotone": True}
    for key, value in want.items():
        if s[key] != value:
            problems.append(f"{key} {s[key]!r}, expected {value!r}")
    if not _close(s["functional_limit"], functionals[-1], atol=1e-12):
        problems.append("functional_limit")


CLI_CHECKS = {
    "free_walk_entropy": _free_walk_entropy,
    "free_drift": _free_drift,
    "free_guivarch": _free_guivarch,
    "free_proximality": _free_proximality,
    "free_growth": _free_growth,
    "free_boundary_entropy": _free_boundary_entropy,
    "free_theorem_a": _free_theorem_a,
    "s8_walk_entropy": _s8_walk_entropy,
    "s8_cogrowth": _quotient_cogrowth,
    "zn2_cogrowth": _quotient_cogrowth,
    "klein_gap_check": _klein_gap_check,
    "z2_walk_entropy": _z2_walk_entropy,
    "z2_cogrowth": _z2_cogrowth,
    "guard_trip": _guard_trip,
    "lattice": _lattice,
}


def _library_check(op, data):
    kind = op["kind"]
    if kind == "cocycle":
        got = json.loads(data)
        if got != [True] * len(op["triples"]):
            return [f"{got.count(False)} cocycle identities fail"]
        return []
    got = [Fraction(n, d) for n, d in json.loads(data)]
    if kind == "rn_integral":
        want = [Fraction(1)] * len(op["words"])
    elif kind == "kl_coefficient":
        want = [kl_closed_form(op["d"], len(g)) for g in op["words"]]
    else:  # boundary_coefficient: the srw coefficient of log(2d-1) is (d-1)/d
        want = [Fraction(d - 1, d) for d in op["ranks"]]
    if got != want:
        bad = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
        return [f"{bad} of {len(want)} values differ from the closed form"]
    return []


def check(op, data):
    """Problems with one op output; [] when it matches the reference."""
    if op["kind"] != "cli":
        return _library_check(op, data)
    report, problems = _cli_parts(op, data)
    if report is not None:
        try:
            CLI_CHECKS[op["name"]](op, report, problems)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            problems.append(f"malformed report: {type(e).__name__}: {e}")
    return problems

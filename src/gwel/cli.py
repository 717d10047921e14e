"""Command-line front end.

Verbs: walk-entropy, drift, growth, cogrowth, gap-check, guivarch,
theorem-a, boundary-entropy, proximality, lattice-experiment.  Exit
codes: 0 success, 2 parameter or parse error, 3 resource guard or out of
memory, 4 non-convergence or a non-finite report value, 130 interrupted.
Reports are deterministic: identical inputs give byte-identical JSON for
any --threads value, so the thread cap, the output path, and the format
are not echoed into the report body.

--threads is reserved, validated and then unused: the per-walk Philox
draws of drift and proximality, its only candidates, measured no faster
on two threads (see the README's "Common flags").
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from . import boundary, entropy, growth, lattice, measures, parsing, quotients
from .errors import GwelError, ParameterError, ResourceGuardError
from .reports import Column, Report, Table, check_power_digits, emit_report, printable
from .words import LETTERS, ball_size, sphere_size

DEFAULT_SEED = 0xD0DD5  # documented default master seed


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _add_common(sub, steps_default=None, trials_default=None):
    sub.add_argument("--rank", type=int, default=2, help="free group rank d (default 2)")
    if steps_default is not None:
        sub.add_argument(
            "--steps", type=int, default=steps_default,
            help=f"number of steps (default {steps_default})",
        )
    if trials_default is not None:
        sub.add_argument(
            "--trials", type=int, default=trials_default,
            help=f"number of Monte Carlo trials (default {trials_default})",
        )
    sub.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"master RNG seed (default 0x{DEFAULT_SEED:X})",
    )
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument(
        "--threads", type=int, default=1,
        help="reserved worker cap, validated but unused: the per-walk random "
        "draws measured no faster on two threads; results are byte-identical "
        "for any value",
    )
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="report format (default json)",
    )
    return sub


def _add_quotient(sub, required=False):
    sub.add_argument(
        "--quotient", required=required, default=None,
        help="quotient spec: trivial | abelian | relators: w1, w2, ... | "
        "perm: a=(1 2); b=(1 3)",
    )
    sub.add_argument(
        "--max-cosets", type=int, default=quotients.DEFAULT_MAX_COSETS,
        help="element guard: bounds the coset table of relator specs and "
        "the closure of perm: specs (default 10^6)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gwel",
        description="Random-walk, growth, and boundary-entropy laboratory "
        "for free groups and their quotients.  All entropies in nats.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        verb.add_arguments(sub.add_parser(name, help=verb.summary))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`; when argv[0] names a verb, only
    that verb's parser is built, with the prog and arguments the full
    parser gives it, so its namespace, help and errors are the same."""
    if not argv or argv[0] not in _VERBS:
        return build_parser().parse_args(argv)
    parser = _Parser(prog=f"gwel {argv[0]}")
    _VERBS[argv[0]].add_arguments(parser)
    args = parser.parse_args(argv[1:])
    args.verb = argv[0]
    return args


def _quotient_rep(args):
    return parsing.parse_quotient_spec(args.quotient, args.rank, max_cosets=args.max_cosets)


def _table(spec: str, rows) -> Table:
    """A series table from row tuples; `spec` lists name:kind per column."""
    names = [item.split(":") for item in spec.split()]
    cols = list(zip(*rows)) or [()] * len(names)
    return Table({name: Column(kind, col) for (name, kind), col in zip(names, cols)})


def _cmd_walk_entropy(args) -> Report:
    d = args.rank
    params = {"rank": d, "steps": args.steps, "quotient": args.quotient}
    if args.quotient is None:
        series = entropy.radial_entropy_exact(d, args.steps)
        label = f"free group F_{d}"
    else:
        rep = _quotient_rep(args)
        series = entropy.quotient_entropy_dp(rep, args.steps)
        label = parsing.describe_quotient_spec(rep)
    h_over_n, increments = series.h_over_n(), series.increments()
    summary = {
        "walk_on": label,
        "h_rw_exact": entropy.exact_free_entropy(d),
        "last_H_over_n": h_over_n[-1] if h_over_n else None,
        "last_increment": increments[-1] if increments else None,
        "last_increments": increments[-5:],
    }
    return Report(
        command="walk-entropy",
        params=params,
        seed=args.seed,
        series=_table("n:int H:float H_over_n:float increment:float",
                      zip(series.steps(), series.values, h_over_n, increments)),
        summary=summary,
    )


def _cmd_drift(args) -> Report:
    d = args.rank
    est = entropy.drift_mc(d, args.steps, args.trials, args.seed)
    exact = entropy.exact_drift(d)
    err = abs(est.estimate - exact)
    summary = {
        "estimate": est.estimate,
        "stderr": est.stderr,
        "exact_drift": exact,
        "abs_error": err,
        "within_three_stderr": bool(err <= 3 * est.stderr),
    }
    return Report(
        command="drift",
        params={"rank": d, "steps": args.steps, "trials": args.trials},
        seed=args.seed,
        series=_table("steps:int estimate:float stderr:float",
                      [(est.steps, est.estimate, est.stderr)]),
        summary=summary,
    )


def _cmd_growth(args) -> Report:
    d = args.rank
    # |B(n)| >= (2d-1)^n is the largest count: check it against the
    # report's digit limit before building all n of them (ball_counts
    # rejects d < 2), by its logarithm first when n is huge
    if d >= 2:
        check_power_digits(2 * d - 1, args.steps)
        printable(ball_size(d, args.steps))
    series = growth.ball_counts(d, args.steps)
    return Report(
        command="growth",
        params={"rank": d, "steps": args.steps},
        seed=args.seed,
        series=_table("n:int count:int log_count_over_n:float", series.rows()),
        summary={
            "count_normalization": "ball",
            "growth_rate_exact": math.log(2 * d - 1),
            "last_log_count_over_n": series.last_ratio(),
        },
    )


def _cmd_cogrowth(args) -> Report:
    d = args.rank
    rep = _quotient_rep(args)
    params = {"rank": d, "steps": args.steps, "quotient": args.quotient}
    # |S(n)| >= (2d-1)^n bounds every count and is the trivial quotient's
    # last one: check it against the report's digit limit before counting,
    # by its logarithm first when n is huge (a negative radius is the
    # rep's error)
    if args.steps >= 0:
        check_power_digits(2 * d - 1, args.steps)
        printable(sphere_size(d, args.steps))
    # the rep counts and states delta itself, for every quotient family
    counts = tuple(rep.kernel_sphere_counts(args.steps, growth.KERNEL_WORK_BUDGET))
    if len(counts) <= args.steps:
        raise ResourceGuardError(
            f"kernel sphere counts exceed the work budget beyond radius "
            f"{len(counts) - 1}; lower --steps"
        )
    series = growth.GrowthSeries(counts)
    delta, delta_method = rep.critical_exponent()
    bound = growth.half_growth_bound(d)
    return Report(
        command="cogrowth",
        params=params,
        seed=args.seed,
        series=_table("n:int count:int log_count_over_n:float", series.rows()),
        summary={
            "count_normalization": "kernel-sphere",
            "quotient": parsing.describe_quotient_spec(rep),
            "delta": delta,
            "delta_method": delta_method,
            "half_growth_bound": bound,
            "bound_holds": bool(delta >= bound - 1e-9),
            "growth_rate_exact": math.log(2 * d - 1),
        },
    )


def _cmd_gap_check(args) -> Report:
    d = args.rank
    rep = _quotient_rep(args)
    rpt = entropy.entropy_gap_check(d, rep, args.steps)
    return Report(
        command="gap-check",
        params={"rank": d, "steps": args.steps, "quotient": args.quotient},
        seed=args.seed,
        series=_table("k:int h_free:float h_quotient:float gap:float gap_over_k:float "
                      "coset_bound:float log_ball_k:float log_ball_2k:float", rpt.rows),
        summary={
            "quotient": rpt.quotient,
            "h_rw_exact": rpt.h_rw,
            "h_quotient_limit": rpt.h_quotient_limit,
            "h_quotient_reason": rpt.h_quotient_reason,
            "delta": rpt.delta,
            "delta_source": rpt.delta_source,
            "gap_limit": rpt.gap_limit,
            "lemma_holds": rpt.lemma_holds,
        },
        warnings=list(rpt.warnings),
    )


def _cmd_guivarch(args) -> Report:
    d = args.rank
    h = entropy.exact_free_entropy(d)
    v = math.log(2 * d - 1)
    est = entropy.drift_mc(d, args.steps, args.trials, args.seed)
    # drift is a Monte Carlo estimate, so the inequality is judged at 3 SE
    chk = entropy.guivarch_check(h, est.estimate, v, tol=3 * est.stderr * v)
    return Report(
        command="guivarch",
        params={"rank": d, "steps": args.steps, "trials": args.trials},
        seed=args.seed,
        series=_table("h_exact:float drift_estimate:float v_exact:float product:float "
                      "residual:float", [(chk.h, chk.drift, chk.v, chk.product, chk.residual)]),
        summary={
            "h_exact": h,
            "v_exact": v,
            "drift_estimate": est.estimate,
            "drift_stderr": est.stderr,
            "drift_exact": entropy.exact_drift(d),
            "product": chk.product,
            "residual": chk.residual,
            "holds_within_3se": chk.holds,
        },
    )


def _cmd_theorem_a(args) -> Report:
    d = args.rank
    bound = entropy.theorem_a_bound(d)
    coeff = entropy.theorem_a_coefficient(d)
    from fractions import Fraction

    return Report(
        command="theorem-a",
        params={"rank": d},
        seed=args.seed,
        series=_table("d:int bound:float", [(d, bound)]),
        summary={
            "bound": bound,
            "coefficient_of_h_rw": Fraction(d - 2, 2 * d - 2),
            "coefficient_of_log": coeff,
            "h_rw_exact": entropy.exact_free_entropy(d),
            "note": "bound = (d-2)/(2d-2) * h_RW, h_RW = (d-1)/d * log(2d-1)",
        },
    )


def _cmd_boundary_entropy(args) -> Report:
    d = args.rank
    if d > len(LETTERS):  # the series names each generator by its letter
        raise ParameterError(
            f"--rank {d} is too large: words use the 26 letters a-z (--rank <= 26)"
        )
    mu = measures.srw(d)
    coeff = boundary.boundary_entropy_coefficient(d, mu)
    h = float(coeff) * math.log(2 * d - 1)  # boundary_entropy(d, mu) without a second sum
    coeffs = [(str(g), float(boundary.kl_coefficient(d, g)))
              for g in sorted(mu.support(), key=lambda w: w.sort_key())]
    h_rw = entropy.exact_free_entropy(d)
    return Report(
        command="boundary-entropy",
        params={"rank": d},
        seed=args.seed,
        series=_table("generator:str kl_coefficient:float kl_nats:float",
                      [(g, c, c * math.log(2 * d - 1)) for g, c in coeffs]),
        summary={
            "h_nats": h,
            "coefficient": coeff,
            "log_base": "nats (factor log(2d-1))",
            "h_rw_exact": h_rw,
            "matches_h_rw_exact": bool(h == h_rw),
            "convention": "integrand is -log d(g^-1 nu)/d nu; symmetric srw "
            "makes the value orientation-independent",
        },
    )


def _cmd_proximality(args) -> Report:
    d = args.rank
    rpt = boundary.proximality_sim(
        d, args.steps, args.prefix_depth, args.seed, trials=args.trials
    )
    finals = [m for m in rpt.final_masses() if m is not None]
    # length, mass and shallow are codes into per-length values: the writer
    # formats each length's three cells once
    lengths, by_length = rpt.lengths.reshape(-1), range(len(rpt.masses))
    shallow = [length == args.prefix_depth for length in by_length]
    trial, step = np.indices(rpt.lengths.shape, dtype=np.int32).reshape(2, -1)
    return Report(
        command="proximality",
        params={
            "rank": d,
            "steps": args.steps,
            "prefix_depth": args.prefix_depth,
            "trials": args.trials,
        },
        seed=args.seed,
        series=Table({
            "trial": Column("int", trial),
            "step": Column("int", np.add(step, 1, out=step)),
            "length": Column("code", lengths, Column("int", by_length)),
            "mass": Column("code", lengths, Column("float", rpt.masses)),
            "shallow": Column("code", lengths, Column("bool", shallow)),
        }),
        summary={
            "final_mass_min": min(finals) if finals else None,
            "final_mass_max": max(finals) if finals else None,
            "skipped_rows": int((rpt.lengths < args.prefix_depth).sum()),
            "shallow_rows": int((rpt.lengths == args.prefix_depth).sum()),
            "mass_formula": "1 - (1/(2d)) (2d-1)^-(L-k), exact per step",
        },
    )


def _cmd_lattice_experiment(args) -> Report:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParameterError(f"cannot read config {args.config}: {e}") from None
    cfg = parsing.parse_lattice_config(text)
    rpt = lattice.monotone_chain_limit(
        cfg.space, cfg.chain, cfg.direction, action=cfg.action
    )
    funcs = rpt.functionals if rpt.functionals is not None else [None] * len(cfg.chain)
    rows = zip(range(len(cfg.chain)), [p.n_blocks for p in cfg.chain], rpt.distances, funcs)
    return Report(
        command="lattice-experiment",
        params={"config": args.config, "direction": cfg.direction,
                "points": cfg.space.m},
        seed=args.seed,
        series=_table("step:int blocks:int l2_to_limit:float functional:float", rows),
        summary={
            "limit_blocks": rpt.limit.n_blocks,
            "stabilized_at": rpt.stabilized_at,
            "distances_non_increasing": rpt.distances_non_increasing,
            "functional_monotone": rpt.functional_monotone,
            "functional_limit": rpt.functional_limit,
        },
    )


class _Verb(NamedTuple):
    """A verb's help line, the function that adds its arguments to its
    parser, and the function that runs it."""

    summary: str
    add_arguments: Callable[[argparse.ArgumentParser], object]
    run: Callable[[argparse.Namespace], Report]


_VERBS = {
    "walk-entropy": _Verb("exact H(mu^k) series", lambda p: _add_quotient(_add_common(p, 50)),
                          _cmd_walk_entropy),
    "drift": _Verb("Monte Carlo escape rate", lambda p: _add_common(p, 10000, 1000), _cmd_drift),
    "growth": _Verb("exact ball counts of F_d", lambda p: _add_common(p, 10), _cmd_growth),
    "cogrowth": _Verb("kernel sphere counts and critical exponent",
                      lambda p: _add_quotient(_add_common(p, 12), required=True), _cmd_cogrowth),
    "gap-check": _Verb("entropy gap vs critical exponent",
                       lambda p: _add_quotient(_add_common(p, 6), required=True), _cmd_gap_check),
    "guivarch": _Verb("h <= drift * growth cross-check", lambda p: _add_common(p, 10000, 1000),
                      _cmd_guivarch),
    "theorem-a": _Verb("boundary-family entropy bound value", _add_common, _cmd_theorem_a),
    "boundary-entropy": _Verb("exact Furstenberg entropy of (srw, nu)", _add_common,
                              _cmd_boundary_entropy),
    "proximality": _Verb("pushed prefix-cylinder masses along walks",
                         lambda p: _add_common(p, 50, 10).add_argument(
                             "--prefix-depth", type=int, default=3,
                             help="cylinder prefix depth k (default 3)"),
                         _cmd_proximality),
    "lattice-experiment": _Verb("partition chain limits on a finite space",
                                lambda p: _add_common(p).add_argument(
                                    "--config", required=True, help="flat key-value config file"),
                                _cmd_lattice_experiment),
}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        if args.threads < 1:  # validated but unused: every operation is serial
            raise ParameterError("thread count must be >= 1")
        report = _VERBS[args.verb].run(args)
        emit_report(report, fmt=args.format, out=args.out)
    except GwelError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())

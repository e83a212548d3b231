"""Command-line front end: solve single problems, run races, validate the
invariant suites, and evaluate scaled proxes from plain-text files.

Exit codes: 0 success, 1 validation-suite failure, 2 configuration or
parse error, 3 solver failure: a solve (in ``race``, any solve) that
raised or ended with a status other than "converged" or "max_iters".
Races run their (solver, problem) pairs one after another.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bench import (
    ProblemRecipe,
    desk_recipes,
    generate,
    race,
    reference_solution,
    write_gnuplot_script,
    write_manifest,
    write_trace_csv,
)
from .metric import LowRankMetric, MetricError
from .prox import (
    Box,
    GroupL2,
    Hinge,
    L1Ball,
    L1Norm,
    LinfBall,
    LinfNorm,
    MaxFunction,
    NonNeg,
    Simplex,
    Zero,
)
from .scaled import scaled_prox
from .solver import SOLVERS, SolverOptions
from .validate import SUITES, run_suites

CONFIG_ERROR, SOLVER_ERROR = 2, 3


def _int_at_least(low):
    """The type of an integer option with the least value ``low``: the
    summary lines need one recorded iteration (``--max-iters``), a suite
    one instance (``--count``) and the test problems two coordinates
    (``validate --n``)."""
    def int_at_least(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {text}")
        return int(text)
    return int_at_least


def _recipe_from_args(args):
    kwargs = dict(family=args.family, lam=args.lam, seed=args.seed)
    if args.family == "lasso_diff3d":
        kwargs["side"] = 7 if args.side is None else args.side
    else:
        kwargs["m"] = 150 if args.m is None else args.m
        kwargs["n"] = 300 if args.n is None else args.n
    if args.family == "group_lasso":
        kwargs["block_cap"] = args.block_cap
    return ProblemRecipe(**kwargs)


def _solve_ok(result):
    """A solve counts as a success when it converged or used up its
    iteration cap; "nonfinite", "prox_failed", "budget" and "stagnated"
    are failures."""
    return result.status in ("converged", "max_iters")


def cmd_solve(args):
    if args.solver not in SOLVERS:
        print(f"error: unknown solver {args.solver!r}; known: "
              f"{', '.join(sorted(SOLVERS))}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        recipe = _recipe_from_args(args)
        opts = SolverOptions(max_iters=args.max_iters, tol=args.tol,
                             budget_seconds=args.budget_s,
                             line_search=args.line_search)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    problem = generate(recipe)
    ref = reference_solution(problem, cache_dir=args.cache_dir)
    try:
        result = SOLVERS[args.solver](problem, opts)
    except Exception as exc:  # noqa: BLE001 - reported as exit code 3
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    result.trace.f_star = ref.f_star
    out = args.out or f"{recipe.label()}_{args.solver}.csv"
    write_trace_csv(result.trace, out, timed=args.timed)
    err = result.objective - ref.f_star
    print(f"solver={args.solver} problem={recipe.label()} "
          f"final_error={err:.6e} iterations={result.iterations} "
          f"seconds={result.trace.seconds[-1]:.3f} status={result.status} "
          f"trace={out}")
    return 0 if _solve_ok(result) else SOLVER_ERROR


def cmd_race(args):
    solver_ids = [s.strip() for s in args.solvers.split(",") if s.strip()]
    try:   # what every solve of the race gets, checked before any solve
        if not solver_ids:
            raise ValueError("no solvers given")
        for sid in solver_ids:
            if sid not in SOLVERS:
                raise ValueError(f"unknown solver {sid!r}")
        opts = SolverOptions(max_iters=args.max_iters, tol=args.tol,
                             budget_seconds=args.budget_s)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    if args.paper_scale:
        recipes = [
            ProblemRecipe("lasso_gaussian", m=1500, n=3000, lam=0.1,
                          seed=args.seed),
            ProblemRecipe("lasso_diff3d", side=15, lam=1.0, seed=args.seed),
            ProblemRecipe("group_lasso", m=1600, n=2500, lam=1.0,
                          block_cap=12, seed=args.seed),
        ]
    else:
        recipes = desk_recipes(args.seed)
    if args.families:
        wanted = {f.strip() for f in args.families.split(",")}
        unknown = wanted - {r.family for r in recipes}
        if unknown:
            print(f"error: unknown families {sorted(unknown)}",
                  file=sys.stderr)
            return CONFIG_ERROR
        recipes = [r for r in recipes if r.family in wanted]
    problems = [generate(r) for r in recipes]
    entries = race(problems, solver_ids, opts, cache_dir=args.cache_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    csv_paths = []
    failed = False
    for entry in entries:
        if entry.error is not None:
            failed = True
            print(f"{entry.solver_id} on {entry.problem_id}: "
                  f"FAILED ({entry.error})")
            continue
        path = os.path.join(args.out_dir,
                            f"{entry.problem_id}_{entry.solver_id}.csv")
        write_trace_csv(entry.trace, path)
        csv_paths.append(path)
        err = entry.trace.objective_errors()[-1]
        failed = failed or not _solve_ok(entry.result)
        print(f"{entry.solver_id} on {entry.problem_id}: "
              f"error={err:.3e} iters={entry.result.iterations} "
              f"seconds={entry.trace.seconds[-1]:.2f} "
              f"status={entry.result.status}")
    write_manifest(os.path.join(args.out_dir, "manifest.json"), entries,
                   problems, {"solvers": solver_ids, "tol": args.tol,
                              "max_iters": args.max_iters,
                              "budget_s": args.budget_s, "seed": args.seed})
    if args.gnuplot:
        write_gnuplot_script(os.path.join(args.out_dir, "plot.gp"), csv_paths)
    return SOLVER_ERROR if failed else 0


def cmd_validate(args):
    names = [args.suite] if args.suite else None
    overrides = {}
    if args.n is not None:
        overrides["max_n"] = args.n
        overrides["n"] = args.n
    if args.count is not None:
        overrides["count"] = args.count
    try:
        results = run_suites(names, seed=args.seed, **overrides)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return CONFIG_ERROR
    for res in results:
        print(res.line())
        sys.stdout.flush()
    return 0 if all(r.passed for r in results) else 1


# -- prox file format ------------------------------------------------------------

_PROX_HELP = """\
Plain-text scaled-prox input: one value per line, '#'-prefixed metadata.

  # h: l1            function id (l1, nonneg, box, hinge, linf_ball,
  #                  l1_ball, simplex, linf_norm, max, group_l1l2, zero)
  # lam: 1.0         weight of l1, hinge, linf_norm, max and group_l1l2
  # radius: 1.0      radius of linf_ball, l1_ball and simplex
  # lo: -1 / hi: 1   bounds of box
  # blocks: 2,2      group sizes of group_l1l2
  # sign: +          sign of the rank-1 metric term (+ or -)
  # kappa: 1.0       prox scale
  # vector: x        the following lines hold x; likewise d and u

A key that the chosen h does not read is an error; a '#' line whose text
before the colon is not one word is a comment.
"""

# each function id: its operator, and the metadata keys that it reads
# besides h, sign and kappa with their defaults, in the operator's
# argument order
_OPERATORS = {
    "l1": (L1Norm, {"lam": 1.0}), "nonneg": (NonNeg, {}),
    "box": (Box, {"lo": -1.0, "hi": 1.0}), "hinge": (Hinge, {"lam": 1.0}),
    "linf_ball": (LinfBall, {"radius": 1.0}),
    "l1_ball": (L1Ball, {"radius": 1.0}),
    "simplex": (Simplex, {"radius": 1.0}),
    "linf_norm": (LinfNorm, {"lam": 1.0}),
    "max": (MaxFunction, {"lam": 1.0}), "zero": (Zero, {}),
    "group_l1l2": (GroupL2, {"lam": 1.0, "blocks": ""}),
}


def _parsed(convert, text, message):   # a ValueError names text
    try:
        return convert(text)
    except ValueError:
        raise ValueError(f"{message} {text!r}") from None


def _parse_prox_file(path):
    meta, vectors = {}, {}
    current = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, colon, value = line.lstrip("#").partition(":")
                key, value = key.strip().lower(), value.strip()
                if colon and len(key.split()) == 1:   # else a comment
                    if key == "vector":
                        current = value
                        vectors[current] = []
                    else:
                        meta[key] = value
                continue
            if current is None:
                raise ValueError(f"line {lineno}: value outside any vector")
            vectors[current].append(
                _parsed(float, line, f"line {lineno}: not a number:"))
    return meta, {k: np.asarray(v, dtype=float) for k, v in vectors.items()}


def _operator_from_meta(meta, n):
    h = meta.get("h", "l1").lower()
    if h not in _OPERATORS:
        raise ValueError(f"unknown function id {h!r}")
    operator, keys = _OPERATORS[h]
    unread = sorted(set(meta) - {"h", "sign", "kappa", *keys})
    if unread:
        raise ValueError(f"h {h} reads no metadata key {unread[0]!r}")
    args = [_parsed(float, meta.get(key, default),
                    f"{key} must be a number, got")
            for key, default in keys.items() if key != "blocks"]
    if "blocks" in keys:
        sizes = _parsed(lambda t: [int(s) for s in t.split(",") if s],
                        meta.get("blocks", ""),
                        "blocks must be comma-separated integers, got")
        if sum(sizes) != n:
            raise ValueError("group sizes must sum to the dimension")
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        args.append([np.arange(s, s + size)
                     for s, size in zip(starts, sizes)])
    return operator(*args)


def cmd_prox(args):
    try:
        meta, vectors = _parse_prox_file(args.input)
        if "x" not in vectors or "d" not in vectors:
            raise ValueError("input must define vectors x and d")
        x, d = vectors["x"], vectors["d"]
        if x.shape != d.shape:
            raise ValueError("x and d must have equal length")
        factors = [vectors["u"]] if "u" in vectors and \
            np.any(vectors["u"] != 0) else []
        sign = {"+": +1, "+1": +1, "1": +1, "-": -1, "-1": -1}.get(
            meta.get("sign", "+"))
        if sign is None:
            raise ValueError(f"sign must be + or -, got {meta['sign']!r}")
        metric = LowRankMetric(d, factors, sign)
        op = _operator_from_meta(meta, x.shape[0])
        kappa = _parsed(float, meta.get("kappa", 1.0),
                        "kappa must be a number, got")
    except (ValueError, MetricError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    try:
        p, report = scaled_prox(metric, op, x, kappa=kappa,
                                finder=args.finder, tol=args.tol)
    except ValueError as exc:   # an input check: kappa, weights, finder
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except Exception as exc:  # noqa: BLE001
        print(f"solver failure: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    for value in p:
        print(f"{value:.17g}")
    alpha = ",".join(f"{a:.17g}" for a in report.alpha_star)
    print(f"alpha_star={alpha or 'nan'} residual={report.residual:.3e} "
          f"method={report.method} iterations={report.iterations}")
    return 0 if report.converged else SOLVER_ERROR


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxqn",
        description="Proximal quasi-Newton solvers and benchmark harness")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve one benchmark problem")
    ps.add_argument("--family", default="lasso_gaussian",
                    choices=["lasso_gaussian", "lasso_diff3d", "group_lasso",
                             "nnls"])
    ps.add_argument("--m", type=int)
    ps.add_argument("--n", type=int)
    ps.add_argument("--side", type=int)
    ps.add_argument("--lambda", dest="lam", type=float, default=0.1)
    ps.add_argument("--block-cap", type=int, default=12)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--solver", default="zero-sr1")
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--max-iters", type=_int_at_least(1), default=200_000)
    ps.add_argument("--budget-s", type=float, help="CPU seconds per solve")
    ps.add_argument("--line-search", choices=["backtracking", "none"],
                    help="default: the solver's own step, the exact one "
                         "along the ray for zero-bfgs (backtracking where "
                         "it does not apply), backtracking for zero-sr1")
    ps.add_argument("--out")
    ps.add_argument("--cache-dir")
    ps.add_argument("--timed", action="store_true",
                    help="record wall-clock times in the trace (off by "
                         "default so repeated runs are byte-identical)")
    ps.set_defaults(func=cmd_solve)

    pr = sub.add_parser("race", help="race solvers over problem families")
    pr.add_argument("--solvers",
                    default="zero-sr1,zero-bfgs,ista,fista-bb,spg")
    pr.add_argument("--families", help="comma-separated subset")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--tol", type=float, default=1e-9)
    pr.add_argument("--max-iters", type=_int_at_least(1), default=400_000)
    pr.add_argument("--budget-s", type=float, default=120.0,
                    help="CPU seconds per solve")
    pr.add_argument("--out-dir", default="races")
    pr.add_argument("--cache-dir")
    pr.add_argument("--paper-scale", action="store_true",
                    help="use the original experiment dimensions")
    pr.add_argument("--gnuplot", action="store_true",
                    help="emit a gnuplot script referencing the CSVs")
    pr.set_defaults(func=cmd_race)

    pv = sub.add_parser("validate", help="run invariant suites")
    pv.add_argument("--suite", choices=sorted(SUITES))
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--n", type=_int_at_least(2),
                    help="instance dimension cap")
    pv.add_argument("--count", type=_int_at_least(1),
                    help="instances per suite")
    pv.set_defaults(func=cmd_validate)

    pp = sub.add_parser("prox", help="evaluate a scaled prox from a file",
                        epilog=_PROX_HELP,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    pp.add_argument("--input", required=True)
    pp.add_argument("--finder", default="auto",
                    choices=["auto", "exact", "bisection"],
                    help="rank-1 root finder: the warm-started semi-smooth "
                    "Newton (auto), or the exact search over the sorted "
                    "breakpoint crossings or bisection it is checked against")
    pp.add_argument("--tol", type=float, default=1e-12)
    pp.set_defaults(func=cmd_prox)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

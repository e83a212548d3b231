"""Workloads of the benchmark and the loop that measures them.

Every workload has a solve part, all five solvers on a fixed set of
instances of one desk family, and a kernel part, direct calls to the
diagonal, rank-1 and rank-2 proxes on inputs drawn from the run's seed.
README.md says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from proxqn import scaled
from proxqn.bench import (ProblemRecipe, generate, reference_solution,
                          write_trace_csv)
from proxqn.prox import L1Norm
from proxqn.quasi_newton import QNPair, sr1_metric, zbfgs_metric
from proxqn.solver import SOLVERS, SolverOptions

import scoring

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
CACHE_DIR = os.path.join(BENCH_DIR, "refcache")
FILL_TIMES = os.path.join(CACHE_DIR, "fill_times.json")

SOLVER_IDS = ("zero-sr1", "zero-bfgs", "ista", "fista-bb", "spg")
KERNELS = ("diag", "rank1", "rank2")
# calls per kernel and input in a batch: more of the cheap kernels so that
# a batch's fastest call is picked from several
BATCH_CALLS = {"diag": 8, "rank1": 2, "rank2": 1}
SOLVE_TOL = 1e-10        # step-norm stopping tolerance, the race default
REF_TOL = 1e-12          # reference_solution's default tolerance
REF_MAX_ITERS = 60_000   # bounds a cold fill; see README
PROX_TOL = 1e-12         # scaled_prox's default tolerance
KERNEL_LAM = 0.5         # l1 weight of the kernels when kernel_dim is set
# timed set-ups at the start of every round, so that they are spread over
# the run like the solves
SETUPS_PER_ROUND = 2
# the fastest calibration unit seen on the 2-vCPU Xeon (2.0 GHz) machine the
# benchmark was defined on; every timing is scaled to that speed by the
# calibration unit measured next to it
CALIBRATION_REFERENCE_S = 0.004


@dataclass(frozen=True)
class Workload:
    name: str
    recipes: tuple
    max_iters: int            # per-solve iteration cap, the same for every solver
    kernel_inputs: int        # (s, y, x) draws per run
    rounds: int               # rounds per run, see run.py
    kernel_dim: int = 0       # 0: the dimension and h of the first instance
    # times a later round runs a solver's repetition back to back (default
    # once): more samples for the solves of a few ms, whose noise needs them
    bursts: dict = field(default_factory=dict)


# Instances are fixed so that every seed solves the same problems; the
# seed draws the kernel inputs. README.md explains the choice of seeds
# and caps.
WORKLOADS = {
    w.name: w for w in (
        Workload("lasso-dense",
                 (ProblemRecipe("lasso_gaussian", m=150, n=300, lam=0.1,
                                seed=0),),
                 max_iters=20_000, kernel_inputs=8, rounds=12,
                 bursts={"fista-bb": 3}),
        Workload("group-lasso",
                 (ProblemRecipe("group_lasso", m=64, n=100, lam=1.0,
                                block_cap=12, seed=1),),
                 max_iters=12_500, kernel_inputs=8, rounds=8,
                 bursts={"spg": 4}),
        Workload("prox-kernels",
                 (ProblemRecipe("lasso_diff3d", side=15, lam=1.0, seed=1),),
                 max_iters=300, kernel_inputs=2, kernel_dim=30_000,
                 rounds=7, bursts={"ista": 6, "fista-bb": 6, "spg": 10}),
    )
}


# -- reference cache -------------------------------------------------------------


def _cache_key(recipe):
    # the key reference_solution() gives its cache files
    return f"{recipe.digest()}_t{REF_TOL:g}"


def _is_cached(recipe):
    key = _cache_key(recipe)
    return all(os.path.exists(os.path.join(CACHE_DIR, key + ext))
               for ext in (".npy", ".json"))


def _fill_one(recipe):
    t0 = time.perf_counter()
    reference_solution(generate(recipe), tol=REF_TOL, max_iters=REF_MAX_ITERS,
                       cache_dir=CACHE_DIR)
    return time.perf_counter() - t0


def _read_fill_times():
    if not os.path.exists(FILL_TIMES):
        return {}
    with open(FILL_TIMES) as fh:
        return json.load(fh)


def fill_references(workload):
    """Compute missing reference optima, untimed, in a child process so
    that the fill neither counts in set-up nor in this run's peak memory.
    The child is a plain interpreter that this call waits for, so no
    process outlives the run. Returns the recorded fill seconds of every
    recipe."""
    recipes = workload.recipes
    if not all(_is_cached(r) for r in recipes):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--fill", workload.name],
                             stdout=subprocess.PIPE, text=True, env=env,
                             check=True)
        filled = json.loads(out.stdout.splitlines()[-1])
        times = _read_fill_times()
        times.update(filled)
        tmp = FILL_TIMES + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(times, fh, indent=1, sort_keys=True)
        os.replace(tmp, FILL_TIMES)
    times = _read_fill_times()
    return [times.get(_cache_key(r), 0.0) for r in recipes]


def _fill_main(name):
    """The child of ``fill_references``: fills the missing references of
    workload ``name`` and prints their seconds as one JSON line."""
    missing = [r for r in WORKLOADS[name].recipes if not _is_cached(r)]
    print(json.dumps({_cache_key(r): _fill_one(r) for r in missing}))


# -- set-up ----------------------------------------------------------------------


@dataclass
class KernelInput:
    op: object
    x: np.ndarray
    rank1: object      # sr1_metric(pair).invert()
    rank2: object      # the B of zbfgs_metric(pair)


@dataclass
class Setup:
    problems: list
    references: list
    kernels: list
    generate_s: float


def _kernel_inputs(workload, problems, seed):
    rng = np.random.default_rng(seed)
    if workload.kernel_dim:
        n, op = workload.kernel_dim, L1Norm(KERNEL_LAM)
    else:
        n, op = problems[0].dim, problems[0].h
    inputs = []
    for _ in range(workload.kernel_inputs):
        s = rng.standard_normal(n)
        pair = QNPair(s, rng.uniform(0.5, 2.0, n) * s)   # <s, y> > 0
        H = sr1_metric(pair)
        _, B, skipped = zbfgs_metric(pair)
        if H.rank != 1 or skipped:
            raise RuntimeError("kernel pair skipped its quasi-Newton update")
        inputs.append(KernelInput(op, rng.standard_normal(n), H.invert(), B))
    return inputs


def setup(workload, seed):
    """Generate every instance (with its Lipschitz estimate), read every
    reference optimum from the filled cache, and build the kernel inputs."""
    t0 = time.perf_counter()
    problems = [generate(r) for r in workload.recipes]
    generate_s = time.perf_counter() - t0
    references = []
    for problem in problems:
        ref = reference_solution(problem, tol=REF_TOL,
                                 max_iters=REF_MAX_ITERS, cache_dir=CACHE_DIR)
        if not ref.cache_hit:
            raise RuntimeError(f"reference of {problem.name} was not cached")
        references.append(ref)
    kernels = _kernel_inputs(workload, problems, seed)
    return Setup(problems, references, kernels, generate_s)


def timed_setup(workload, seed):
    """One set-up, with its time and that of its ``generate()`` calls."""
    t0 = time.perf_counter()
    state = setup(workload, seed)
    return state, time.perf_counter() - t0


# -- one round -------------------------------------------------------------------


@dataclass
class Round:
    # [instance][solver] the outcomes of the solve's back-to-back repetitions
    solves: list = field(default_factory=list)
    # [instance][solver] per repetition, the mean calibration unit just
    # before and just after it
    solve_units: list = field(default_factory=list)
    # (set-up seconds, generate seconds, calibration unit before the set-up)
    setups: list = field(default_factory=list)
    # {kernel: [[(seconds of each call, calibration unit) per batch]
    #           per kernel input]}
    kernel_s: dict = field(default_factory=dict)
    calibration: list = field(default_factory=list)   # seconds per unit
    prox_attempted: int = 0
    prox_failed: int = 0
    seconds: float = 0.0


def _solve(problem, solver_id, max_iters):
    opts = SolverOptions(max_iters=max_iters, tol=SOLVE_TOL)
    t0 = time.perf_counter()
    try:
        result = SOLVERS[solver_id](problem, opts)
    except Exception as exc:  # noqa: BLE001 - a failed solve is counted
        return scoring.SolveOutcome(solver_id, "error", float("nan"), 0,
                                    time.perf_counter() - t0,
                                    error=f"{type(exc).__name__}: {exc}")
    return scoring.SolveOutcome(solver_id, result.status, result.objective,
                                result.iterations, time.perf_counter() - t0,
                                result.trace)


def _kernel_call(kind, inp):
    # module attributes are looked up per call so that a traced run's
    # wrappers see these calls
    if kind == "diag":
        return inp.op.prox_diag(inp.x, inp.rank1.diag, 1.0), None
    if kind == "rank1":
        return scaled.scaled_prox(inp.rank1, inp.op, inp.x, tol=PROX_TOL)
    return scaled.scaled_prox_rank2(inp.rank2, inp.op, inp.x, tol=PROX_TOL)


def _kernel_batch(rnd, state, unit):
    """Every kernel ``BATCH_CALLS`` times on every input; ``unit`` is the
    calibration unit measured just before."""
    for i, inp in enumerate(state.kernels):
        for kind in KERNELS:
            calls = []
            rnd.kernel_s.setdefault(kind, [[] for _ in state.kernels])[i] \
                .append((calls, unit))
            for _ in range(BATCH_CALLS[kind]):
                rnd.prox_attempted += 1
                t0 = time.perf_counter()
                try:
                    p, report = _kernel_call(kind, inp)
                except Exception:  # noqa: BLE001 - a failed call is counted
                    rnd.prox_failed += 1
                    continue
                calls.append(time.perf_counter() - t0)
                if (report is not None
                        and scoring.prox_failed(report, PROX_TOL)) \
                        or not np.all(np.isfinite(p)):
                    rnd.prox_failed += 1


_CAL_RNG = np.random.default_rng(12345)
_CAL_VEC = _CAL_RNG.standard_normal(300)
_CAL_SORT = _CAL_RNG.standard_normal(30_000)


def calibration_unit():
    """Seconds of a fixed mix of interpreter work, small-vector numpy calls
    and a 30k-element sort, independent of proxqn: a probe of how fast
    the machine runs this kind of code at the moment."""
    t0 = time.perf_counter()
    x = _CAL_VEC.copy()
    for _ in range(600):
        y = np.maximum(np.abs(x) - 0.1, 0.0) * np.sign(x)
        x = x - 1e-3 * (y - float(np.dot(y, x)) * 1e-3)
    np.sort(_CAL_SORT)
    return time.perf_counter() - t0


def _fastest_cpu(rnd, cpus):
    """Pin the process to whichever of ``cpus`` runs the calibration unit
    fastest right now; record and return that unit's time."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(calibration_unit())
    best = min(range(len(cpus)), key=times.__getitem__)
    os.sched_setaffinity(0, {cpus[best]})
    rnd.calibration.append(times[best])
    return times[best]


def at_reference(seconds, unit):
    """``seconds`` measured next to a calibration unit of ``unit`` seconds,
    scaled to the speed at which the unit takes the reference time."""
    return seconds * CALIBRATION_REFERENCE_S / unit


def run_round(workload, state, cpus, seed, caps=None, setups=SETUPS_PER_ROUND):
    """``setups`` timed set-ups, then every solver on every instance, each
    solve followed by a kernel batch. ``caps`` maps (instance, solver) to
    the iterations a repetition runs (see ``repeat_plan``), which then runs
    as many times back to back as ``workload.bursts`` says; without
    ``caps`` every solve runs whole, once. Each set-up, solve and batch
    runs on the currently fastest of ``cpus``."""
    rnd = Round()
    for _ in range(setups):
        unit = _fastest_cpu(rnd, cpus)
        again, seconds = timed_setup(workload, seed)
        rnd.setups.append((seconds, again.generate_s, unit))
    t0 = time.perf_counter()
    for i, problem in enumerate(state.problems):
        outcomes, units = [], []
        for j, sid in enumerate(SOLVER_IDS):
            cap = (caps or {}).get((i, j)) or workload.max_iters
            times = workload.bursts.get(sid, 1) if caps else 1
            reps, rep_units = [], []
            after = _fastest_cpu(rnd, cpus)
            for _ in range(times):
                before = after
                reps.append(_solve(problem, sid, cap))
                after = _fastest_cpu(rnd, cpus)
                rep_units.append(0.5 * (before + after))
            outcomes.append(reps)
            units.append(rep_units)
            _kernel_batch(rnd, state, after)
        rnd.solves.append(outcomes)
        rnd.solve_units.append(units)
    rnd.seconds = time.perf_counter() - t0
    return rnd


def repeat_plan(state, first):
    """f* of every instance from the first round's whole solves, and the
    iterations every later repetition of each solve runs."""
    firsts = [[reps[0] for reps in inst] for inst in first.solves]
    f_stars = [scoring.reconcile_f_star(ref.f_star, firsts[i])
               for i, ref in enumerate(state.references)]
    caps = {(i, j): scoring.repeat_iterations(o, f_stars[i])
            for i, inst in enumerate(firsts) for j, o in enumerate(inst)}
    return f_stars, caps


def kernel_oracle_ok(state):
    """Once per input and outside any timing: the rank-1 and rank-2
    results agree with their bisection-based counterparts."""
    for inp in state.kernels:
        p1, _ = scaled.scaled_prox(inp.rank1, inp.op, inp.x, tol=PROX_TOL)
        q1, _ = scaled.scaled_prox(inp.rank1, inp.op, inp.x, finder="bisection",
                                   tol=PROX_TOL)
        p2, _ = scaled.scaled_prox_rank2(inp.rank2, inp.op, inp.x, tol=PROX_TOL)
        q2, _ = scaled.scaled_prox_rank2(inp.rank2, inp.op, inp.x, tol=PROX_TOL,
                                         inner_finder="bisection")
        if not (np.max(np.abs(p1 - q1)) <= scoring.ORACLE_TOL
                and np.max(np.abs(p2 - q2)) <= scoring.ORACLE_TOL):
            return False
    return True


# -- scoring a run ---------------------------------------------------------------


def _trace_digest(outcome, f_star, tmpdir):
    if outcome.trace is None:
        return "error"
    outcome.trace.f_star = f_star
    path = os.path.join(tmpdir, "trace.csv")
    write_trace_csv(outcome.trace, path, timed=False)
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def score_solves(state, rounds, f_stars):
    """Failures, time to accuracy and the untimed-trace fingerprint.

    The first round's solves run whole and are the ones judged; every
    later round repeats them, whole or up to the tightest threshold, and
    must record the same iterates. Every repetition's times are scaled by
    the calibration units just before and after it (``at_reference``); a
    solve's time is the median of its repetitions', summed over the
    instances.
    """
    first = [[reps[0] for reps in inst] for inst in rounds[0].solves]
    judged = [(o, f_stars[i]) for i, inst in enumerate(first) for o in inst]
    failed = sum(scoring.solve_failed(o, f) for o, f in judged)
    silent = sum(scoring.silently_wrong(o, f) for o, f in judged)
    deterministic = all(scoring.repeats(first[i][j], o)
                        for rnd in rounds[1:]
                        for i, inst in enumerate(rnd.solves)
                        for j, reps in enumerate(inst) for o in reps
                        if first[i][j].error is None)
    totals = {}
    for i, f_star in enumerate(f_stars):
        for j, sid in enumerate(SOLVER_IDS):
            one = first[i][j]
            reps = [pair for rnd in rounds
                    for pair in zip(rnd.solves[i][j], rnd.solve_units[i][j])]
            reps = [(o, u) for o, u in reps if o.error is None] or reps
            whole = len(one.trace) if one.trace is not None else None
            values = {f"{sid}.call_s": scoring.median(
                [at_reference(o.duration, u) for o, u in reps
                 if o.trace is None or len(o.trace) == whole])}
            for t, threshold in scoring.THRESHOLDS.items():
                values[f"{sid}.{t}_s"] = scoring.median(
                    [at_reference(scoring.time_to_error(
                        one, f_star, threshold, o)[0], u) for o, u in reps])
                values[f"{sid}.iters{t[1:]}"] = scoring.time_to_error(
                    one, f_star, threshold)[1]
            for key, value in values.items():
                totals[key] = totals.get(key, 0) + value
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmpdir:
        digests = [_trace_digest(o, f, tmpdir) for o, f in judged]
    return dict(
        totals=totals, failed=failed, silent=silent, attempted=len(judged),
        deterministic=deterministic,
        fingerprint=hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        reference_gap=max(ref.f_star - f
                          for ref, f in zip(state.references, f_stars)),
        outcomes=[[(o.solver_id, o.status, o.iterations,
                    o.objective - f_stars[i], o.duration) for o in inst]
                  for i, inst in enumerate(first)])


def kernel_times(rounds):
    """Per kernel, with every call scaled by its batch's calibration unit:
    the median over the kernel inputs of the lower quartile over the
    input's batches of the batch's fastest call, in ms; the p90 over all
    calls, in ms; the call count.

    The fastest call of a batch is its cost without interference from the
    batch's other work; the lower quartile over batches that of a quiet
    moment; the median over inputs keeps one cheap input from setting the
    figure."""
    out = {}
    for kind in KERNELS:
        per_input = [[b for r in rounds for b in r.kernel_s[kind][i]]
                     for i in range(len(rounds[0].kernel_s[kind]))]
        typical = [scoring.lower_quartile([at_reference(min(calls), unit)
                                           for calls, unit in batches if calls])
                   for batches in per_input]
        calls = [at_reference(c, unit) for batches in per_input
                 for calls, unit in batches for c in calls]
        out[kind] = (scoring.median(typical) * 1e3,
                     scoring.percentile(calls, 90) * 1e3, len(calls))
    return out


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--fill":
        sys.exit("usage: harness.py --fill WORKLOAD")
    _fill_main(sys.argv[2])

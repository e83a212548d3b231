"""Benchmark harness: problem generation, reference optima (FISTA-BB
solutions, cached on disk), serial solver races, and trace persistence.

Families follow the paper-style experiments at configurable scale:
dense Gaussian LASSO, LASSO with a 3-D forward-difference operator,
group LASSO with uniform-[0,1] data, and non-negative least squares.
Desk-scale defaults shrink the original dimensions by roughly 10x so the
full acceptance suite runs in minutes; the original dimensions remain
available through explicit size arguments (``--paper-scale`` in the CLI).

The right-hand sides are not pinned by the source experiments and are
generated as documented per family below (Gaussian and NNLS: sparse
ground truth plus 1% noise; diff3d: standard normal; group: uniform).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .prox import GroupL2, L1Norm, NonNeg
from .solver import SOLVERS, ProblemSpec, SolverOptions, run_fista_bb
from .trace import ConvergenceTrace

__all__ = [
    "ProblemRecipe",
    "ReferenceSolution",
    "RaceEntry",
    "generate",
    "reference_solution",
    "race",
    "write_trace_csv",
    "read_trace_csv",
    "write_manifest",
    "write_gnuplot_script",
    "desk_recipes",
    "default_cache_dir",
]

TRACE_HEADER = "iter,obj_err,step_norm,seconds"

FAMILIES = ("lasso_gaussian", "lasso_diff3d", "group_lasso", "nnls")


@dataclass(frozen=True)
class ProblemRecipe:
    """Deterministic description of a benchmark instance."""

    family: str
    m: int = 0
    n: int = 0
    side: int = 0          # grid side for the diff3d family
    lam: float = 0.1
    block_cap: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"known: {FAMILIES}")
        if self.family == "lasso_diff3d":
            if self.side <= 0:
                raise ValueError("diff3d needs a positive grid side")
        elif self.m <= 0 or self.n <= 0:
            raise ValueError("m and n must be positive")
        if self.family != "nnls" and not self.lam > 0:   # nnls ignores lam
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.family == "group_lasso" and self.block_cap < 1:
            raise ValueError("block_cap must be at least 1")

    def digest(self):
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def label(self):
        size = f"{self.side}^3" if self.family == "lasso_diff3d" else \
            f"{self.m}x{self.n}"
        return f"{self.family}_{size}_s{self.seed}"


def desk_recipes(seed=0):
    """The three desk-scale race instances used by the acceptance suite."""
    return [
        ProblemRecipe("lasso_gaussian", m=150, n=300, lam=0.1, seed=seed),
        ProblemRecipe("lasso_diff3d", side=7, lam=1.0, seed=seed),
        ProblemRecipe("group_lasso", m=160, n=250, lam=1.0, block_cap=12,
                      seed=seed),
    ]


class GridDifference:
    """The ``lasso_diff3d`` operator, never formed: forward differences along
    the axes of a ``side^3`` grid, stacked, with zero far-boundary (Neumann)
    rows and one -1 and one +1 in every other row.  ``A @ x`` and ``A.T @ r``
    sum each row's terms in CSR's order, from +0, for its bytes: per axis of
    flat stride e, whose far rows are [:, -1] of a (-1, side, e) reshape."""

    def __init__(self, side, T=None):   # A and its adjoint A.T, a pair
        n = side ** 3
        self.side, self.shape = side, (3 * n, n) if T is None else (n, 3 * n)
        self.T = GridDifference(side, self) if T is None else T

    def __matmul__(self, v):
        s, n = self.side, self.side ** 3
        if self.shape[0] > n:   # A
            out = np.empty(3 * n)
            for blk, e in zip(out.reshape(3, n), (s * s, s, 1)):
                # (0 - x_src) + x_dst: x_dst - x_src gives -0 for CSR's +0
                np.subtract(0.0, v[:n - e], out=blk[:n - e])
                blk[:n - e] += v[e:]
                blk.reshape(-1, s, e)[:, -1] = 0.0
            return out
        # column j of A: + r[j - e], then - r[j].  The +0 of a far row,
        # absent in CSR, changes no bit, as a sum from +0 is never -0, and
        # axis 0's terms read none of its far rows, the last e
        out, buf = np.zeros(n), np.empty(n)
        for axis, e in enumerate((s * s, s, 1)):
            src = v[axis * n:(axis + 1) * n]
            if axis:
                buf[:] = src
                src = buf
                buf.reshape(-1, s, e)[:, -1] = 0.0
            out[e:] += src[:n - e]
            out[:n - e] -= src[:n - e]
        return out


diff3d_operator = GridDifference   # the grid family's A for a side


def _aligned(*shape):
    """An empty float array on a 64-byte boundary, for ``generate`` to draw
    the dense data into: a BLAS product with a matrix at 16 or 48 bytes mod
    64 costs about 1.4x more, bit for bit."""
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = -buf.ctypes.data % 64 // 8
    return buf[start:start + size].reshape(shape)


def estimate_sq_norm(A, iters=50, tol=1e-8):
    """Power iteration for ``||A^T A||_2`` with a deterministic start.

    The start vector is random (seeded) so it cannot fall inside the null
    space of structured operators such as difference stencils.
    """
    n = A.shape[1]
    v = np.random.default_rng(12345).standard_normal(n)
    v /= np.linalg.norm(v)
    lam, AT = 0.0, A.T
    for _ in range(iters):
        w = AT @ (A @ v)
        lam_new = float(np.linalg.norm(w))
        if lam_new == 0.0:
            return 0.0
        v = w / lam_new
        if abs(lam_new - lam) <= tol * lam_new:
            lam = lam_new
            break
        lam = lam_new
    return lam


def _group_blocks(rng, n, cap):
    sizes = []
    left = n
    while left > 0:
        size = int(rng.integers(1, cap + 1))
        size = min(size, left)
        sizes.append(size)
        left -= size
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    return [np.arange(s, s + size) for s, size in zip(starts, sizes)]


def generate(recipe: ProblemRecipe) -> ProblemSpec:
    """Instantiate a recipe; a pure function of its fields.

    ``f(x) = ||A x - b||^2 / 2`` and ``grad(x) = A^T (A x - b)`` share one
    residual ``A x - b`` per point: the last one computed is kept, keyed on
    the bits of ``x``, so a gradient at the point of the last objective (or
    the reverse) costs one product with A instead of two, with the same
    values.  ``grad`` multiplies by ``A.T`` bound once, a dense view or the
    grid operator's adjoint.  A user-built :class:`ProblemSpec` whose
    ``f`` and ``grad`` share a costly part can cache it the same way.

    The problem's ``ray`` hook forms ``q = A p`` and keeps ``r + t q`` as
    the residual of the point ``x + t p`` that it returns, which is not
    ``A (x + t p) - b`` to the last bit.  That residual is read only at
    that array (and while its bits are unchanged): a solve that starts
    at a point with the same bits, such as the zero optimum of a large
    ``lam``, gets ``A x - b`` as from a fresh problem.
    """
    rng = np.random.default_rng(recipe.seed)
    blocks = None
    if recipe.family == "lasso_gaussian":
        A = rng.standard_normal(out=_aligned(recipe.m, recipe.n))
        k = max(1, recipe.m // 10)
        x0 = np.zeros(recipe.n)
        support = rng.choice(recipe.n, size=k, replace=False)
        x0[support] = rng.choice([-1.0, 1.0], size=k) * (1.0 + rng.random(k))
        b = np.add(A @ x0, 0.01 * rng.standard_normal(recipe.m),
                   out=_aligned(recipe.m))
        h = L1Norm(recipe.lam)
    elif recipe.family == "lasso_diff3d":
        A = diff3d_operator(recipe.side)
        b = rng.standard_normal(out=_aligned(A.shape[0]))
        h = L1Norm(recipe.lam)
    elif recipe.family == "group_lasso":
        A = rng.random(out=_aligned(recipe.m, recipe.n))
        b = rng.random(out=_aligned(recipe.m))
        blocks = _group_blocks(rng, recipe.n, recipe.block_cap)
        h = GroupL2(recipe.lam, blocks)
    elif recipe.family == "nnls":
        A = rng.standard_normal(out=_aligned(recipe.m, recipe.n))
        k = max(1, recipe.m // 10)
        x0 = np.zeros(recipe.n)
        support = rng.choice(recipe.n, size=k, replace=False)
        x0[support] = np.abs(rng.standard_normal(k)) + 0.5
        b = np.add(A @ x0, 0.01 * rng.standard_normal(recipe.m),
                   out=_aligned(recipe.m))
        h = NonNeg()
    else:  # pragma: no cover - guarded by the recipe constructor
        raise ValueError(recipe.family)

    n, AT = A.shape[1], A.T
    # the residual at the last point asked for, keyed on its bits (the
    # solvers ask for f and grad at equal points built as distinct arrays),
    # and the array of a ray step, whose residual only that array reads
    last = (None, None, None)

    def residual(x):
        nonlocal last
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        hit_key, r, point = last
        if hit_key == key and (point is None or point is x):
            return r
        r = A @ x - b
        last = (key, r, None)
        return r

    def f(x):
        r = residual(x)
        return 0.5 * float(np.dot(r, r))

    def grad(x):
        return AT @ residual(x)

    def ray(x, p):
        r, q = residual(x), A @ p

        def take(t):
            nonlocal last
            x_new = p * t   # x + t p and r + t q, with their bits
            x_new += x
            q_t = q * t
            q_t += r
            last = ((x_new.shape, x_new.tobytes()), q_t, x_new)
            return x_new
        return float(np.dot(q, q)), take

    problem = ProblemSpec(dim=n, f=f, grad=grad, h=h,
                          lipschitz=estimate_sq_norm(A),
                          name=recipe.label(), recipe=recipe, ray=ray)
    problem.A = A
    problem.b = b
    problem.blocks = blocks
    return problem


# -- reference solutions -------------------------------------------------------


@dataclass
class ReferenceSolution:
    x_star: np.ndarray
    f_star: float
    approximate: bool
    cache_hit: bool


def default_cache_dir():
    return os.environ.get("PROXQN_CACHE_DIR",
                          os.path.join(os.getcwd(), ".proxqn-cache"))


def _write_atomic(path, payload):
    """Write ``payload`` bytes to ``path`` through a temporary file in the
    same directory and ``os.replace``, so that a reader never sees a
    half-written file."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_cached(problem, xpath, jpath):
    """The cached reference, or None when it is missing, unreadable, or
    written by another package version."""
    try:
        with open(jpath) as fh:
            meta = json.load(fh)
        if meta["version"] != __version__:
            return None
        x = np.load(xpath)
        if x.shape != (problem.dim,):
            return None
        return ReferenceSolution(x, meta["f_star"], meta["approximate"], True)
    except (OSError, ValueError, EOFError, KeyError, TypeError):
        return None


def reference_solution(problem, tol=1e-12, max_iters=400_000,
                       cache_dir=None) -> ReferenceSolution:
    """High-accuracy reference optimum, cached on disk by recipe digest.

    The FISTA-BB (adaptive restart) solution at the step-norm tolerance,
    flagged approximate if the iteration cap is reached first.  A cache
    entry that cannot be read or that another package version wrote is
    recomputed; the ``.npy`` and then the ``.json`` file are replaced
    atomically.
    """
    cache_dir = cache_dir or default_cache_dir()
    key = None
    if problem.recipe is not None:
        key = f"{problem.recipe.digest()}_t{tol:g}"
        xpath = os.path.join(cache_dir, key + ".npy")
        jpath = os.path.join(cache_dir, key + ".json")
        cached = _read_cached(problem, xpath, jpath)
        if cached is not None:
            return cached

    result = run_fista_bb(problem, SolverOptions(max_iters=max_iters, tol=tol))
    ref = ReferenceSolution(result.x, result.objective, not result.converged,
                            False)

    if key is not None:
        os.makedirs(cache_dir, exist_ok=True)
        buf = io.BytesIO()
        np.save(buf, ref.x_star)
        _write_atomic(xpath, buf.getvalue())
        meta = {"f_star": ref.f_star, "approximate": ref.approximate,
                "recipe": asdict(problem.recipe), "tol": tol,
                "version": __version__}
        _write_atomic(jpath, json.dumps(meta, indent=1).encode())
    return ref


# -- races ----------------------------------------------------------------------


@dataclass
class RaceEntry:
    solver_id: str
    problem_id: str
    trace: ConvergenceTrace | None
    result: object = None
    error: str | None = None


def race(problems, solver_ids, opts, cache_dir=None):
    """Run every (solver, problem) pair under the same options ``opts``,
    one after another, so that each pair's recorded times are its own;
    each trace gets the problem's reference objective as ``f_star``.

    Warm starts are never shared between solvers; each pair owns its
    state.  Individual solver failures are recorded and the race
    continues.  Returns a list of :class:`RaceEntry`.
    """
    for solver_id in solver_ids:
        if solver_id not in SOLVERS:
            raise KeyError(f"unknown solver {solver_id!r}")
    refs = {id(p): reference_solution(p, cache_dir=cache_dir)
            for p in problems}
    entries = []
    for problem in problems:
        for solver_id in solver_ids:
            entry = RaceEntry(solver_id, problem.name, None)
            try:
                result = SOLVERS[solver_id](problem, opts)
                result.trace.f_star = refs[id(problem)].f_star
                entry.trace, entry.result = result.trace, result
            except Exception as exc:  # noqa: BLE001 - recorded, race continues
                entry.error = f"{type(exc).__name__}: {exc}"
            entries.append(entry)
    return entries


# -- persistence -----------------------------------------------------------------


def write_trace_csv(trace: ConvergenceTrace, path, timed=True):
    """One CSV per (solver, problem): ``iter,obj_err,step_norm,seconds``."""
    errs = trace.objective_errors()
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for i in range(len(trace)):
            seconds = trace.seconds[i] if timed else 0.0
            fh.write(f"{trace.iters[i]},{errs[i]:.17g},"
                     f"{trace.step_norms[i]:.17g},{seconds:.6f}\n")


def read_trace_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return np.atleast_1d(data)


def _environment():
    """The numpy and scipy versions with the BLAS build each links (name,
    version and OpenBLAS configuration, where ``show_config(mode="dicts")``
    reports them; else None), the core count and the BLAS thread
    variables, which change the timings and 0BFGS's iterates.  scipy is
    imported here, where a manifest needs its version."""
    import scipy

    env = {}
    for module in (np, scipy):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            blas = {k: deps["blas"].get(k)
                    for k in ("name", "version", "openblas configuration")}
        except (TypeError, KeyError):   # a version without the dict mode
            blas = None
        env[module.__name__] = {"version": module.__version__, "blas": blas}
    env["cpu_count"] = os.cpu_count()
    env["threads"] = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return env


def write_manifest(path, entries, problems, options):
    manifest = {
        "version": __version__,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "environment": _environment(),
        "options": options,
        "problems": [
            {"name": p.name, "digest": p.recipe.digest() if p.recipe else None,
             "recipe": asdict(p.recipe) if p.recipe else None}
            for p in problems
        ],
        "runs": [
            {"solver": e.solver_id, "problem": e.problem_id,
             "error": e.error,
             "iterations": None if e.result is None else e.result.iterations,
             "status": None if e.result is None else e.result.status}
            for e in entries
        ],
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)


def write_gnuplot_script(path, csv_paths):
    """A ready gnuplot script plotting objective error vs seconds."""
    lines = [
        "set logscale y",
        "set xlabel 'seconds'",
        "set ylabel 'objective error'",
        "set datafile separator ','",
        "plot \\",
    ]
    plots = [f"  '{p}' using 4:2 skip 1 with lines title '{os.path.basename(p)}'"
             for p in csv_paths]
    lines.append(", \\\n".join(plots))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

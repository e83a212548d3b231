"""Forward-backward solvers: quasi-Newton (0SR1, 0BFGS) and first-order
baselines (ISTA, FISTA with Barzilai-Borwein steps, SPG/SpaRSA).

The quasi-Newton loop steps through :func:`fb_step` once per iteration,
on the factored forms of ``H`` and ``B`` that one builder per method
(``quasi_newton._sr1_factors``, ``_zbfgs_factors``) reads from the pair,
with no metric object; ``record_metrics`` wraps the step's ``H``.  It
moves along the prox displacement ``p`` by the backtracking
:func:`line_search` or, on a least-squares ``f`` whose problem carries
the ``ray`` hook, to the minimizer of ``F(x + t p)`` on ``[0, RAY_CAP]``
(the exact step, :func:`_ray_step`).
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .metric import _apply, _as_vector
from .prox import Box, ProxOperator
# the public metrics and scaled proxes are not called here; perfbench's
# tracer wraps them by these names
from .quasi_newton import (QNPair, _sr1_H, _sr1_factors,  # noqa: F401
                           _zbfgs_factors, _zbfgs_H, sr1_metric,
                           zbfgs_metric)
from .scaled import (RootFinderError, _route, scaled_prox,  # noqa: F401
                     scaled_prox_rank2)
from .trace import ConvergenceTrace

__all__ = [
    "ProblemSpec",
    "SolverOptions",
    "SolverResult",
    "SolverError",
    "fb_step",
    "line_search",
    "run_zero_sr1",
    "run_zero_bfgs",
    "run_ista",
    "run_fista_bb",
    "run_spg_sparsa",
    "fixed_point_residual",
    "SOLVERS",
]


class SolverError(RuntimeError):
    """A solver aborted (divergence detected or prox failure)."""


@dataclass
class ProblemSpec:
    """A composite problem ``F(x) = f(x) + h(x)``.

    ``f`` must be continuously differentiable with an L-Lipschitz
    gradient; ``h`` is any operator from :mod:`proxqn.prox`.

    ``ray`` is an optional hook for ``f(x) = ||A x - b||^2 / 2``:
    ``ray(x, p)`` forms ``q = A p`` and returns ``(||q||^2, take)``, and
    ``take(t)`` returns the new point ``x + t p`` with ``r + t q`` (``r =
    A x - b``) stored as its residual, which ``f`` and ``grad`` then read
    without a product.  It must store that residual for this very array
    only, so that no other solve meets it at a point with the same bits.
    On a box ``h`` the loop clips the returned point in place, moving an
    entry that rounded past a bound back onto it; a hook that keys the
    residual on the point's bits, as ``bench.generate``'s does, then
    forms it anew.  With the hook, 0BFGS takes the exact step along its
    ray (see :func:`line_search`).
    """

    dim: int
    f: callable
    grad: callable
    h: ProxOperator
    lipschitz: float | None = None
    f_star: float | None = None
    name: str = "problem"
    recipe: object = None
    ray: callable = None

    def objective(self, x):
        return float(self.f(x)) + float(self.h.evaluate(x))

    def check_gradient(self, rng=None, probes=5, tol=1e-5):
        """Verify grad against central differences on random probes."""
        rng = np.random.default_rng(0) if rng is None else rng
        for _ in range(probes):
            x = rng.standard_normal(self.dim)
            v = rng.standard_normal(self.dim)
            v /= np.linalg.norm(v)
            eps = 1e-6 * (1.0 + np.linalg.norm(x))
            fd = (self.f(x + eps * v) - self.f(x - eps * v)) / (2.0 * eps)
            an = float(np.dot(self.grad(x), v))
            if abs(fd - an) > tol * (1.0 + abs(an)):
                return False
        return True


@dataclass
class SolverOptions:
    max_iters: int = 20000
    tol: float = 1e-10                 # sup-norm threshold on the prox step
    # read by 0SR1 and 0BFGS only; None: the method's own step, the exact
    # one along the ray for 0BFGS (see line_search), backtracking for 0SR1
    line_search: str | None = None     # or "backtracking" or "none"
    gamma: float | None = None         # None: 0.8 for SR1, 1.0 for 0BFGS
    # read by 0SR1, 0BFGS and ISTA (None: 1/L); FISTA-BB and SPG reject it
    kappa: float | None = None         # None: 1 with the metric absorbing BB
    x0: np.ndarray | None = None
    budget_seconds: float | None = None
    record_metrics: bool = False

    def __post_init__(self):
        if not self.max_iters >= 1:   # an empty trace breaks SolverResult
            raise ValueError("max_iters must be at least 1")
        if not self.tol >= 0:   # NaN fails each test
            raise ValueError("tol must be non-negative")
        if self.budget_seconds is not None and not self.budget_seconds > 0:
            raise ValueError("budget_seconds must be positive")
        if self.kappa is not None and not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.gamma is not None and not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.line_search not in (None, "backtracking", "none"):
            raise ValueError(f"unknown line-search mode {self.line_search!r}")


@dataclass
class SolverResult:
    """Outcome of a solve.  ``iterations`` is the index of the last
    recorded iteration, not a count: the trace holds ``iterations + 1``
    rows, so a solve that stops at its first check reports 0."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    status: str
    trace: ConvergenceTrace
    solver: str = ""
    metrics: list = field(default_factory=list)


# sufficient-decrease constant of the Armijo and nonmonotone tests
SIGMA = 1e-4
# step halvings before the backtracking line search gives up
MAX_HALVINGS = 30
# objective values the SPG nonmonotone test looks back over
SPG_MEMORY = 10
# the longest exact step along the ray: the gain on LASSO comes from steps
# past 1, and a cap of 8 gave part of it back (ROADMAP item 16)
RAY_CAP = 2.0
# the relative rise of F at the exact step that counts as rounding: the
# minimizer of a convex phi cannot raise F, and where F's differences sink
# to a few units in its last place a strict test refuses every step and
# ends the solve "stagnated" above tol (the 7^3 grid at tol 1e-8)
RAY_SLACK = 1e-15


def fb_step(x, grad_x, H, B, h, kappa=1.0, warm_alpha=None, tol=1e-12):
    """The quasi-Newton loop's step ``prox^B_{kappa h}(x - kappa H grad)``
    on the factored forms of its builders, with no check and no dense solve.

    ``H = (c, U1, U2)``, ``c`` a scalar or the diagonal, gives the forward
    point with ``H.apply``'s bits; ``B = (weights, U, W, r1, g)`` goes to
    ``scaled._route`` as it is (the weights that bind ``h``).

    Where the Newton of the prox starts depends on ``h``.  A separable
    ``h`` (the clip family) starts it at ``warm_alpha``, the last step's
    multipliers: its piecewise-affine Newton ends in a few steps from
    either start, and the other one cost NNLS more prox evaluations and
    the dense LASSO time.  Any other ``h`` (group norms, support
    functions, the simplex, the l1 ball, affine constraints) starts it at
    the multipliers at which the prox would return ``x`` itself, ``K^{-1}
    U^T kappa H g`` from the displacement ``x - forward = kappa H g``: the
    exact root at a fixed point of the step, and close to it as the
    iterates converge; ``warm_alpha`` is then not read.  The point and report are those of
    ``scaled_prox_rank2(B, h, forward, kappa, tol, alpha0)`` on the
    metrics that these factors form, ``alpha0`` that start.
    """
    back = kappa * _apply(*H, _as_vector(grad_x, H[1].shape[0]))
    return _route(h, x - back, kappa, *B, tol, warm_alpha,
                  None if h.separable else back)


def line_search(problem, x, p, f_x, kappa, mode="backtracking"):
    """Step length along the prox displacement ``p``.

    Mode "none" returns t = 1.  Mode "backtracking" returns the largest
    ``t`` in {1, 1/2, 1/4, ...} with
    ``F(x + t p) <= F(x) - SIGMA t ||p||^2 / kappa``; if no scale is
    admissible the smallest is returned with a stagnation flag.  It stops
    at the first trial with a NaN objective and returns it (the solve ends
    there); a trial at +inf (outside dom h) is halved like any other.

    0BFGS's own step (option value None) is the loop's, not this
    function's: with the problem's ``ray`` hook and an ``h`` with an exact
    search (``_ray_min``: the l1, group and box families) the loop steps to
    the minimizer of ``F(x + t p)`` on ``[0, RAY_CAP]`` (:func:`_ray_step`),
    and comes here, backtracking, where that step is 0 or does not decrease
    ``F``.  Since that interval holds every ``t`` that backtracking tries,
    the exact step decreases ``F`` at least as much as the Armijo step
    would.
    """
    if mode == "none":
        return 1.0, problem.objective(x + p), False
    if mode != "backtracking":
        raise ValueError(f"unknown line-search mode {mode!r}")
    decrease = SIGMA * float(np.dot(p, p)) / kappa
    t = 1.0
    for _ in range(MAX_HALVINGS):
        f_new = problem.objective(x + t * p)
        if f_new <= f_x - t * decrease or math.isnan(f_new):
            return t, f_new, False
        t *= 0.5
    return t, problem.objective(x + t * p), True


def _ray_step(problem, x, p, g, f_x):
    """The exact step along the ray: ``(t, x + t p, F(x + t p))`` for the
    minimizer ``t`` of ``phi(t) = F(x + t p)`` on ``[0, RAY_CAP]``, which
    ``h._ray_min(x, p, a, c, RAY_CAP)`` finds from ``a = <grad f(x), p>``
    and ``c = ||A p||^2`` (the ``ray`` hook's), or None for the
    backtracking search to take over: at ``t = 0``, and where ``F(x + t
    p)`` is not finite or exceeds ``F(x)``."""
    c, take = problem.ray(x, p)
    h = problem.h
    t = h._ray_min(x, p, float(np.dot(g, p)), c, RAY_CAP)
    if not t > 0:
        return None
    x_new = take(t)
    if isinstance(h, Box):
        # x + t_max p can round past the bound it reaches: such an entry
        # goes back onto it, and the point's new bits miss the residual
        # that take stored, so f and grad form A x - b anew
        np.clip(x_new, h.lo, h.hi, out=x_new)
    f_new = problem.objective(x_new)
    if f_new <= f_x + RAY_SLACK * (1.0 + abs(f_x)) and f_new < math.inf:
        return t, x_new, f_new
    return None


def fixed_point_residual(problem, x, kappa=None):
    """Sup-norm of ``x - prox_{kappa h}(x - kappa grad f(x))``; zero iff x
    satisfies the optimality inclusion ``0 in grad f(x) + dh(x)``."""
    if kappa is None:
        kappa = 1.0 / problem.lipschitz if problem.lipschitz else 1.0
    ones = np.ones(problem.dim)
    p = problem.h.prox_diag(x - kappa * problem.grad(x), ones, kappa)
    return float(np.max(np.abs(x - p), initial=0.0))


# -- the shared loop -----------------------------------------------------------


class _Run:
    """The loop every solver runs: trace, stopping tests, budget, result.

    A solver supplies only its step rule, as two callables:

    - ``propose(k, x)`` returns the candidate point of iteration ``k``;
    - ``advance(k, x, f_val, x_new, dx)`` moves past it and returns the
      next ``(x, f_val, stop)``, where ``stop`` is None or the status
      that ends the solve there ("stagnated" or "nonfinite").

    Each iteration is recorded with the sup-norm of ``dx = x_new - x`` before
    any stopping test.  The solve ends "nonfinite" at the last point with a
    finite objective, on a non-finite step norm or on a non-finite objective
    returned by ``advance`` (whose point is then not taken).  ``F(x0) =
    +inf``, an infeasible ``x0``, is repaired by the first prox step; from
    a NaN or -inf ``F(x0)`` no step is proposed, and the solve ends at once
    with a NaN step norm.  A scaled prox that misses its tolerance
    (:class:`RootFinderError` from ``propose``) ends it "prox_failed" at the
    last accepted point, its iteration recorded with a NaN step norm.  It
    ends "converged" once the step norm drops below ``tol``,
    "budget" past ``budget_seconds`` of the thread's CPU time (the trace's
    seconds are wall-clock), with the status ``advance`` returns as
    ``stop``, and "max_iters" otherwise.  The result's objective is that of
    the point it returns.
    """

    def __init__(self, problem, opts, solver_id):
        self.opts = opts
        self.objective = problem.objective
        self.solver_id = solver_id
        self.t0, self.cpu0 = time.perf_counter(), time.thread_time()
        self.trace = ConvergenceTrace(solver_id=solver_id,
                                      problem_id=problem.name)
        self.metrics = []   # (H, pair) per iteration with record_metrics

    def drive(self, x, f_val, propose, advance, first=0, settle=False):
        """Iterate from ``x``.  The step test counts from iteration
        ``first`` on; with ``settle`` a converged solve ends at the
        candidate instead of at ``x``."""
        opts = self.opts
        status, converged = "max_iters", False
        k = 0
        for k in range(opts.max_iters):
            # only a NaN or -inf F(x0) fails the test: no step is proposed
            # from it, and its NaN point ends the solve below
            try:
                x_new = propose(k, x) if f_val > -math.inf else x * math.nan
            except RootFinderError:
                x_new, status = x * math.nan, "prox_failed"
            dx = x_new - x
            step_norm = float(np.abs(dx).max(initial=0.0))
            self.trace.append(k, f_val, step_norm,
                              time.perf_counter() - self.t0)
            if not math.isfinite(step_norm):
                if status != "prox_failed":
                    status = "nonfinite"
                break
            if step_norm < opts.tol and k >= first:
                if settle:   # end at the candidate, with its objective
                    f_new = self.objective(x_new)
                    if math.isfinite(f_new):
                        x, f_val = x_new, f_new
                status, converged = "converged", True
                break
            if opts.budget_seconds is not None and \
                    time.thread_time() - self.cpu0 > opts.budget_seconds:
                status = "budget"
                break
            x_next, f_next, stop = advance(k, x, f_val, x_new, dx)
            if not math.isfinite(f_next):   # end at the last finite one
                x_next, f_next, stop = x, f_val, "nonfinite"
            x, f_val = x_next, f_next
            if stop:
                status = stop
                break
        return SolverResult(x=x, objective=f_val, iterations=k,
                            converged=converged, status=status,
                            trace=self.trace, solver=self.solver_id,
                            metrics=self.metrics)


def _initial_point(problem, opts):
    if opts.x0 is not None:
        x = np.array(opts.x0, dtype=float, copy=True)
        if x.shape != (problem.dim,):
            raise ValueError("x0 dimension mismatch")
        return x
    return np.zeros(problem.dim)


def _run_quasi_newton(problem, opts, variant):
    """The loop of 0SR1 and 0BFGS.  The checks that ``scaled._checked``
    and the metrics' tests ``c > 0`` would make at every step hold for the
    whole loop and run once: kappa, the operator's dimension and 0SR1's
    ``gamma < 1``; the builders test a diagonal's ``c > 0``."""
    run = _Run(problem, opts, "zero-sr1" if variant == "sr1" else "zero-bfgs")
    gamma = opts.gamma if opts.gamma is not None else \
        (0.8 if variant == "sr1" else 1.0)
    L = _lipschitz(problem, run.solver_id, required=False)
    tau0 = 1.0 / L if L else 1.0
    build, public_H = (_sr1_factors, _sr1_H) if variant == "sr1" else \
        (_zbfgs_factors, _zbfgs_H)
    kappa = opts.kappa if opts.kappa is not None else 1.0
    n, h = problem.dim, problem.h
    # 0BFGS's own step is the exact one, where the problem has the ray hook
    # and h an exact search; where either is missing, or the step is
    # refused, the loop backtracks, as 0SR1 does
    exact = opts.line_search is None and variant == "bfgs" \
        and problem.ray is not None and h._ray_min is not None
    fallback = opts.line_search or "backtracking"
    if variant == "sr1" and not gamma < 1.0:   # gamma > 0: SolverOptions
        raise ValueError("gamma must lie in (0, 1)")
    if not kappa > 0:
        raise ValueError("kappa must be positive")
    if h.dim not in (None, n):
        h.check_weights(np.ones(n), n)
    scalar = h._scalar_bind and h.dim in (None, n)

    x = _initial_point(problem, opts)
    g = problem.grad(x)
    f_val = problem.objective(x)
    pair = None
    warm = None
    last_tau = tau0   # 0BFGS's fallback: tau_bb2 of its last update

    def propose(k, x):
        nonlocal warm, last_tau
        # H as (c, U1, U2) and B as (c, U, W, r1, Gram), U and W its blocks;
        # a step without a pair keeps tau0
        H, (c, *B), skipped = build(pair, gamma, n,
                                    tau0 if pair is None else last_tau)
        if variant == "bfgs" and not skipped:
            last_tau = pair.curvature / pair.y_norm_sq
        if opts.record_metrics:
            run.metrics.append((public_H(H), pair))
        xbar, report = fb_step(x, g, H, (c if scalar else np.full(n, c), *B),
                               h, kappa, warm, 1e-12)
        warm = report.alpha_star
        return xbar

    def advance(k, x, f_val, xbar, p):
        nonlocal g, pair
        step = _ray_step(problem, x, p, g, f_val) if exact else None
        if step is not None:
            t, x_new, f_new = step
            stagnated = False
        else:
            t, f_new, stagnated = line_search(problem, x, p, f_val, kappa,
                                              mode=fallback)
            if fallback != "none" and \
                    f_new > f_val + 1e-8 * (1.0 + abs(f_val)):
                raise SolverError(
                    f"{run.solver_id}: objective increased at iteration {k} "
                    f"({f_val:.6g} -> {f_new:.6g}) despite line search")
            x_new = x + t * p
        g_new = problem.grad(x_new)
        s = x_new - x
        # a step at rounding level carries no curvature information and
        # 1/<s,y> would amplify cancellation noise into the metric; two in
        # a row without a decrease of F put the solve on the objective's
        # rounding floor, where the next step would repeat this one
        rounding = np.abs(s).max() <= 1e-13 * (1.0 + np.abs(x_new).max())
        floor = rounding and pair is None and f_new >= f_val
        pair = None if rounding else QNPair._trusted(s, g_new - g)
        g = g_new
        # a non-finite gradient shows in <s, y>; no metric can be built
        if pair is not None and not math.isfinite(pair.curvature):
            return x_new, f_new, "nonfinite"
        stalled = floor or (
            stagnated and t * float(np.abs(p).max(initial=0.0)) < 1e-16)
        return x_new, f_new, "stagnated" if stalled else None

    return run.drive(x, f_val, propose, advance)


def run_zero_sr1(problem, opts=None):
    """Zero-memory SR1 forward-backward (diagonal + rank-1 metric)."""
    return _run_quasi_newton(problem, opts or SolverOptions(), "sr1")


def run_zero_bfgs(problem, opts=None):
    """Zero-memory BFGS forward-backward (diagonal + rank-1 - rank-1)."""
    return _run_quasi_newton(problem, opts or SolverOptions(), "bfgs")


# -- first-order baselines -----------------------------------------------------


def _euclid_prox(h, v, d, kappa):
    """The Euclidean prox, ``d`` being the solve's checked unit weights; a
    module global called per prox, which perfbench's tracer wraps by name."""
    return h._prox_diag(v, d, kappa)


def _lipschitz(problem, solver, required=True):
    """The problem's gradient Lipschitz estimate.  None and 0 mean none:
    the quasi-Newton solvers (``required`` False) then return None, the
    first-order ones raise; a NaN, infinite or negative one raises."""
    L = problem.lipschitz
    if not L:
        if required:
            raise ValueError(f"{solver} needs a gradient Lipschitz estimate")
        return None
    if not 0 < L < math.inf:   # NaN fails
        raise ValueError(f"{solver}: the gradient Lipschitz estimate must "
                         f"be finite and non-negative, got {L!r}")
    return L


def run_ista(problem, opts=None):
    """Proximal gradient descent with the constant step 1/L."""
    opts = opts or SolverOptions()
    L = _lipschitz(problem, "ista")
    run = _Run(problem, opts, "ista")
    kappa = opts.kappa if opts.kappa is not None else 1.0 / L
    x = _initial_point(problem, opts)
    d = problem.h.check_weights(np.ones(problem.dim), problem.dim)

    def propose(k, x):
        return _euclid_prox(problem.h, x - kappa * problem.grad(x), d, kappa)

    def advance(k, x, f_val, x_new, dx):
        return x_new, problem.objective(x_new), None

    return run.drive(x, problem.objective(x), propose, advance)


def run_fista_bb(problem, opts=None):
    """FISTA with Barzilai-Borwein steps, backtracking, and a momentum
    restart whenever the objective rises (O'Donoghue and Candes 2015)."""
    opts = opts or SolverOptions()
    L = _lipschitz(problem, "fista-bb")
    if opts.kappa is not None:   # 1/L, then Barzilai-Borwein steps
        raise ValueError("fista-bb picks its own steps and takes no kappa")
    run = _Run(problem, opts, "fista-bb")
    x = _initial_point(problem, opts)
    y = x.copy()
    t_mom = 1.0
    kappa = 1.0 / L
    f_val = f_new = problem.objective(x)
    g_y = problem.grad(y)
    d = problem.h.check_weights(np.ones(problem.dim), problem.dim)

    def propose(k, x):
        nonlocal kappa, f_new
        f_y = float(problem.f(y))
        # backtrack kappa until the quadratic upper bound holds at y
        for _ in range(60):
            x_new = _euclid_prox(problem.h, y - kappa * g_y, d, kappa)
            diff = x_new - y
            quad = f_y + float(np.dot(g_y, diff)) + \
                float(np.dot(diff, diff)) / (2.0 * kappa)
            f_new = float(problem.f(x_new))
            # a NaN trial ends the search, and the solve (see line_search)
            if f_new <= quad + 1e-12 * (1.0 + abs(quad)) or \
                    math.isnan(f_new):
                break
            kappa *= 0.5
        return x_new

    def advance(k, x, f_val, x_new, dx):
        nonlocal y, g_y, t_mom, kappa
        # F(x_new) from the accepted trial's f: the bits of objective()
        F_new = f_new + float(problem.h.evaluate(x_new))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_mom ** 2))
        y_new = x_new + ((t_mom - 1.0) / t_next) * dx
        if F_new > f_val:   # the objective rose: restart the momentum
            t_next, y_new = 1.0, x_new.copy()
        g_y_new = problem.grad(y_new)
        sk, yk = y_new - y, g_y_new - g_y
        sy = float(np.dot(sk, yk))
        if sy > 0:
            kappa = min(max(sy / float(np.dot(yk, yk)), 1e-3 / L), 1e6 / L)
        y, g_y, t_mom = y_new, g_y_new, t_next
        return x_new, F_new, None

    return run.drive(x, f_val, propose, advance, first=1, settle=True)


def run_spg_sparsa(problem, opts=None):
    """Spectral proximal gradient with a nonmonotone acceptance test over
    the last ``SPG_MEMORY`` objective values."""
    opts = opts or SolverOptions()
    L = _lipschitz(problem, "spg")
    if opts.kappa is not None:   # 1/L, then Barzilai-Borwein steps
        raise ValueError("spg picks its own steps and takes no kappa")
    run = _Run(problem, opts, "spg")
    x = _initial_point(problem, opts)
    g = problem.grad(x)
    f_val = problem.objective(x)
    history = deque([f_val], maxlen=SPG_MEMORY)
    kappa = 1.0 / L
    f_new = f_val
    d = problem.h.check_weights(np.ones(problem.dim), problem.dim)

    def propose(k, x):
        nonlocal f_new
        kap = kappa
        for _ in range(60):
            x_new = _euclid_prox(problem.h, x - kap * g, d, kap)
            dx = x_new - x
            f_new = problem.objective(x_new)
            if f_new <= max(history) - SIGMA * float(np.dot(dx, dx)) / \
                    (2.0 * kap):
                break
            kap *= 0.5
        return x_new

    def advance(k, x, f_val, x_new, dx):
        nonlocal g, kappa
        g_new = problem.grad(x_new)
        yk = g_new - g
        sy = float(np.dot(dx, yk))
        kappa = min(max(sy / float(np.dot(yk, yk)), 1e-3 / L), 1e6 / L) \
            if sy > 0 else 1.0 / L
        g = g_new
        history.append(f_new)
        return x_new, f_new, None

    return run.drive(x, f_val, propose, advance, settle=True)


SOLVERS = {
    "zero-sr1": run_zero_sr1,
    "zero-bfgs": run_zero_bfgs,
    "ista": run_ista,
    "fista-bb": run_fista_bb,
    "spg": run_spg_sparsa,
}


def solve(problem, solver_id, opts=None):
    """Dispatch by solver id; raises KeyError for unknown ids."""
    if solver_id not in SOLVERS:
        raise KeyError(f"unknown solver {solver_id!r}; "
                       f"known: {sorted(SOLVERS)}")
    return SOLVERS[solver_id](problem, opts)

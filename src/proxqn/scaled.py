"""Proximal maps in diagonal +/- rank-r metrics.

The prox of ``kappa * h`` in ``V = P + sign * U U^T`` reduces to the prox in
the diagonal metric ``P`` evaluated at a shifted point,

    prox^V_{kh}(x) = prox^P_{kh}(x - sign * P^{-1} U alpha*),

where ``alpha*`` is the unique zero of the strongly monotone map

    L(alpha) = U^T (x - prox^P_{kh}(x - sign * P^{-1} U alpha)) + alpha.

One dispatcher serves every metric.  It reads the factored form
``(U1, W1, U2, W2)`` that :mod:`proxqn.metric` keeps, with
``W1 = P^{-1} U1`` and ``W2 = (P + Q1)^{-1} U2``, and routes by the total
rank: rank 0 is the diagonal prox; rank 1 is the warm-started scalar
semi-smooth Newton (:func:`root_semismooth_newton`) on ``(u, w, sign)`` of
the non-empty side, which terminates finitely on piecewise-affine maps and
in a few steps on the piecewise-smooth maps of group norms and affine
constraints, and asks for no Jacobian product at the step ending it; the
exact O(N log N) breakpoint sweep (or bisection, for operators without a
piecewise-affine descriptor) is its fallback on a budget miss and its
oracle.  Every rank >= 2, single-sign or ``V = P + Q1 - Q2`` (0BFGS), goes
through one damped semi-smooth Newton on the stacked multiplier system,
with one diagonal prox and one Clarke-Jacobian product with an N x r
matrix per step; a miss of its tolerance raises :class:`RootFinderError`.
The recursive route (an outer scalar solve over inner rank-1 solves) is
the rank-2 oracle, reached only through the exact or bisection finders.

Both Newtons bind the operator once per root problem (``_bind`` in
:mod:`proxqn.prox`), with the scalar ``c`` of a trusted ``P = c I`` where
the operator takes one: every prox step, line-search trials included,
reuses the thresholds, and a Newton step takes its Jacobian product from
the accepted point's binding (forward differences on the map for
operators without one); the rank-1 Newton's steps write into arrays it
allocates once.  The conjugate route goes through the metric Moreau
identity.  A report whose residual is not finite is never ``converged``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .metric import LowRankMetric, PlusMinusMetric

__all__ = [
    "RootFinderError",
    "BracketError",
    "RootProblem",
    "RootSolverReport",
    "root_bound",
    "root_bisection",
    "root_exact_piecewise_affine",
    "root_semismooth_newton",
    "scaled_prox",
    "scaled_prox_rank2",
    "scaled_prox_conjugate",
]

logger = logging.getLogger(__name__)

_FD_STEP = 1e-7
# first rank-1 Newton step checked for a stalled bracket; Newton ends
# within a few steps on the piecewise-affine maps of separable operators
_CYCLE_CHECK = 8


class RootFinderError(RuntimeError):
    """A root finder failed to reach its tolerance within budget."""


class BracketError(RootFinderError):
    """The map has the same sign at both bracket ends; this indicates a
    violated metric or operator invariant and is never widened silently."""


@dataclass
class RootSolverReport:
    """Outcome of a low-dimensional root solve; ``converged`` is False
    whenever ``residual`` is not finite."""

    alpha_star: np.ndarray
    residual: float
    iterations: int
    method: str
    converged: bool = True
    residual_history: list = field(default_factory=list)
    point: np.ndarray = None   # prox at alpha_star, when already computed


class RootProblem:
    """The r-dimensional dual root problem behind the scaled prox in a
    single-sign metric.

    Carries the strong-monotonicity modulus ``c`` (1 for a plus metric,
    ``1 - ||P^{-1/2} U||^2`` for a minus metric) and the Lipschitz bound
    ``1 + ||P^{-1/2} U||^2`` of the map.  The weights ``diag(P)`` are checked
    once, here; the root finders then call the unchecked ``_prox_diag``.
    """

    def __init__(self, metric: LowRankMetric, prox, x, kappa=1.0):
        self.x, self.diag, self.bind_weights = _checked(metric, prox, x,
                                                        kappa)
        self.metric = metric
        self.prox = prox
        self.kappa = float(kappa)
        self.sign = metric.sign
        # U and P^{-1} U of the non-empty side
        self.U, self._shift_dirs = (metric._U2, metric._W2) \
            if self.sign < 0 else (metric._U1, metric._W1)
        g_sq = metric.gram_norm_sq()
        self.lipschitz_bound = 1.0 + g_sq
        self.monotonicity_modulus = 1.0 if self.sign > 0 else 1.0 - g_sq

    @property
    def rank(self):
        return self.U.shape[1]

    def shifted_point(self, alpha):
        return self.x - self.sign * (self._shift_dirs @ np.atleast_1d(alpha))

    def prox_at(self, alpha):
        return self.prox._prox_diag(self.shifted_point(alpha), self.diag,
                                    self.kappa)

    def map_L(self, alpha):
        """The dual map whose unique zero determines the scaled prox."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        return self.U.T @ (self.x - self.prox_at(alpha)) + alpha


def _checked(metric, prox, x, kappa):
    """``(x, diag(P), weights)``: the query point as a float vector,
    ``diag(P)`` checked for ``prox`` and the weights to bind ``prox`` with;
    a trusted ``c I`` (``c > 0`` tested) needs only the dimension test, and
    binds with ``c`` if ``prox`` takes a scalar."""
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (metric.dim,):
        raise ValueError("query point dimension mismatch")
    if metric._c is None or prox.dim not in (None, metric.dim):
        d = prox.check_weights(metric.diag, metric.dim)
        return x, d, d
    return x, metric.diag, metric._c if prox._scalar_bind else metric.diag


def _fd_jacobian(func, x, base):
    """Forward-difference Jacobian of ``func`` at ``x``, where
    ``base = func(x)``."""
    n = x.size
    G = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = _FD_STEP
        G[:, j] = (func(x + step) - base) / _FD_STEP
    return G


def root_bound(problem: RootProblem):
    """Bracket radius ``beta = ||u|| (2 ||x|| + s0)`` for the rank-1 root.

    ``s0`` over-estimates ``||prox^V_h(0)||``: it is zero whenever the
    diagonal prox fixes the origin (all positively homogeneous h), else
    ``q0 (1 + ||u|| g / (c sqrt(d_min)))`` with ``q0 = ||prox^P_{kh}(0)||``,
    which follows from strong monotonicity of the map at x = 0 and
    P-norm non-expansiveness of the diagonal prox.
    """
    if problem.rank != 1:
        raise ValueError("root bound applies to rank-1 problems")
    u = problem.U[:, 0]
    u_norm = float(np.linalg.norm(u))
    q0 = float(np.linalg.norm(
        problem.prox._prox_diag(np.zeros(problem.x.shape[0]), problem.diag,
                                problem.kappa)))
    if q0 == 0.0:
        s0 = 0.0
    else:
        g = np.sqrt(problem.lipschitz_bound - 1.0)
        c = problem.monotonicity_modulus
        s0 = q0 * (1.0 + u_norm * g / (c * np.sqrt(float(np.min(problem.diag)))))
    return u_norm * (2.0 * float(np.linalg.norm(problem.x)) + s0)


def root_bisection(problem: RootProblem, eps=1e-10, max_iter=None):
    """Bisection on ``[-beta, beta]``; terminates once successive midpoints
    are closer than ``eps``, which puts the iterate within ``eps`` of the
    root. Iteration count is the number of midpoint map evaluations."""
    if problem.rank != 1:
        raise ValueError("bisection applies to rank-1 problems")
    if eps <= 0:
        raise ValueError("eps must be positive")
    beta = root_bound(problem)
    if beta == 0.0:
        return RootSolverReport(np.zeros(1), 0.0, 0, "bisection")
    if not math.isfinite(beta):   # a non-finite point: no bracket
        return RootSolverReport(np.full(1, np.nan), np.nan, 0, "bisection",
                                converged=False)
    lo, hi = -beta, beta
    f_lo = float(problem.map_L([lo])[0])
    f_hi = float(problem.map_L([hi])[0])
    if f_lo > 0 or f_hi < 0:
        raise BracketError(
            f"map has no sign change on [-beta, beta] = [{lo:.3g}, {hi:.3g}]; "
            "metric or prox invariants are violated"
        )
    if max_iter is None:
        max_iter = int(np.ceil(np.log2(max(2.0 * beta / eps, 2.0)))) + 8
    alpha_prev = None
    alpha = 0.0
    val = np.inf
    count = 0
    for _ in range(max_iter):
        alpha = 0.5 * (lo + hi)
        val = float(problem.map_L([alpha])[0])
        count += 1
        if val > 0:
            hi = alpha
        else:
            lo = alpha
        if val == 0.0:
            break
        if alpha_prev is not None and abs(alpha - alpha_prev) < eps:
            break
        alpha_prev = alpha
    return RootSolverReport(np.array([alpha]), abs(val), count, "bisection",
                            converged=math.isfinite(val))


def root_exact_piecewise_affine(problem: RootProblem, descriptor=None):
    """Exact rank-1 root for separable h with piecewise-affine prox maps.

    The map restricted to each interval between the sorted candidate
    breakpoints ``sign * d_i (x_i - t^j_i) / u_i`` is affine with

        a = 1 + sign * sum_i a^j_i u_i^2 / d_i,
        b = sum_i u_i ((1 - a^j_i) x_i - b^j_i),

    and exactly one coordinate changes segment between consecutive
    candidates, so all interval coefficients follow from one prefix scan
    over the sorted crossings (O(K log K) total, dominated by the sort).
    The root of the bracketing interval is ``-b / a``, exact up to
    floating point.
    """
    if problem.rank != 1:
        raise ValueError("the exact finder applies to rank-1 problems")
    desc = descriptor
    if desc is None:
        desc = problem.prox.pa_descriptor(problem.diag, problem.kappa)
    if desc is None:
        raise ValueError(
            f"{type(problem.prox).__name__} exposes no piecewise-affine "
            "descriptor; use bisection or the semi-smooth Newton finder"
        )
    u = problem.U[:, 0]
    d = problem.diag
    x = problem.x
    s = problem.sign
    mask = u != 0.0
    k = desc.breakpoints.shape[1]

    # segment of every coordinate at alpha -> -inf; infinite breakpoints
    # are never crossed, so they shift the reachable segment range.
    # Coordinates with u_i = 0 never contribute (their terms carry u_i).
    coef = np.where(mask, -s * u / d, 0.0)   # d z_i / d alpha
    if k:
        n_neg_inf = np.sum(desc.breakpoints == -np.inf, axis=1)
        n_pos_inf = np.sum(desc.breakpoints == np.inf, axis=1)
    else:
        n_neg_inf = n_pos_inf = np.zeros(desc.n, dtype=int)
    init_seg = np.where(coef > 0, n_neg_inf, k - n_pos_inf)
    rows = np.arange(desc.n)
    slope0 = desc.slopes[rows, init_seg]
    inter0 = desc.intercepts[rows, init_seg]
    wa = s * u * u / d
    a_init = 1.0 + float(np.sum((slope0 * wa)[mask]))
    b_init = float(np.sum((u * ((1.0 - slope0) * x - inter0))[mask]))

    cand = np.empty(0)
    if k and np.any(mask):
        xm, um, dm = x[mask], u[mask], d[mask]
        with np.errstate(invalid="ignore"):
            cross = s * dm[:, None] * (xm[:, None] - desc.breakpoints[mask]) \
                / um[:, None]
        # segment jump at each crossing: +1 when z_i increases with alpha
        jump = np.where(coef[mask] > 0, 1.0, -1.0)[:, None]
        d_slope = np.diff(desc.slopes[mask], axis=1) * jump
        d_inter = np.diff(desc.intercepts[mask], axis=1) * jump
        delta_a = wa[mask, None] * d_slope
        delta_b = -um[:, None] * (d_slope * xm[:, None] + d_inter)
        finite = np.isfinite(cross)
        if finite.all():
            cand = cross.ravel()
            delta_a, delta_b = delta_a.ravel(), delta_b.ravel()
        else:
            cand = cross[finite]
            delta_a, delta_b = delta_a[finite], delta_b[finite]
        if cand.size:
            order = np.argsort(cand)
            cand = cand[order]
            a_vals = a_init + np.cumsum(delta_a[order])
            b_vals = b_init + np.cumsum(delta_b[order])
            # collapse tied crossings so interval states are consistent
            if cand.size > 1:
                last = np.append(cand[1:] != cand[:-1], True)
                if not last.all():
                    cand = cand[last]
                    a_vals, b_vals = a_vals[last], b_vals[last]

    def finish(alpha):
        # one prox evaluation serves both the report residual and the
        # returned point
        p = problem.prox_at([alpha])
        residual = abs(float(np.dot(u, x - p)) + alpha)
        return RootSolverReport(np.array([alpha]), residual, 0, "exact",
                                converged=math.isfinite(residual), point=p)

    if cand.size == 0:
        if a_init <= 0.0:
            raise RootFinderError("non-positive slope; invariants violated")
        return finish(-b_init / a_init)

    # L at the candidates (continuous, non-decreasing up to rounding);
    # locate the sign change and solve on that interval
    l_vals = a_vals * cand + b_vals
    idx = int(np.searchsorted(l_vals, 0.0, side="right"))
    best = None
    for m in (idx - 1, idx - 2, idx):
        if m < -1 or m >= cand.size:
            continue
        a_coef = a_init if m < 0 else float(a_vals[m])
        b_coef = b_init if m < 0 else float(b_vals[m])
        if a_coef <= 0.0:
            continue
        alpha = -b_coef / a_coef
        lo = -np.inf if m < 0 else cand[m]
        hi = np.inf if m + 1 >= cand.size else cand[m + 1]
        pad = 1e-12 * (1.0 + abs(alpha))
        if lo - pad <= alpha <= hi + pad:
            best = alpha
            break
        if best is None:
            best = min(max(alpha, lo), hi)
    if best is None:
        raise RootFinderError("no bracketing interval; invariants violated")
    return finish(best)


def root_semismooth_newton(problem: RootProblem, tol=1e-12, alpha0=None,
                           max_iter=50):
    """The rank-1 semi-smooth Newton finder, :func:`_ssnewton_rank1`; a
    non-finite map value ends it at once, unconverged."""
    if problem.rank != 1:
        raise ValueError("the semi-smooth Newton finder applies to rank-1 "
                         "problems")
    return _ssnewton_rank1(problem, tol, alpha0, max_iter)


def _ssnewton_rank1(problem: RootProblem, tol, alpha0, max_iter):
    """Scalar semi-smooth Newton, one bound prox step per iteration,
    safeguarded by the bracket of map signs.  Stops at ``|L| <= tol``, at
    a non-finite ``L`` (unconverged), or at a point with its base point's
    Jacobian and ``|L|`` at rounding level: the root of that affine piece,
    as exact as the sweep's (equal slopes alone do not prove one piece:
    both outer l1 pieces have slope 1).  On the smooth pieces of a group
    norm the steps can close in on a 2-cycle around the root, so from step
    ``_CYCLE_CHECK`` on two steps that halve neither the bracket nor ``|L|``
    are followed by a bisection.  On budget exhaustion the sweep, or
    bisection, takes over.  Steps write into the call's own ``p`` (returned),
    ``z`` and two slots taken in turn (``tmp``, ``x - p``, then ``jw``)."""
    prox, x, s = problem.prox, problem.x, problem.sign
    u, w = problem.U[:, 0], problem._shift_dirs[:, 0]
    step = prox._bind(problem.bind_weights, problem.kappa)
    p, rows = np.empty_like(x), np.empty((3, x.size))
    z, jws = rows[0], (rows[1], rows[2])
    abs_ux = None   # |u| and |x|, formed at the first rounding-level test
    alpha = 0.0 if alpha0 is None else float(np.atleast_1d(alpha0)[0])
    lo, hi, prev, history, widths = -np.inf, np.inf, (None, None), [], []
    for it in range(max_iter + 1):
        np.subtract(x, np.multiply(s * alpha, w, z), z)
        p, jac = step(z, p, jws[it % 2])
        val = float(u.dot(np.subtract(x, p, jws[it % 2]))) + alpha
        history.append(abs(val))
        if not tol < abs(val) < math.inf:   # reached, or a non-finite map
            break
        jw = jac(w, jws[it % 2])
        slope = 1.0 + s * float(u.dot(jw)) if jw is not None else \
            float(problem.map_L([alpha + _FD_STEP])[0] - val) / _FD_STEP
        # equal products jw give equal slopes, the cheaper test first;
        # |u|.(|x| + |p|) + |alpha| bounds the terms summed into L
        if jw is not None and slope == prev[0] and (jw == prev[1]).all():
            abs_ux = abs_ux or (np.abs(u), np.abs(x))
            np.add(abs_ux[1], np.abs(p, z), z)
            if abs(val) <= 4.0 * x.size * np.finfo(float).eps * (
                    float(abs_ux[0] @ z) + abs(alpha)):
                break
        if it == max_iter:
            logger.info("rank-1 Newton missed %g; falling back", tol)
            desc = prox.pa_descriptor(problem.diag, problem.kappa)
            fb = root_bisection(problem, eps=max(
                tol / problem.lipschitz_bound, 1e-15)) if desc is None \
                else root_exact_piecewise_affine(problem, descriptor=desc)
            fb.method, fb.iterations = "ssnewton", fb.iterations + max_iter
            fb.residual_history = history + [fb.residual]
            return fb
        lo, hi = (lo, alpha) if val > 0 else (alpha, hi)
        widths.append(hi - lo)
        new = alpha - val / slope if slope > 0 else np.nan
        cycling = it >= _CYCLE_CHECK and widths[-1] > 0.5 * widths[-3] \
            and history[-1] > 0.5 * history[-3]
        if cycling or not lo < new < hi:
            if np.isinf(lo) or np.isinf(hi):
                beta = root_bound(problem)
                lo, hi = max(min(-beta, hi), lo), min(max(beta, lo), hi)
            new = 0.5 * (lo + hi)
        alpha, prev = new, (slope, jw)
    return RootSolverReport(np.array([alpha]), abs(val), it, "ssnewton",
                            converged=math.isfinite(val),
                            residual_history=history, point=p)


# -- dispatcher ----------------------------------------------------------------


def _prox(metric, prox, x, kappa, tol, warm):
    """The one production route, by the metric's total rank: the diagonal
    prox, the rank-1 Newton on the non-empty side, or the joint Newton on
    ``(U1, W1, U2, W2)``; ``warm`` of another size is ignored."""
    r = metric.rank
    if warm is not None and np.atleast_1d(warm).size != r:
        warm = None
    if r == 1:
        report = root_semismooth_newton(RootProblem(metric, prox, x, kappa),
                                        tol=tol, alpha0=warm)
        return report.point, report
    x, diag, weights = _checked(metric, prox, x, kappa)
    if r == 0:
        return prox._prox_diag(x, diag, kappa), \
            RootSolverReport(np.zeros(0), 0.0, 0, "diagonal")
    return _joint_newton(prox, x, kappa, weights, metric._U1, metric._W1,
                         metric._U2, metric._W2, tol, warm)


def scaled_prox(metric: LowRankMetric, prox, x, kappa=1.0, finder="auto",
                tol=1e-12, warm_alpha=None):
    """Prox of ``kappa * h`` in the metric ``V = P + U1 U1^T - U2 U2^T``.

    Parameters
    ----------
    finder : {"auto", "exact", "bisection"}
        Root-finding strategy.  "auto" is the warm-started semi-smooth
        Newton, the scalar one at rank 1 and above it the joint one, which
        raises :class:`RootFinderError` where it misses ``tol``; "exact"
        (the breakpoint sweep, for operators with a piecewise-affine
        descriptor) and "bisection" are the rank-1 oracles of a single-sign
        metric.
    tol : float
        Alpha tolerance for bisection, residual tolerance otherwise.
    warm_alpha : array, optional
        Starting point of the Newton finder (continuation across
        forward-backward iterations).

    Returns
    -------
    (p, report) : the prox point and the root-solver report.
    """
    if finder == "auto" or metric.rank == 0:
        return _prox(metric, prox, x, kappa, tol, warm_alpha)
    problem = RootProblem(metric, prox, x, kappa)
    if finder == "exact":
        report = root_exact_piecewise_affine(problem)
    elif finder == "bisection":
        report = root_bisection(problem, eps=tol)
    else:
        raise ValueError(f"unknown finder {finder!r}")
    p = report.point if report.point is not None \
        else problem.prox_at(report.alpha_star)
    return p, report


def _newton_scalar_bracketed(func, lo, hi, f_lo, f_hi, tol, max_iter=80):
    """Safeguarded scalar secant on a strictly increasing map."""
    if f_lo > 0 or f_hi < 0:
        raise BracketError("no sign change on the outer bracket")
    alpha = 0.5 * (lo + hi)
    val = func(alpha)
    a_prev, f_prev = lo, f_lo
    for it in range(max_iter):
        if abs(val) <= tol:
            return alpha, val, it + 1
        if val > 0:
            hi = alpha
        else:
            lo = alpha
        denom = val - f_prev
        slope = denom / (alpha - a_prev) if alpha != a_prev and denom != 0 \
            else None
        a_prev, f_prev = alpha, val
        new = alpha - val / slope if slope and slope > 0 else None
        if new is None or not (lo < new < hi):
            new = 0.5 * (lo + hi)
        if new == alpha:
            break
        alpha = new
        val = func(alpha)
    return alpha, val, max_iter


def scaled_prox_rank2(metric: PlusMinusMetric, prox, x, kappa=1.0, tol=1e-12,
                      warm=None, inner_finder="auto"):
    """Prox in ``V = P + Q1 - Q2``, either side possibly empty: the entry
    of the forward-backward step.

    With ``inner_finder="auto"`` it is the dispatcher of
    :func:`scaled_prox`, started from ``warm``; at rank >= 2 the damped
    semi-smooth Newton :func:`_joint_newton` on the stacked system in the
    multipliers ``(a, b)`` of ``Q1`` and ``Q2`` returns its point only at
    residual <= ``tol`` and raises :class:`RootFinderError` otherwise.

    ``inner_finder`` "exact" or "bisection" (the values :func:`scaled_prox`
    accepts besides "auto") selects the oracle, a computation independent
    of the Newton route: that finder for a single-sign metric, and with
    both sides the recursive path, for exactly one minus factor.  It peels
    the minus part off first: an outer rank-1 problem in ``P1 - Q2`` with
    ``P1 = P + Q1``, solved by a bracketed scalar Newton/secant with one
    inner rank-1 solve in ``P1`` per outer evaluation.  The report's
    ``method`` names the path that produced the point.
    """
    if inner_finder == "auto":
        return _prox(metric, prox, x, kappa, tol, warm)
    if not all(metric.ranks):
        return scaled_prox(metric, prox, x, kappa=kappa, finder=inner_finder,
                           tol=tol)
    return _rank2_recursive(metric, prox, np.asarray(x, dtype=float), kappa,
                            tol, warm, inner_finder)


def _joint_newton(prox, x, kappa, weights, U1, W1, U2, W2, tol, warm):
    """Damped semi-smooth Newton on the stacked system

        F1(a, b) = U1^T (x + W2 b - p) + a
        F2(a, b) = U2^T (x - p) + b,
        p = prox^P_{kh}(x + W2 b - W1 a),  W1 = P^{-1} U1,  W2 = P1^{-1} U2,

    which is Theorem 3.4 recursed through ``V = (P + Q1) - Q2``; either
    side may be empty, which leaves the single-sign dual map.  The operator
    is bound once (``_bind``, with ``weights``); each step takes the
    Clarke-Jacobian product with ``[W1 W2]`` of its point's binding
    (forward differences on F when the operator exposes none) and halves
    its length until ``||F||`` falls by the factor ``1 - 1e-4 t``.  Raises
    :class:`RootFinderError` when the residual does not reach ``tol``: no
    sufficient decrease after 30 halvings, or 60 steps; a non-finite
    residual ends it at once, unconverged.
    """
    r1 = U1.shape[1]
    r = r1 + U2.shape[1]
    Ut = np.concatenate((U1, U2), axis=1).T
    W = np.concatenate((W1, W2), axis=1)
    # z = x + W @ (sgn * ab): the a-directions enter with a minus sign
    sgn = np.ones(r)
    sgn[:r1] = -1.0
    K = np.eye(r)
    K[:r1, r1:] = U1.T @ W[:, r1:]
    step = prox._bind(weights, kappa)

    def system(ab):
        p, jac = step(x + W @ (sgn * ab))
        return Ut @ (x - p) + K @ ab, p, jac

    ab = np.zeros(r) if warm is None else np.array(warm, dtype=float)
    val, p, jac = system(ab)
    res = math.sqrt(val.dot(val))
    history = [res]
    while tol < res < math.inf and len(history) <= 60:
        JW = jac(W)
        G = _fd_jacobian(lambda v: system(v)[0], ab, val) if JW is None \
            else K - (Ut @ JW) * sgn
        try:
            d_ab = np.linalg.solve(G, val)
        except np.linalg.LinAlgError:
            d_ab = np.linalg.solve(G + 1e-8 * np.eye(r), val)
        t = 1.0
        for _ in range(31):
            new = ab - t * d_ab
            new_val, new_p, new_jac = system(new)
            new_res = math.sqrt(new_val.dot(new_val))
            if new_res <= (1.0 - 1e-4 * t) * res:
                break
            t *= 0.5
        else:
            break
        ab, val, p, jac, res = new, new_val, new_p, new_jac, new_res
        history.append(res)
    if tol < res < math.inf:   # no sufficient decrease, or 60 steps
        raise RootFinderError(f"joint semi-smooth Newton missed {tol:g} "
                              f"(residual {res:g})")
    return p, RootSolverReport(ab, res, len(history) - 1, "rank2-joint",
                               converged=res <= tol, residual_history=history)


def _rank2_recursive(metric: PlusMinusMetric, prox, x, kappa, tol, warm,
                     inner_finder):
    """Outer bracketed scalar solve in ``b`` over inner rank-1 solves in
    ``P1 = P + Q1``: the rank-2 oracle of :func:`scaled_prox_rank2`."""
    U2 = metric.factor_matrices[1]
    if U2.shape[1] != 1:
        raise ValueError("the recursive path needs exactly one minus factor")
    u2 = U2[:, 0]
    w2 = metric.p1_inv_minus[:, 0]
    inner_metric = LowRankMetric(metric.diag, metric.plus_factors, +1)
    g2_sq = float(np.dot(u2, w2))
    if g2_sq >= 1.0:
        raise RootFinderError("outer metric P1 - Q2 not positive definite")
    c_outer = 1.0 - g2_sq
    inner_tol = min(tol, 1e-13)
    state = {"warm": None}

    def inner_prox(z):
        p, rep = scaled_prox(inner_metric, prox, z, kappa=kappa,
                             finder=inner_finder, tol=inner_tol,
                             warm_alpha=state["warm"])
        state["warm"] = rep.alpha_star
        return p

    def outer_map(b):
        return float(np.dot(u2, x - inner_prox(x + b * w2))) + b

    # Prop 3.10 bound on the outer problem, with the q0 chain for
    # non-homogeneous h evaluated through the inner metric.
    q0 = float(np.linalg.norm(inner_prox(np.zeros_like(x))))
    u2n = float(np.linalg.norm(u2))
    s0 = 0.0 if q0 == 0.0 else q0 * (
        1.0 + u2n * np.sqrt(g2_sq) / (c_outer * np.sqrt(float(np.min(metric.diag)))))
    beta = u2n * (2.0 * float(np.linalg.norm(x)) + s0)
    b0 = 0.0 if warm is None or not np.size(warm) else \
        float(np.atleast_1d(warm)[-1])
    beta = max(beta, abs(b0)) or 1.0
    b_star, val, outer_iters = _newton_scalar_bracketed(
        outer_map, -beta, beta, outer_map(-beta), outer_map(beta), tol)
    p = inner_prox(x + b_star * w2)
    alpha = np.concatenate([state["warm"] if state["warm"] is not None
                            else np.zeros(0), [b_star]])
    return p, RootSolverReport(alpha, abs(val), outer_iters, "rank2-recursive",
                               converged=abs(val) <= tol * 10)


def scaled_prox_conjugate(metric: LowRankMetric, prox, x, rho=1.0,
                          finder="auto", tol=1e-12):
    """Prox of ``rho * h^*`` in V through the metric Moreau identity,

        prox^V_{rho h*}(x) = x - rho V^{-1} prox^{V^{-1}}_{h/rho}(V x / rho),

    computed with the inverse metric (whose low-rank sign flips).
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    x = np.asarray(x, dtype=float)
    inv = metric.invert()
    y = metric.apply(x) / rho
    q, report = scaled_prox(inv, prox, y, kappa=1.0 / rho, finder=finder,
                            tol=tol)
    return x - rho * inv.apply(q), report

"""Proximal maps in diagonal +/- rank-r metrics.

The prox of ``kappa * h`` in ``V = P + sign * U U^T`` reduces to the prox in
the diagonal metric ``P`` evaluated at a shifted point,

    prox^V_{kh}(x) = prox^P_{kh}(x - sign * P^{-1} U alpha*),

where ``alpha*`` is the unique zero of the strongly monotone map

    L(alpha) = U^T (x - prox^P_{kh}(x - sign * P^{-1} U alpha)) + alpha.

One dispatcher, :func:`scaled_prox`, serves every metric.  It reads the
factored form that :mod:`proxqn.metric` keeps, the column-major blocks
``U = [U1 U2]`` and ``W = [W1 W2]`` with ``W1 = P^{-1} U1``,
``W2 = (P + Q1)^{-1} U2`` and ``r1`` plus columns, and routes by the total
rank: rank 0 is the diagonal prox; rank 1 is the warm-started scalar
semi-smooth Newton (``_ssnewton``) on ``(u, w, sign)`` of the non-empty
side, which terminates finitely on piecewise-affine maps and in a few
steps on the piecewise-smooth maps of group norms and affine constraints,
and asks for no Jacobian product at the step ending it.
Every rank >= 2, single-sign or ``V = P + Q1 - Q2`` (0BFGS), goes through
one damped semi-smooth Newton on the stacked multiplier system, with one
diagonal prox and one Clarke-Jacobian product with an N x r matrix per
step, and its r x r system solved by the LAPACK gufunc behind
``np.linalg.solve``, with that function's bits for every r; the module
loads no scipy.  A miss of either Newton's tolerance raises
:class:`RootFinderError`.
The oracles are one scalar engine, a rank-1 :class:`RootProblem` solved
in the bracket of :func:`root_bound`, which strong monotonicity gives from
one map evaluation, by the exact search over the sorted breakpoint
crossings or by bisection; on ``P + Q1 - Q2`` it is the minus
side of ``P1 - Q2``, with the rank-1 prox in ``P1 = P + Q1`` as its base.

The dispatcher checks the query point and the weights (``_checked``) and
hands the factored form to ``_route``, which takes arrays: the solvers'
step calls it directly, with the checks that hold for a whole solve made
once.  The rank-1 Newton takes arrays, ``(x, U, W, sign, weights,
kappa)``, and ``_route`` is its one entry; where its safeguard needs a
bracket it takes :func:`root_bound`'s radius from one bound step at
``x``.

Both Newtons bind the operator once per root problem (``_bind`` in
:mod:`proxqn.prox`), with the scalar ``c`` of a trusted ``P = c I`` where
the operator takes one: every prox step, line-search trials included,
reuses the thresholds, and a Newton step takes the exact Clarke-Jacobian
product that every operator supplies from the accepted point's binding;
the rank-1 Newton's steps write into arrays it allocates once.  The
conjugate route goes through the metric Moreau identity.  A report whose
residual is not finite is never ``converged``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import _umath_linalg

from .metric import LowRankMetric, PlusMinusMetric

__all__ = [
    "RootFinderError",
    "BracketError",
    "RootProblem",
    "RootSolverReport",
    "root_bound",
    "root_bisection",
    "root_exact_piecewise_affine",
    "scaled_prox",
    "scaled_prox_rank2",
    "scaled_prox_conjugate",
]

# first rank-1 Newton step checked for a stalled bracket; Newton ends
# within a few steps on the piecewise-affine maps of separable operators
_CYCLE_CHECK = 8
# the ``finder`` names of the dispatcher: the Newtons and the two oracles
_FINDERS = ("auto", "exact", "bisection")
# np.linalg.solve's LAPACK gufunc without that wrapper's checks: a singular
# system comes back as NaNs, its invalid-value warning silenced (the
# decorator costs less per call than a ``with`` block)
_solve = np.errstate(invalid="ignore")(_umath_linalg.solve1)


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
    """The dual root problem ``L(alpha) = U^T (x - base(x - sign W alpha))
    + alpha`` behind a scaled prox.

    Without ``base``, that of a single-sign metric ``P + sign U U^T``:
    ``W = P^{-1} U``, and the base is the diagonal prox in ``P``.  Given
    ``base``, the prox in ``P1 = P + Q1`` of a two-sided metric, the minus
    side of ``P1 - Q2``: ``sign = -1``, ``U = U2``, ``W = W2``, which only
    :func:`root_bisection` solves.  Carries the modulus ``c`` (1, or
    ``1 - g`` on a minus side, ``g`` the top eigenvalue of the Gram
    ``U^T W``) and the Lipschitz bound ``1 + g`` of the map.  The weights
    ``diag(P)`` are checked once, here; the finders then call the
    unchecked ``_prox_diag``.
    """

    def __init__(self, metric: LowRankMetric, prox, x, kappa=1.0, base=None):
        x, weights = _checked(metric, prox, x, kappa)
        sign = metric.sign if base is None else -1
        # U and W of the non-empty side, or of the minus side given a base
        U, W = (metric.U2, metric.W2) if sign < 0 else (metric.U1, metric.W1)
        g_sq = metric.gram_norm_sq if base is None else \
            float(np.linalg.eigvalsh(U.T @ W)[-1])
        self.x, self.bind_weights = x, weights
        self.prox, self.kappa, self.sign = prox, float(kappa), sign
        self.U, self._shift_dirs = U, W
        self.lipschitz_bound = 1.0 + g_sq
        self.monotonicity_modulus = 1.0 if sign > 0 else 1.0 - g_sq
        self.metric = metric
        self._base = base   # the callable itself: no cycle through self

    @property
    def rank(self):
        return self.U.shape[1]

    @property
    def diag(self):
        """``diag(P)``, read by the base prox and the exact finder's
        breakpoints: a trusted ``c I`` forms it at the first read."""
        return self.metric.diag

    def base(self, z):
        """The base prox at ``z``: the given one, or the prox in ``P``."""
        if self._base is not None:
            return self._base(z)
        return self.prox._prox_diag(z, self.diag, self.kappa)

    def shifted_point(self, alpha):
        return self.x - self.sign * self._shift_dirs.dot(np.atleast_1d(alpha))

    def prox_at(self, alpha):
        return self.base(self.shifted_point(alpha))

    def map_L(self, alpha):
        """The dual map whose unique zero determines the scaled prox."""
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        return self.U.T @ (self.x - self.prox_at(alpha)) + alpha


def _checked(metric, prox, x, kappa):
    """``(x, weights)``: the query point as a float vector and the weights
    to bind ``prox`` with, ``diag(P)`` checked for ``prox``; a trusted
    ``c I`` (``c > 0`` tested) needs only the dimension test, and binds
    with ``c`` if ``prox`` takes a scalar, without forming ``diag(P)``."""
    if not kappa > 0:   # NaN fails
        raise ValueError("kappa must be positive")
    x = np.asarray(x, dtype=float)
    if x.shape != (metric.dim,):
        raise ValueError("query point dimension mismatch")
    if metric.c is None or prox.dim not in (None, metric.dim):
        return x, prox.check_weights(metric.diag, metric.dim)
    return x, metric.c if prox._scalar_bind else metric.diag


def root_bound(problem: RootProblem):
    """Bracket radius ``beta = 2 |L(0)| / c`` of every rank-1 root.

    Strong monotonicity with modulus ``c`` gives ``|alpha*| <= |L(0)| / c``
    for either sign; the factor 2 keeps ``L(-beta)`` and ``L(beta)`` at
    least ``|L(0)|`` away from zero, so the end check never rests on
    rounding.  One map evaluation.
    """
    if problem.rank != 1:
        raise ValueError("root bound applies to rank-1 problems")
    return 2.0 * abs(float(problem.map_L([0.0])[0])) \
        / problem.monotonicity_modulus


def _bracket(problem, method):
    """``(beta, L(-beta), L(beta))`` for :func:`root_bound`'s ``beta``, or
    the report that ends the solve: root 0 at ``beta = 0``, NaN unconverged
    at a non-finite one; :class:`BracketError` if the ends do not bracket."""
    beta = root_bound(problem)
    if beta == 0.0:
        return RootSolverReport(np.zeros(1), 0.0, 0, method)
    if not math.isfinite(beta):   # a non-finite point: no bracket
        return RootSolverReport(np.full(1, np.nan), np.nan, 0, method,
                                converged=False)
    f_lo, f_hi = (float(problem.map_L([end])[0]) for end in (-beta, beta))
    if f_lo > 0 or f_hi < 0:
        raise BracketError(
            f"map has no sign change on [-beta, beta] = [{-beta:.3g}, "
            f"{beta:.3g}]; metric or prox invariants are violated")
    return beta, f_lo, f_hi


def root_bisection(problem: RootProblem, eps=1e-10, max_iter=None):
    """Bisection on ``[-beta, beta]``; terminates once successive midpoints
    are closer than ``eps``, which puts the iterate within ``eps`` of the
    root. Iteration count is the number of midpoint map evaluations."""
    if problem.rank != 1:
        raise ValueError("bisection applies to rank-1 problems")
    if eps <= 0:
        raise ValueError("eps must be positive")
    ends = _bracket(problem, "bisection")
    if isinstance(ends, RootSolverReport):
        return ends
    lo, hi = -ends[0], ends[0]
    if max_iter is None:
        max_iter = int(np.ceil(np.log2(max(2.0 * hi / eps, 2.0)))) + 8
    alpha_prev, alpha, val, count = None, 0.0, np.inf, 0
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


def root_exact_piecewise_affine(problem: RootProblem):
    """Exact rank-1 root for separable h with piecewise-affine prox maps.

    The map is affine between the sorted crossings ``sign * d_i (x_i -
    t^j_i) / u_i`` of the breakpoints in :func:`root_bound`'s bracket.  A
    search on its sign probes the crossing at the secant zero of the two
    latest points (the middle one if it leaves the range or three probes
    did not halve it) until the ends are neighbours.  The root is the zero
    of their line plus one more step along it, which restores the digits a
    line through far ends loses; ``iterations`` counts the map evaluations
    at the bracket ends and the probes.  The crossings are the diagonal
    prox's, so a problem with a base prox raises ``ValueError``."""
    if problem.rank != 1:
        raise ValueError("the exact finder applies to rank-1 problems")
    if problem._base is not None:   # its breakpoints are the diagonal prox's
        raise ValueError("the exact finder applies to problems without a "
                         "base prox; use bisection")
    bp = problem.prox.pa_descriptor(problem.diag, problem.kappa)
    if bp is None:
        raise ValueError(
            f"{type(problem.prox).__name__} exposes no piecewise-affine "
            "descriptor; use bisection or the semi-smooth Newton finder")
    ends = _bracket(problem, "exact")
    if isinstance(ends, RootSolverReport):
        ends.point = problem.prox_at(ends.alpha_star)
        return ends
    beta, f_lo, f_hi = ends
    u, x = problem.U[:, 0], problem.x
    w = problem.sign * problem._shift_dirs[:, 0]
    pts = np.empty(bp.size + 2)
    pts[:2] = -beta, beta
    cross = np.subtract(x[:, None], bp, out=pts[2:].reshape(bp.shape))
    with np.errstate(divide="ignore", invalid="ignore"):   # u_i = 0: none
        cross /= w[:, None]
    pts.sort()
    pts = pts[np.searchsorted(pts, -beta, "right") - 1:
              np.searchsorted(pts, beta) + 1]
    step = problem.prox._bind(problem.bind_weights, problem.kappa)

    def value(alpha):   # the map at alpha, and the prox point there
        p = step(x - alpha * w)[0]
        return float(np.sum(u * (x - p))) + alpha, p   # no BLAS threads

    lo, hi, spans = 0, pts.size - 1, [np.inf] * 3
    a, f_a, b, f_b = -beta, f_lo, beta, f_hi   # the two latest points
    while f_lo and hi - lo > 1:   # f_lo = 0: the root is pts[lo]
        zero = b - f_b * (b - a) / (f_b - f_a) if f_b != f_a else np.nan
        secant = pts[lo] < zero < pts[hi] and 2 * (hi - lo) <= spans[-3]
        mid = min(int(np.searchsorted(pts, zero)), hi - 1) if secant \
            else (lo + hi) // 2
        spans.append(hi - lo)
        a, f_a, b, f_b = b, f_b, pts[mid], value(pts[mid])[0]
        lo, f_lo, hi, f_hi = (lo, f_lo, mid, f_b) if f_b > 0 else \
            (mid, f_b, hi, f_hi)
    alpha, val, width = float(pts[lo]), f_lo, float(pts[hi] - pts[lo])
    for _ in range(2):   # the line's zero, then one more step along it
        if val != 0.0:   # else f_hi - f_lo may be 0
            alpha -= val * width / (f_hi - f_lo)
        val, p = value(alpha)
    return RootSolverReport(np.array([alpha]), abs(val), len(spans) - 1,
                            "exact", converged=math.isfinite(val), point=p)


def _ssnewton(prox, x, U, W, s, weights, kappa, g_sq, tol=1e-12, alpha0=None,
              max_iter=50):
    """Scalar semi-smooth Newton on the rank-1 map ``L(alpha) = u^T (x -
    p(alpha)) + alpha``, ``p(alpha)`` the bound prox step at ``x - s w
    alpha`` (``U``, ``W`` and ``weights`` as :func:`_checked` gives them,
    the float ``kappa``, ``g_sq`` the Gram of ``U`` and ``W``), one prox
    step per iteration, safeguarded by the bracket of map signs.  Stops at
    ``|L| <= tol``, at a non-finite ``L`` (unconverged), or at a point with
    its base point's Jacobian and ``|L|`` at rounding level: the root of
    that affine piece, as exact as the exact finder's (equal slopes alone
    do not prove one piece: both outer l1 pieces have slope 1).  A step
    that leaves the bracket, or has no positive slope, is a bisection;
    while one bracket end is open, :func:`root_bound`'s radius ``2 |L(0)| /
    c`` closes it, from one more bound step at ``x``.  On the smooth pieces
    of a group norm the steps can close in on a 2-cycle around the root, so
    from step ``_CYCLE_CHECK`` on two steps that halve neither the bracket
    nor ``|L|`` are followed by a bisection.  Raises
    :class:`RootFinderError` when ``|L|`` is still above ``tol`` after
    ``max_iter`` steps.  Steps write into the call's own ``p`` (returned),
    ``z`` and two slots taken in turn (``tmp``, ``x - p``, then ``jw``)."""
    u, w = U[:, 0], W[:, 0]
    step = prox._bind(weights, kappa)
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
        slope = 1.0 + s * float(u.dot(jw))
        # equal products jw give equal slopes, the cheaper test first;
        # |u|.(|x| + |p|) + |alpha| bounds the terms summed into L
        if slope == prev[0] and (jw == prev[1]).all():
            abs_ux = abs_ux or (np.abs(u), np.abs(x))
            np.add(abs_ux[1], np.abs(p, z), z)
            if abs(val) <= 4.0 * x.size * np.finfo(float).eps * (
                    float(abs_ux[0] @ z) + abs(alpha)):
                break
        if it == max_iter:
            raise RootFinderError(f"rank-1 semi-smooth Newton missed {tol:g} "
                                  f"(residual {abs(val):g})")
        lo, hi = (lo, alpha) if val > 0 else (alpha, hi)
        widths.append(hi - lo)
        new = alpha - val / slope if slope > 0 else np.nan
        cycling = it >= _CYCLE_CHECK and widths[-1] > 0.5 * widths[-3] \
            and history[-1] > 0.5 * history[-3]
        if cycling or not lo < new < hi:
            if np.isinf(lo) or np.isinf(hi):   # root_bound's radius
                beta = 2.0 * abs(float((U.T @ (x - step(x)[0]))[0])) \
                    / (1.0 if s > 0 else 1.0 - g_sq)
                lo, hi = max(min(-beta, hi), lo), min(max(beta, lo), hi)
            new = 0.5 * (lo + hi)
        alpha, prev = new, (slope, jw)
    return RootSolverReport(np.array([alpha]), abs(val), it, "ssnewton",
                            converged=math.isfinite(val),
                            residual_history=history, point=p)


# -- dispatcher ----------------------------------------------------------------


def _route(prox, x, kappa, weights, U, W, r1, g_sq, tol, warm):
    """The prox in ``P + U1 U1^T - U2 U2^T`` on checked arrays and the
    metric's blocks ``U`` and ``W`` (``r1`` plus columns), by the total
    rank: the diagonal prox, the rank-1 Newton on the one column (the Gram
    ``g_sq`` its top eigenvalue), or the joint Newton; ``warm`` of another
    size is ignored.  ``weights`` bind the operator, and give ``diag(P)``
    as a vector for the diagonal prox."""
    r = U.shape[1]
    if warm is not None and np.atleast_1d(warm).size != r:
        warm = None
    if r == 1:
        report = _ssnewton(prox, x, U, W, 1 if r1 else -1, weights,
                           float(kappa), g_sq, tol, warm)
        return report.point, report
    if r == 0:
        d = weights if isinstance(weights, np.ndarray) else \
            np.full(x.size, weights)
        return prox._prox_diag(x, d, kappa), \
            RootSolverReport(np.zeros(0), 0.0, 0, "diagonal")
    return _joint_newton(prox, x, kappa, weights, U, W, r1, tol, warm)


def scaled_prox(metric: LowRankMetric, prox, x, kappa=1.0, finder="auto",
                tol=1e-12, warm_alpha=None):
    """Prox of ``kappa * h`` in the metric ``V = P + U1 U1^T - U2 U2^T``.

    Parameters
    ----------
    finder : {"auto", "exact", "bisection"}
        Root-finding strategy.  "auto" is the warm-started semi-smooth
        Newton, the scalar one at rank 1 and above it the joint one; both
        raise :class:`RootFinderError` where they miss ``tol``.  "exact"
        (the crossing search, for operators whose ``pa_descriptor``
        gives breakpoints) and "bisection" are the oracles: that finder on a
        single-sign rank-1 metric, and on ``P + Q1 - Q2`` with one minus
        factor the recursion (:func:`_rank2_recursive`), whose inner
        rank-1 solves in ``P + Q1`` take that finder.
    tol : float
        Alpha tolerance for bisection, residual tolerance otherwise; it
        must be finite and non-negative (``ValueError``).
    warm_alpha : array, optional
        Starting point of the Newton finder (continuation across
        forward-backward iterations).

    Returns
    -------
    (p, report) : the prox point and the root-solver report.
    """
    if finder not in _FINDERS:
        raise ValueError(f"unknown finder {finder!r}")
    if not 0 <= tol < math.inf:   # NaN fails
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if finder == "auto" or metric.rank == 0:   # the one production route
        x, weights = _checked(metric, prox, x, kappa)
        return _route(prox, x, kappa, weights, metric.U, metric.W, metric.r1,
                      metric.gram_norm_sq, tol, warm_alpha)
    if all(metric.ranks):
        return _rank2_recursive(metric, prox, x, kappa, tol, finder)
    problem = RootProblem(metric, prox, x, kappa)
    if finder == "exact":
        report = root_exact_piecewise_affine(problem)
    else:
        report = root_bisection(problem, eps=tol)
    p = report.point if report.point is not None \
        else problem.prox_at(report.alpha_star)
    return p, report


def scaled_prox_rank2(metric: PlusMinusMetric, prox, x, kappa=1.0, tol=1e-12,
                      warm=None, inner_finder="auto"):
    """:func:`scaled_prox` on ``V = P + Q1 - Q2`` (either side may be
    empty) with ``inner_finder`` and ``warm`` for ``finder`` and
    ``warm_alpha``: the rank-2 entry that ``perfbench`` (its
    ``kernel_oracle_ok`` and its tracer) and the tests call; the solvers'
    step enters ``_route`` directly."""
    return scaled_prox(metric, prox, x, kappa, inner_finder, tol, warm)


def _joint_newton(prox, x, kappa, weights, U, W, r1, tol, warm):
    """Damped semi-smooth Newton on the stacked system

        F1(a, b) = U1^T (x + W2 b - p) + a
        F2(a, b) = U2^T (x - p) + b,
        p = prox^P_{kh}(x + W2 b - W1 a),  W1 = P^{-1} U1,  W2 = P1^{-1} U2,

    which is Theorem 3.4 recursed through ``V = (P + Q1) - Q2``; either
    side may be empty, which leaves the single-sign dual map.  It reads
    the column-major blocks ``U = [U1 U2]`` and ``W = [W1 W2]`` as they
    are, ``U^T`` as a row-major r x N operand, and copies no factor; the
    thin products take ``ndarray.dot``, the BLAS calls of ``@`` with less
    dispatch, but ``W`` times a vector ``@``, faster at large N.  The
    operator is bound once (``_bind``, with ``weights``); each step takes
    the Clarke-Jacobian product with ``W`` of its point's binding and
    halves its length until ``||F||`` falls by the factor ``1 - 1e-4 t``.
    The r x r Newton system goes to the LAPACK gufunc behind
    ``np.linalg.solve``, with its bits for every ``r``; a singular one
    gives a non-finite direction.
    Raises :class:`RootFinderError` when the residual does not reach
    ``tol``: a singular Newton system, no sufficient decrease after 30
    halvings, or 60 steps; a non-finite residual ends it at once,
    unconverged.
    """
    r = U.shape[1]
    Ut = U.T
    # z = x + W @ (sgn * ab): the a-directions enter with a minus sign
    sgn, eye = _constants(r, r1)
    K = eye.copy()
    K[:r1, r1:] = Ut[:r1].dot(W[:, r1:])
    step = prox._bind(weights, kappa)

    def system(ab):
        p, jac = step(x + W @ (sgn * ab))
        return Ut.dot(x - p) + K.dot(ab), p, jac

    ab = np.zeros(r) if warm is None else np.array(warm, dtype=float)
    val, p, jac = system(ab)
    res = math.sqrt(val.dot(val))
    history = [res]
    while tol < res < math.inf and len(history) <= 60:
        G = K - Ut.dot(jac(W)) * sgn
        d_ab = _solve(G, val)
        if not d_ab.dot(d_ab) < math.inf:   # NaN or inf: a singular G
            raise RootFinderError(f"joint semi-smooth Newton missed {tol:g} "
                                  "(singular Newton system)")
        t, new = 1.0, ab - d_ab   # t * d_ab is d_ab at t = 1
        for _ in range(31):
            new_val, new_p, new_jac = system(new)
            new_res = math.sqrt(new_val.dot(new_val))
            if new_res <= (1.0 - 1e-4 * t) * res:
                break
            t *= 0.5
            new = ab - t * d_ab
        else:
            break
        ab, val, p, jac, res = new, new_val, new_p, new_jac, new_res
        history.append(res)
    if tol < res < math.inf:   # no sufficient decrease, or 60 steps
        raise RootFinderError(f"joint semi-smooth Newton missed {tol:g} "
                              f"(residual {res:g})")
    return p, RootSolverReport(ab, res, len(history) - 1, "rank2-joint",
                               converged=res <= tol, residual_history=history)


@functools.lru_cache(maxsize=None)
def _constants(r, r1):
    """The joint Newton's read-only signs, -1 on the ``r1`` plus columns and
    +1 on the rest, and the r x r identity, made once per shape."""
    sgn = np.ones(r)
    sgn[:r1] = -1.0
    eye = np.eye(r)
    sgn.flags.writeable = eye.flags.writeable = False
    return sgn, eye


def _rank2_recursive(metric: PlusMinusMetric, prox, x, kappa, tol, finder):
    """The rank-2 oracle: the rank-1 problem in ``P1 - Q2``, its base the
    prox in ``P1 = P + Q1`` by ``finder``, solved by bisection."""
    inner = LowRankMetric(metric.diag, metric.U1.T, +1)
    inner_tol = min(tol, 1e-13)

    def base(z):   # the module global, which a tracer may wrap
        return scaled_prox(inner, prox, z, kappa, finder, inner_tol)[0]

    problem = RootProblem(metric, prox, x, kappa, base=base)
    report = root_bisection(problem, eps=tol)
    report.method = "rank2-recursive"
    return problem.prox_at(report.alpha_star), report


def scaled_prox_conjugate(metric: LowRankMetric, prox, x, rho=1.0,
                          finder="auto", tol=1e-12):
    """Prox of ``rho * h^*`` in V through the metric Moreau identity,

        prox^V_{rho h*}(x) = x - rho V^{-1} prox^{V^{-1}}_{h/rho}(V x / rho),

    computed with the inverse metric (whose low-rank sign flips).
    """
    if not rho > 0:   # NaN fails
        raise ValueError("rho must be positive")
    x = np.asarray(x, dtype=float)
    inv = metric.invert()
    y = metric.apply(x) / rho
    q, report = scaled_prox(inv, prox, y, kappa=1.0 / rho, finder=finder,
                            tol=tol)
    return x - rho * inv.apply(q), report

"""Zero-memory SR1 and BFGS metric constructions.

Both methods rebuild a diagonal +/- low-rank approximation of the inverse
Hessian from the most recent displacement/gradient pair at every
iteration.  The diagonal is a Barzilai-Borwein multiple of the identity
scaled down by ``gamma`` so the low-rank correction stays well defined;
degenerate pairs skip the correction and keep the diagonal.

Each method has one builder, which the solver's step calls and the
public metric wraps: ``_sr1_factors`` and ``_zbfgs_factors`` take ``(pair,
gamma, n, tau)`` and return ``(H, B, skipped)``, ``H`` as ``(c, U1, U2)``
and ``B = H^{-1}`` as ``(c, U, W, r1, g)``, the factored forms of
:mod:`proxqn.metric`, with no metric object.  :func:`sr1_metric` is the
trusted metric on the 0SR1 builder's ``H``, whose ``invert()`` returns
the builder's ``B``, and :func:`zbfgs_metric` wraps both of the
0BFGS builder's factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import (FACTOR_DROP_TOL, LowRankMetric, MetricError,
                     PlusMinusMetric, _drop_block, _minus_pd_test,
                     _positive_scalar, _rank_test)

# SR1 clamps tau_bb2 to [_SR1_TAU_MIN, _SR1_TAU_MAX] and skips the rank-1
# update when <w, y> <= _SR1_SKIP_TOL ||w|| ||y||, w = s - H0 y
_SR1_TAU_MIN, _SR1_TAU_MAX, _SR1_SKIP_TOL = 1e-8, 1e8, 1e-8

__all__ = [
    "CurvatureError",
    "QNPair",
    "bb_stepsizes",
    "sr1_metric",
    "zbfgs_metric",
    "sr1_eigen_bounds",
    "zbfgs_eigen_bounds",
    "contraction_rate",
]


class CurvatureError(ValueError):
    """The pair violates the curvature condition <s, y> > 0."""


@dataclass(frozen=True)
class QNPair:
    """Displacement ``s = x_k - x_{k-1}`` and gradient change
    ``y = grad f(x_k) - grad f(x_{k-1})``, with the curvature ``<s, y>``
    and ``||y||^2`` computed once."""

    s: np.ndarray
    y: np.ndarray
    curvature: float = field(init=False)
    y_norm_sq: float = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError("s and y must be 1-d vectors of equal length")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "curvature", float(np.dot(s, y)))
        object.__setattr__(self, "y_norm_sq", float(np.dot(y, y)))

    @classmethod
    def _trusted(cls, s, y):
        """The pair of float vectors ``s`` and ``y`` of one length, which
        the caller owns, without the coercion, the check and the frozen
        ``__setattr__``: the solver's loop makes one per iteration."""
        pair = cls.__new__(cls)
        vars(pair).update(s=s, y=y, curvature=float(np.dot(s, y)),
                          y_norm_sq=float(np.dot(y, y)))
        return pair


def bb_stepsizes(pair: QNPair):
    """Barzilai-Borwein spectral step lengths ``(tau_bb1, tau_bb2)``.

    ``tau_bb2 = <s,y>/||y||^2 <= tau_bb1 = ||s||^2/<s,y>``; for pairs from a
    mu-strongly convex, L-smooth function both lie in ``[1/L, 1/mu]``.
    Raises :class:`CurvatureError` for non-positive curvature (the caller
    is expected to skip the update).
    """
    sy = pair.curvature
    if sy <= 0.0:
        raise CurvatureError(f"<s, y> = {sy:g} <= 0")
    tau_bb2 = sy / pair.y_norm_sq
    tau_bb1 = float(np.dot(pair.s, pair.s)) / sy
    return tau_bb1, tau_bb2


def sr1_metric(pair, gamma=0.8, dim=None, tau0=1.0):
    """Zero-memory SR1 inverse-Hessian metric ``H = gamma tau_bb2 I + u u^T``.

    ``gamma`` in (0, 1) shrinks the Barzilai-Borwein diagonal ``H0`` (0.8
    works well), and ``u = (s - H0 y)/sqrt(<s - H0 y, y>)`` when the
    curvature of the residual pair is safely positive; otherwise the
    update is skipped and the diagonal ``H0`` is returned (rank 0).
    ``pair=None`` covers the first iteration, where ``H = tau0 * I`` (any
    positive tau is valid; callers use 1/L when a Lipschitz estimate
    exists); ``dim``, required there, must otherwise match the pair.

    The secant identity ``H y = s`` holds exactly whenever the update is
    not skipped.  ``H`` wraps :func:`_sr1_factors`, which also builds
    ``B = H^{-1}``, so an ``H`` whose inverse the metric layer refuses
    raises here, and ``H.invert()`` returns that ``B``, read-only, with
    the bits the Sherman-Morrison inverse would give.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    n = dim if pair is None else pair.s.shape[0]
    if n is None:
        raise ValueError("dim is required when no pair is given")
    if dim not in (None, n):
        raise ValueError(f"dim {dim} disagrees with the pair's length {n}")
    H, (b, V, W, _, g), _ = _sr1_factors(pair, gamma, n, tau0)
    metric = _sr1_H(H)
    # invert() hands out the builder's B, complete with its Gram
    gram = np.full((V.shape[1],) * 2, g)
    for a in (V, W, gram):
        a.setflags(write=False)
    metric._inverse = LowRankMetric._proven(b, V, 0, W, g, gram)
    return metric


def _sr1_H(H):   # sr1_metric on _sr1_factors's H
    return LowRankMetric._trusted(H[0], H[1], +1)


def _sr1_factors(pair, gamma, n, tau0):
    """The one 0SR1 builder: the ``(H, B, skipped)`` of
    :func:`_zbfgs_factors`'s shapes, with the bits of :func:`sr1_metric`'s
    ``H = h0 I + U U^T``, ``(h0, U, U2)`` with ``U2`` empty, and of
    ``B = H.invert() = b I - V V^T``, ``(b, V, W, 0, g)`` with ``W = V / b``
    and B's Gram ``g = V^T W``; each factor is ``(n, 1)``, or ``(n, 0)``
    with ``g = 0``.  The first step (``pair`` None) and ``||y|| = 0`` keep
    ``tau0 I``.  It keeps the skip rule, the drop rule of both factors,
    both Gram rank tests and B's test ``g < 1``, and the tests ``c > 0``
    of a diagonal, raising as the metric layer does; it skips those of a
    rank-1 ``H``, since ``gamma`` in (0, 1) and a finite ``<s, y>`` put
    ``h0`` in ``[gamma 1e-8, gamma 1e8]``.
    """
    if pair is None or pair.y_norm_sq == 0.0:
        return _diagonal(float(tau0), n)
    yy = pair.y_norm_sq
    h0 = gamma * min(max(pair.curvature / yy, _SR1_TAU_MIN), _SR1_TAU_MAX)
    w = pair.s - h0 * pair.y
    wy = float(np.dot(w, pair.y))
    if wy <= _SR1_SKIP_TOL * math.sqrt(yy) * math.sqrt(w.dot(w)):
        return _diagonal(h0, n)
    # the 1-d column u of U: its products have the (n, 1) column's bits
    u = w / math.sqrt(wy)
    if not math.sqrt(u.dot(u)) >= FACTOR_DROP_TOL:
        return _diagonal(h0, n)
    b = 1.0 / h0
    H = h0, u.reshape(n, 1), np.zeros((n, 0))
    g = float(u.dot(u / h0))   # H's Gram: the rank test
    g = 0.5 * (g + g)
    _rank_test(g, g)
    v = u * b * (np.array([1.0 + g]) ** -0.5)[0]   # invert()'s factor
    if not math.sqrt(v.dot(v)) >= FACTOR_DROP_TOL:
        return H, (b, H[2], H[2], 0, 0.0), False
    w = v / b   # B's minus side
    g = float(v.dot(w))
    g = 0.5 * (g + g)
    _rank_test(g, g)
    _minus_pd_test(g)
    return H, (b, v.reshape(n, 1), w.reshape(n, 1), 0, g), False


def _diagonal(h, n):
    """A builder's ``(H, B, skipped)`` of ``H = h I`` and ``B = I / h``,
    with the tests ``c > 0`` of both."""
    _positive_scalar(h)
    _positive_scalar(cb := 1.0 / h)
    empty = np.zeros((n, 0))
    return (h, empty, empty), (cb, empty, empty, 0, 0.0), True


def _zbfgs_factors(pair, gamma, n, tau_fallback):
    """The one 0BFGS builder: :func:`zbfgs_metric`'s ``(H, B, skipped)`` as
    the solver's step reads them, with no metric object: ``H`` as ``(c,
    U1, U2)`` and ``B`` as ``(c, U, W, r1, gram_norm_sq)``, both with the
    bits and the skip decision of :class:`PlusMinusMetric` on the
    docstring's factors.  The first step (``pair`` None) and a skipped
    pair keep ``H = gamma tau_fallback I`` in ``R^n``.  For
    ``1e-4 <= gamma <= 1e4``, ``1e-250 <= gamma tau <= 1e16``, inner
    products in ``[1e-250, 1e250]`` and ``N (1+gamma) <= 2^40 gamma
    cos^2(s, y)``, the Gram values its rank and positive-definiteness tests
    read (``gamma``, ``gamma/(1+gamma)``, ``1/(1+gamma)``,
    ``g_H < (1+gamma)/(gamma cos^2)`` and ``g_H/(1+g_H)``) clear their
    bounds by far more than rounding: there only its drop rule and B's
    outer Gram test are kept, and the six columns go into the rows of a
    ``(2, n)`` and a ``(4, n)`` array, whose row pairs transposed are the
    column-major blocks; elsewhere it builds both.  A refused build keeps
    ``c I``."""
    if pair is None:
        return _diagonal(gamma * float(tau_fallback), n)
    s, y = pair.s, pair.y
    sy, yy = pair.curvature, pair.y_norm_sq
    tau = sy / yy if yy else math.inf   # ||y||^2 can underflow to 0
    if sy <= 0.0 or tau == math.inf:    # then B's scale 1/(gamma tau) is 0
        return _diagonal(gamma * float(tau_fallback), n)
    ss = float(s.dot(s))
    rho, c = 1.0 / sy, gamma * tau
    # H's columns and B's U1, U2, W1 and W2 as rows, indexed (unpacking
    # iterates); B keeps only its own rows alive
    HT, BT = np.empty((2, n)), np.empty((4, n))
    h1, h2, u1, u2, w1, w2 = HT[0], HT[1], BT[0], BT[1], BT[2], BT[3]
    np.subtract(s, np.multiply(c / (1.0 + gamma), y, out=h1), out=h1)
    proven = (1e-4 <= gamma <= 1e4 and 1e-250 <= c <= 1e16
              and 1e-250 <= min(sy, ss, yy) <= max(ss, yy) <= 1e250
              and n * (1.0 + gamma) <= 2.0 ** 40 * gamma * tau * sy / ss)
    try:
        np.multiply(math.sqrt(rho * (1.0 + gamma)), h1, out=h1)
        np.multiply(math.sqrt(rho * gamma ** 2 * tau ** 2 / (1.0 + gamma)),
                    y, out=h2)
        if not proven:   # the checked build, which may refuse H first
            H = PlusMinusMetric._trusted(c, HT[:1].T, HT[1:].T)
        np.divide(y, math.sqrt(yy) * math.sqrt(tau), out=u1)
        np.divide(s, math.sqrt(ss) * math.sqrt(c), out=u2)
        if not proven:
            B = PlusMinusMetric._trusted(1.0 / c, BT[:1].T, BT[1:2].T)
            return ((c, H.U1, H.U2), (B.c, B.U, B.W, B.r1, B.gram_norm_sq),
                    False)
    except (MetricError, OverflowError):
        # a degenerate pair (s nearly parallel to y, a Gram under the rank
        # test at an extreme gamma, tau ** 2 overflowing): the diagonal
        return _diagonal(c, n)
    if math.sqrt(h1.dot(h1)) >= FACTOR_DROP_TOL and \
            math.sqrt(h2.dot(h2)) >= FACTOR_DROP_TOL:
        H = c, HT[:1].T, HT[1:].T
    else:   # the drop rule takes a column
        HU, r = _drop_block(HT.T, 1)
        H = c, HU[:, :r], HU[:, r:]
    # B's two-sided build: both columns have norm >= 1e-10 here, and
    # W2 = ((P + Q1)^{-1}) U2 = (P^{-1} - V V^T) U2 with V's drop rule
    cb = 1.0 / c
    np.divide(u1, cb, out=w1)
    g = float(u1.dot(w1))
    g = 0.5 * (g + g)   # the symmetrized 1x1 Gram
    p_inv = 1.0 / cb   # as _build forms it; not always c
    v = u1 * p_inv * (np.array([1.0 + g]) ** -0.5)[0]
    np.multiply(p_inv, u2, out=w2)
    if math.sqrt(v.dot(v)) >= FACTOR_DROP_TOL:   # else V is dropped
        V = v.reshape(n, 1)
        np.subtract(w2, V.dot(V.T.dot(u2)), out=w2)
    if 1.0 - float(u2.dot(w2)) <= 0:   # the outer Gram test of P + Q1 - Q2
        return _diagonal(c, n)
    return H, (cb, BT[:2].T, BT[2:].T, 1, g), False


def zbfgs_metric(pair, gamma=1.0, tau_fallback=1.0):
    """Zero-memory BFGS inverse Hessian and its companion Hessian.

    With ``tau = tau_bb2`` and ``rho = 1/<y, s>``,

        H = gamma tau I + rho (1+gamma) u_g u_g^T
            - rho gamma^2 tau^2 / (1+gamma) * y y^T,
        u_g = s - gamma tau / (1+gamma) * y,

    which satisfies the secant identity ``H y = s`` exactly, and

        B = H^{-1} = 1/(gamma tau) (I - s s^T/||s||^2 + gamma y y^T/||y||^2).

    The rank-1 - rank-1 split of H requires ``rho ||y||^2 tau = 1``, so tau
    is the unclamped tau_bb2 here.  Non-positive curvature or an infinite
    tau skips the low-rank parts and keeps ``gamma * tau_fallback * I``.

    Returns ``(H, B, skipped)``: ``B`` a complete metric, ``H`` a
    product-only operator (``apply``, ``norm_sq``, ``diag``, the factors),
    all that the forward step reads; they wrap :func:`_zbfgs_factors`:
    ``B`` as it is, or rebuilt to keep ``invert`` with a single side.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if pair is None:   # the solver's first step is gamma tau0 I
        raise ValueError("zbfgs_metric needs a pair (s, y), got None")
    H, (cb, U, W, r1, g), skipped = _zbfgs_factors(
        pair, gamma, pair.s.shape[0], tau_fallback)
    return _zbfgs_H(H), (
        PlusMinusMetric._proven(cb, U, r1, W, g) if 0 < r1 < U.shape[1]
        else PlusMinusMetric._trusted(cb, U[:, :r1], U[:, r1:])), skipped


def _zbfgs_H(H):   # zbfgs_metric's product-only H on a copy of the sides
    c, U1, U2 = H
    return PlusMinusMetric._proven(c, np.concatenate((U1.T, U2.T)).T,
                                   U1.shape[1])


# -- theory constants ---------------------------------------------------------


def sr1_eigen_bounds(mu, L, gamma):
    """Uniform eigenvalue interval ``[a, b]`` of the SR1 metric on pairs
    from a mu-strongly convex, L-smooth function."""
    a = gamma / L
    b = ((1.0 + gamma) / mu - 2.0 * gamma / L) / (1.0 - gamma)
    return a, b


def zbfgs_eigen_bounds(mu, L, gamma):
    """Uniform eigenvalue interval ``[a, b]`` of the 0BFGS metric."""
    a = gamma / ((1.0 + gamma) * L)
    b = (1.0 + 2.0 * gamma) / mu - (2.0 + gamma) * gamma / ((1.0 + gamma) * L)
    return a, b


def contraction_rate(mu, L, gamma, kappa_lo, kappa_hi, variant="sr1"):
    """Per-step objective-error contraction factor of the quasi-Newton
    forward-backward loop with t = 1 and steps in ``[kappa_lo, kappa_hi]``.

    Computed from the convergence theorem's formulas: with
    ``alpha = 1 - L b kappa_hi / 2`` and ``eta = L / (2 gamma mu kappa_lo)``,
    the rate is ``rho_1`` for ``alpha < 1/2`` and ``min(rho_1, rho_2)``
    otherwise.
    """
    bounds = sr1_eigen_bounds if variant == "sr1" else zbfgs_eigen_bounds
    _, b = bounds(mu, L, gamma)
    if not 0.0 < kappa_lo <= kappa_hi < 2.0 / (L * b):
        raise ValueError("step range must lie in (0, 2/(L b))")
    alpha = 1.0 - L * b * kappa_hi / 2.0
    eta = L / (2.0 * gamma * mu * kappa_lo)
    rho1 = 1.0 - alpha * (1.0 - 2.0 * (np.sqrt(eta ** 2 + eta) - eta))
    rho2 = 2.0 * eta if eta <= 0.25 else 1.0 - 1.0 / (8.0 * eta)
    if alpha < 0.5:
        return float(rho1)
    return float(min(rho1, rho2))

"""Zero-memory SR1 and BFGS metric constructions.

Both methods rebuild a diagonal +/- low-rank approximation of the inverse
Hessian from the most recent displacement/gradient pair at every
iteration.  The diagonal is a Barzilai-Borwein multiple of the identity
scaled down by ``gamma`` so the low-rank correction stays well defined;
degenerate pairs skip the correction and keep the diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metric import LowRankMetric, NotPositiveDefiniteError, PlusMinusMetric

__all__ = [
    "CurvatureError",
    "QNPair",
    "SR1Config",
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
    computed once."""

    s: np.ndarray
    y: np.ndarray
    curvature: float = field(init=False)

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if s.shape != y.shape or s.ndim != 1:
            raise ValueError("s and y must be 1-d vectors of equal length")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "curvature", float(np.dot(s, y)))


@dataclass(frozen=True)
class SR1Config:
    """Parameters of the SR1 sub-routine.

    ``gamma`` shrinks the Barzilai-Borwein diagonal (0.8 works well),
    ``tau_min``/``tau_max`` clamp the step length, ``skip_tol`` is the
    relative threshold below which the rank-1 update is skipped.
    """

    gamma: float = 0.8
    tau_min: float = 1e-8
    tau_max: float = 1e8
    skip_tol: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.tau_min < self.tau_max:
            raise ValueError("need 0 < tau_min < tau_max")


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
    tau_bb2 = sy / float(np.dot(pair.y, pair.y))
    tau_bb1 = float(np.dot(pair.s, pair.s)) / sy
    return tau_bb1, tau_bb2


def sr1_metric(pair, cfg: SR1Config = SR1Config(), dim=None, tau0=1.0):
    """Zero-memory SR1 inverse-Hessian metric ``H = gamma tau_bb2 I + u u^T``.

    ``u = (s - H0 y)/sqrt(<s - H0 y, y>)`` when the curvature of the
    residual pair is safely positive; otherwise the update is skipped and
    the diagonal ``H0`` is returned (rank 0).  ``pair=None`` covers the
    first iteration, where ``H = tau0 * I`` (any positive tau is valid;
    callers use 1/L when a Lipschitz estimate exists).

    The secant identity ``H y = s`` holds exactly whenever the update is
    not skipped.
    """
    if pair is None:
        if dim is None:
            raise ValueError("dim is required when no pair is given")
        return LowRankMetric._trusted(float(tau0), np.zeros((dim, 0)))
    n = pair.s.shape[0]
    yy = float(np.dot(pair.y, pair.y))
    if yy == 0.0:
        return LowRankMetric._trusted(float(tau0), np.zeros((n, 0)))
    h0 = cfg.gamma * min(max(pair.curvature / yy, cfg.tau_min), cfg.tau_max)
    w = pair.s - h0 * pair.y
    wy = float(np.dot(w, pair.y))
    if wy <= cfg.skip_tol * math.sqrt(yy) * math.sqrt(w.dot(w)):
        return LowRankMetric._trusted(h0, np.zeros((n, 0)))
    u = w / math.sqrt(wy)
    return LowRankMetric._trusted(h0, u.reshape(n, 1), +1)


def _zbfgs_diagonal(h, n):
    """The pair ``(h I, I / h, True)`` of a skipped 0BFGS update."""
    empty = np.zeros((n, 0))
    return (PlusMinusMetric._trusted(h, empty, empty),
            PlusMinusMetric._trusted(1.0 / h, empty, empty), True)


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

    Returns ``(H, B, skipped)``.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")

    n = pair.s.shape[0]
    sy = pair.curvature
    yy = float(np.dot(pair.y, pair.y))
    tau = sy / yy if yy else math.inf   # ||y||^2 can underflow to 0
    if sy <= 0.0 or tau == math.inf:    # then B's scale 1/(gamma tau) is 0
        return _zbfgs_diagonal(gamma * float(tau_fallback), n)
    ss = float(np.dot(pair.s, pair.s))
    rho = 1.0 / sy
    u_g = pair.s - (gamma * tau / (1.0 + gamma)) * pair.y
    try:
        H = PlusMinusMetric._trusted(
            gamma * tau,
            (math.sqrt(rho * (1.0 + gamma)) * u_g).reshape(n, 1),
            (math.sqrt(rho * gamma ** 2 * tau ** 2 / (1.0 + gamma))
             * pair.y).reshape(n, 1),
        )
        B = PlusMinusMetric._trusted(
            1.0 / (gamma * tau),
            (pair.y / (math.sqrt(yy) * math.sqrt(tau))).reshape(n, 1),
            (pair.s / (math.sqrt(ss) * math.sqrt(gamma * tau))).reshape(n, 1),
        )
    except (NotPositiveDefiniteError, OverflowError):
        # numerically degenerate pair (s nearly parallel to y, or tau ** 2
        # overflowing at an extreme scale); fall back to the safe diagonal
        return _zbfgs_diagonal(gamma * tau, n)
    return H, B, False


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

"""The Clarke-Jacobian products of the operators before they shared one
route through their bound step, kept as the bit reference of that route:
the slope rule's product for the clip family and ``Zero``, the
products of ``Simplex``, ``L1Ball``, the support functions and
``AffineConstraint``, which project again instead of reading the bound
step's prox, and the first form of the ``GroupL2`` kernel."""

import numpy as np
from scipy.linalg import cho_solve

from proxqn.prox import (
    AffineConstraint,
    GroupL2,
    L1Ball,
    Simplex,
    Zero,
    _active_set_jvp,
    _Clip,
    _scale_rows,
    _SupportFunction,
)

from _group_reference import RepeatGroupL2


def _slope_rule(op, z, d, kappa):
    """Clarke slopes of a separable prox at ``z``, the right-hand
    segment's at a breakpoint of its ``pa_descriptor``."""
    if isinstance(op, Zero):
        return np.ones(len(z))
    lo, hi = op._bounds(d, kappa)
    keep = (z >= lo) & (z < hi)
    return ~keep if op._shrink else keep


def reference_jvp(op, z, d, kappa, M):
    """``op.prox_diag_jvp(z, d, kappa, M)`` in its former form, for a
    weight vector ``d`` that passed ``op.check_weights``."""
    if isinstance(op, (Zero, _Clip)):
        return _scale_rows(_slope_rule(op, z, d, kappa), np.atleast_2d(M.T).T)
    M = np.atleast_2d(np.asarray(M, dtype=float).T).T
    if isinstance(op, GroupL2):
        return RepeatGroupL2(op.lam, op.blocks).prox_diag_jvp(z, d, kappa, M)
    if isinstance(op, Simplex):
        return _active_set_jvp(op._prox_diag(z, d, kappa) > 0, d, M)
    if isinstance(op, L1Ball):
        if float(np.sum(np.abs(z))) < op.radius * (1.0 - 1e-12):
            return M.copy()
        s = np.where(z >= 0, 1.0, -1.0)
        active = op._prox_diag(z, d, kappa) != 0
        if not np.any(active):
            return np.zeros_like(M)
        return s[:, None] * _active_set_jvp(active, d, s[:, None] * M)
    if isinstance(op, _SupportFunction):
        radius = kappa * op.lam
        if radius == 0:
            return M.copy()
        return M - reference_jvp(op._set(radius), d * z, 1.0 / d, 1.0,
                                 d[:, None] * M) / d[:, None]
    if isinstance(op, AffineConstraint):
        factor, AinvD = op._factor(d)
        return M - AinvD.T @ cho_solve(factor, op.A @ M)
    raise TypeError(f"no reference product for {type(op).__name__}")

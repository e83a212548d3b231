"""Proximal operators in diagonally weighted metrics.

Every operator solves, for a weight vector ``d > 0`` and scale ``kappa > 0``,

    prox_diag(x, d, kappa) = argmin_z  kappa * h(z) + 1/2 * sum_i d_i (x_i - z_i)^2

which is the proximity operator of ``kappa * h`` in the metric ``diag(d)``.
The public ``prox_diag`` checks the weights (``check_weights``) and calls
the unchecked core ``_prox_diag``; the root finders of :mod:`proxqn.scaled`
check them once per root problem and call the core and ``prox_diag_jvp``,
and the first-order solvers check their unit weights once per solve.
Both Newtons of :mod:`proxqn.scaled`, the rank-1 and the joint rank-2, bind
once per root problem, ``step = op._bind(d, kappa)`` (thresholds formed
once), and get ``p, jac = step(z, out, tmp)``: the bits of ``_prox_diag``,
and when called, ``jac(w, out)`` those of ``prox_diag_jvp`` (or None) for a
vector ``w`` and an N x r matrix ``w`` alike, as a vector for a vector.
Thresholds write ``p`` and a vector's product, the group norm ``p``, into a
caller-owned ``out`` if given, may overwrite a given N-vector ``tmp``, and
take for ``d`` the ``c`` of ``c I`` (``_scalar_bind``; ``np.full(n, c)``'s
bits); ``jac`` reads ``z`` when called.
Separable operators additionally expose a piecewise-affine description of
their scalar prox maps (breakpoints / slopes / intercepts), which is what
the exact low-rank root finder consumes.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

__all__ = [
    "PiecewiseAffineDescriptor",
    "ProxOperator",
    "Zero",
    "L1Norm",
    "NonNeg",
    "Box",
    "Hinge",
    "LinfBall",
    "L1Ball",
    "Simplex",
    "LinfNorm",
    "MaxFunction",
    "GroupL2",
    "AffineConstraint",
    "project_simplex_weighted",
    "project_l1_ball_weighted",
]

_FEAS_TOL = 1e-8


def _scale_rows(v, M):
    """``v[:, None] * M`` to the bit, in M's memory order, formed down one
    column after another; the broadcast loops along rows of r entries."""
    out = np.empty_like(M, dtype=np.result_type(v, M))
    np.multiply(v, M.T, out=out.T, order="C")
    return out


def _check_weights(d, n=None):
    d = np.asarray(d, dtype=float)
    if d.ndim == 0:
        if n is None:
            raise ValueError("scalar weights need an explicit dimension")
        d = np.full(n, float(d))
    if np.any(d <= 0):
        raise ValueError("diagonal weights must be strictly positive")
    if n is not None and d.shape[0] != n:
        raise ValueError(f"weights have dimension {d.shape[0]}, expected {n}")
    return d


class PiecewiseAffineDescriptor:
    """Per-coordinate piecewise-affine scalar maps.

    Coordinate ``i`` maps ``z`` to ``slopes[i, j] * z + intercepts[i, j]`` on
    the segment ``[breakpoints[i, j-1], breakpoints[i, j]]`` with the outer
    sentinels ``-inf`` and ``+inf``.  Breakpoints are sorted per row; rows
    may contain ``+-inf`` entries for segments that never activate.

    Invariants (checked by :meth:`validate`): continuity at every finite
    breakpoint and all slopes in ``[0, 1]`` (the maps are monotone and
    non-expansive, as proximal maps of scalar convex functions must be).
    """

    def __init__(self, breakpoints, slopes, intercepts):
        self.breakpoints = np.atleast_2d(np.asarray(breakpoints, dtype=float))
        self.slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        self.intercepts = np.atleast_2d(np.asarray(intercepts, dtype=float))
        n, k = self.breakpoints.shape
        if self.slopes.shape != (n, k + 1) or self.intercepts.shape != (n, k + 1):
            raise ValueError("descriptor arrays have inconsistent shapes")

    @property
    def n(self):
        return self.breakpoints.shape[0]

    def segment_index(self, z, ties="left"):
        """Segment index per coordinate; ``ties='right'`` picks the
        right-hand segment at a breakpoint (the Clarke-element choice)."""
        z = np.asarray(z, dtype=float)
        if ties == "right":
            return np.sum(self.breakpoints <= z[:, None], axis=1)
        return np.sum(self.breakpoints < z[:, None], axis=1)

    def evaluate(self, z):
        """Apply the scalar maps coordinate-wise."""
        idx = self.segment_index(z)
        rows = np.arange(self.n)
        return self.slopes[rows, idx] * z + self.intercepts[rows, idx]

    def slopes_at(self, z):
        """Clarke-element slopes at ``z`` (right segment at breakpoints)."""
        idx = self.segment_index(z, ties="right")
        return self.slopes[np.arange(self.n), idx]

    def validate(self, tol=1e-12):
        """Raise if continuity or the slope range [0, 1] is violated."""
        if np.any(self.slopes < -tol) or np.any(self.slopes > 1 + tol):
            raise ValueError("descriptor slopes outside [0, 1]")
        if self.breakpoints.shape[1] == 0:
            return
        if np.any(np.diff(self.breakpoints, axis=1) < 0):
            raise ValueError("breakpoints not sorted")
        t = self.breakpoints
        with np.errstate(invalid="ignore"):   # 0 * inf at infinite bounds
            left = self.slopes[:, :-1] * t + self.intercepts[:, :-1]
            right = self.slopes[:, 1:] * t + self.intercepts[:, 1:]
        finite = np.isfinite(t)
        scale = np.maximum(1.0, np.abs(t, where=finite, out=np.ones_like(t)))
        gap = np.abs(left - right)
        if np.any(gap[finite] > tol * scale[finite]):
            raise ValueError("descriptor is discontinuous at a breakpoint")


class ProxOperator:
    """Base class: a convex function with a diagonal-metric prox."""

    separable = False
    blocks = None
    dim = None   # the dimension the operator is built for, if it has one
    _scalar_bind = False   # whether _bind takes a scalar d (module docstring)

    def evaluate(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.evaluate(x)

    def prox_diag(self, x, d, kappa=1.0):
        """The prox of ``kappa * h`` in ``diag(d)`` at ``x``."""
        x = np.asarray(x, dtype=float)
        return self._prox_diag(x, self.check_weights(d, x.shape[0]), kappa)

    # d as a float vector of length n; raises ValueError unless every
    # weight is strictly positive (no extra call frame on the public path)
    check_weights = staticmethod(_check_weights)

    def _prox_diag(self, x, d, kappa):
        """``prox_diag`` on a float vector and weights that passed
        :meth:`check_weights`."""
        raise NotImplementedError

    def pa_descriptor(self, d, kappa=1.0):
        """Piecewise-affine description of the scalar prox maps, or None."""
        return None

    def prox_diag_jvp(self, z, d, kappa, M):
        """Product of a Clarke Jacobian of ``prox_diag(., d, kappa)`` at
        ``z`` with the columns of ``M``, or None if unavailable; ``d`` must
        have passed :meth:`check_weights`.  The slope rule's product has the
        bits of ``slopes[:, None] * M`` in M's memory order (C in, C out),
        formed column by column: the broadcast loops over r entries a row."""
        slopes = self.slope_rule(z, d, kappa)
        if slopes is None:
            return None
        return _scale_rows(slopes, np.atleast_2d(M.T).T)

    def _bind(self, d, kappa):
        """The step ``z -> (prox, jac)``; see the module docstring."""
        def jac(z, w):
            if w.ndim == 2:
                return self.prox_diag_jvp(z, d, kappa, w)
            jw = self.prox_diag_jvp(z, d, kappa, w[:, None])
            return None if jw is None else jw[:, 0]
        return lambda z, out=None, tmp=None: (
            self._prox_diag(z, d, kappa), lambda w, out=None: jac(z, w))

    def slope_rule(self, z, d, kappa):
        """The descriptor's Clarke slopes at ``z``, or None; separable
        operators override it with a direct rule giving the same slopes."""
        desc = self.pa_descriptor(d, kappa)
        return None if desc is None else desc.slopes_at(z)

    def conjugate(self):
        """Operator of the convex conjugate, where implemented."""
        return None


# -- separable operators ----------------------------------------------------


class Zero(ProxOperator):
    """The zero function; prox is the identity."""

    separable = True

    def evaluate(self, x):
        return 0.0

    def _prox_diag(self, x, d, kappa):
        return x.copy()

    def slope_rule(self, z, d, kappa):
        return np.ones(len(z))

    def pa_descriptor(self, d, kappa=1.0):
        n = _check_weights(d).shape[0]
        return PiecewiseAffineDescriptor(
            np.zeros((n, 0)), np.ones((n, 1)), np.zeros((n, 1))
        )


class _Thresholding(ProxOperator):
    """Separable: prox ``_prox_at(z, t)`` at ``t = kappa * lam / d``, Clarke
    slope 0 on ``[_lower(t), t)`` and 1 elsewhere; ``_prox_into(z, t, out,
    tmp, mask)`` does its operations in its order into ``out``."""

    separable = True
    _scalar_bind = True

    def _prox_diag(self, x, d, kappa):
        if kappa <= 0:
            raise ValueError("kappa must be positive")
        return self._prox_at(x, kappa * self.lam / d)

    def slope_rule(self, z, d, kappa):
        t = kappa * self.lam / d
        return ~((z >= self._lower(t)) & (z < t))

    def _bind(self, d, kappa):
        t = kappa * self.lam / d   # 0-d: ufuncs convert a float per call
        t, lo = np.asarray(t), np.asarray(self._lower(t))
        masks = []   # the binding's two bool work arrays, made once
        def step(z, out=None, tmp=None):
            if not masks:
                both = np.empty((2, z.size), bool)
                masks.extend((both[0], both[1]))
            def jac(w, out=None):
                ge, lt = masks
                keep = np.invert(np.bitwise_and(
                    np.greater_equal(z, lo, ge), np.less(z, t, lt), ge), ge)
                # a bare keep * w would pair the N slopes with the r columns
                # whenever N == r
                return np.multiply(keep, w, out) if w.ndim == 1 else \
                    _scale_rows(keep, w)
            return self._prox_into(z, t, out, tmp, masks[0]), jac
        return step


class L1Norm(_Thresholding):
    """``h(x) = lam * ||x||_1``; weighted soft thresholding."""

    def __init__(self, lam):
        if lam <= 0:
            raise ValueError("l1 weight must be positive")
        self.lam = float(lam)

    def evaluate(self, x):
        return self.lam * float(np.abs(x).sum())

    @staticmethod
    def _prox_at(z, t):
        return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)

    @staticmethod
    def _prox_into(z, t, out, tmp, mask):
        p = np.abs(z, out)
        np.maximum(np.subtract(p, t, p), 0.0, out=p)
        return np.multiply(np.sign(z, tmp), p, p)

    @staticmethod
    def _lower(t):
        return -t

    def pa_descriptor(self, d, kappa=1.0):
        d = _check_weights(d)
        t = kappa * self.lam / d
        n = d.shape[0]
        bp = np.empty((n, 2))
        bp[:, 0], bp[:, 1] = -t, t
        slopes = np.empty((n, 3))
        slopes[:, 0] = slopes[:, 2] = 1.0
        slopes[:, 1] = 0.0
        inter = np.zeros((n, 3))
        inter[:, 0], inter[:, 2] = t, -t
        return PiecewiseAffineDescriptor(bp, slopes, inter)

    def conjugate(self):
        return LinfBall(self.lam)


class Box(ProxOperator):
    """Indicator of ``{lo <= x <= hi}``; prox is clipping.

    Bounds may be scalars or vectors and may be infinite on either side.
    """

    separable = True

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.lo > self.hi):
            raise ValueError("box bounds must satisfy lo <= hi")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        tol = _FEAS_TOL * (1.0 + float(np.max(np.abs(x), initial=0.0)))
        if np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol):
            return 0.0
        return np.inf

    def _prox_diag(self, x, d, kappa):
        return np.clip(x, self.lo, self.hi)

    def slope_rule(self, z, d, kappa):
        return (z >= self.lo) & (z < self.hi)

    def pa_descriptor(self, d, kappa=1.0):
        d = _check_weights(d)
        n = d.shape[0]
        lo = np.broadcast_to(self.lo, (n,)).astype(float)
        hi = np.broadcast_to(self.hi, (n,)).astype(float)
        bp = np.column_stack([lo, hi])
        slopes = np.tile([0.0, 1.0, 0.0], (n, 1))
        inter = np.column_stack([lo, np.zeros(n), hi])
        # clamp intercepts of unreachable infinite segments
        inter[~np.isfinite(lo), 0] = 0.0
        inter[~np.isfinite(hi), 2] = 0.0
        return PiecewiseAffineDescriptor(bp, slopes, inter)


class NonNeg(Box):
    """Indicator of the positive orthant."""

    def __init__(self):
        super().__init__(0.0, np.inf)

    def conjugate(self):
        return Box(-np.inf, 0.0)


class LinfBall(Box):
    """Indicator of ``{||x||_inf <= radius}``."""

    def __init__(self, radius):
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)
        super().__init__(-self.radius, self.radius)

    def conjugate(self):
        return L1Norm(self.radius)


class Hinge(_Thresholding):
    """``h(x) = lam * sum_i max(0, x_i)`` (one-sided shrink)."""

    def __init__(self, lam=1.0):
        if lam <= 0:
            raise ValueError("hinge weight must be positive")
        self.lam = float(lam)

    def evaluate(self, x):
        return self.lam * float(np.sum(np.maximum(np.asarray(x, dtype=float), 0.0)))

    @staticmethod
    def _prox_at(z, c):
        return np.where(z > c, z - c, np.minimum(z, 0.0))

    @staticmethod
    def _prox_into(z, c, out, tmp, mask):
        p = np.minimum(z, 0.0, out=out)
        return np.subtract(z, c, out=p, where=np.greater(z, c, mask))

    @staticmethod
    def _lower(c):
        return 0.0

    def pa_descriptor(self, d, kappa=1.0):
        d = _check_weights(d)
        n = d.shape[0]
        c = kappa * self.lam / d
        bp = np.column_stack([np.zeros(n), c])
        slopes = np.tile([1.0, 0.0, 1.0], (n, 1))
        inter = np.column_stack([np.zeros(n), np.zeros(n), -c])
        return PiecewiseAffineDescriptor(bp, slopes, inter)

    def conjugate(self):
        return Box(0.0, self.lam)


# -- sorting-based projections ----------------------------------------------


def project_simplex_weighted(y, w, radius):
    """Minimize ``1/2 sum_i w_i (z_i - y_i)^2`` over ``{z >= 0, sum z = radius}``.

    Exact in O(N log N): the optimum is ``z_i = max(0, y_i - theta / w_i)``
    where the multiplier ``theta`` is located by sorting the activation
    values ``w_i y_i``.
    """
    y = np.asarray(y, dtype=float)
    w = _check_weights(w, y.shape[0])
    if radius < 0:
        raise ValueError("simplex radius must be non-negative")
    if radius == 0:
        return np.zeros_like(y)
    v = w * y
    order = np.argsort(-v, kind="stable")
    inv_w = 1.0 / w
    cum_y = np.cumsum(y[order])
    cum_w = np.cumsum(inv_w[order])
    theta_k = (cum_y - radius) / cum_w
    # largest k such that the top-k active set is self-consistent; the
    # top-1 set always is (radius > 0), which an infinite or NaN entry
    # would hide from the test: the result is then NaN, not an IndexError
    valid = theta_k < v[order]
    valid[0] = True
    k = int(np.nonzero(valid)[0][-1])
    theta = theta_k[k]
    return np.maximum(y - theta * inv_w, 0.0)


def project_l1_ball_weighted(y, w, radius):
    """Projection onto ``{||z||_1 <= radius}`` in the metric ``diag(w)``."""
    y = np.asarray(y, dtype=float)
    w = _check_weights(w, y.shape[0])
    if radius <= 0:
        raise ValueError("ball radius must be positive")
    if np.sum(np.abs(y)) <= radius:
        return np.array(y, copy=True)
    return np.sign(y) * project_simplex_weighted(np.abs(y), w, radius)


def _active_set_jvp(active, d, M):
    """Clarke Jacobian of ``z -> max(0, z - theta(z)/d)``, the weighted simplex
    projection, times ``M``, through its non-empty ``active`` set at ``z``."""
    w = 1.0 / d[active]
    out = np.zeros_like(M)
    out[active] = M[active] - np.outer(w, M[active].sum(axis=0) / np.sum(w))
    return out


class Simplex(ProxOperator):
    """Indicator of ``{z >= 0, sum z = radius}``."""

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("simplex radius must be positive")
        self.radius = float(radius)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        tol = _FEAS_TOL * (1.0 + self.radius)
        if np.all(x >= -tol) and abs(float(np.sum(x)) - self.radius) <= tol:
            return 0.0
        return np.inf

    def _prox_diag(self, x, d, kappa):
        return project_simplex_weighted(x, d, self.radius)

    def prox_diag_jvp(self, z, d, kappa, M):
        return _active_set_jvp(self._prox_diag(z, d, kappa) > 0, d,
                               np.atleast_2d(np.asarray(M, dtype=float).T).T)

    def conjugate(self):
        return MaxFunction(self.radius)


class L1Ball(ProxOperator):
    """Indicator of ``{||z||_1 <= radius}``."""

    def __init__(self, radius=1.0):
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        tol = _FEAS_TOL * (1.0 + self.radius)
        return 0.0 if float(np.sum(np.abs(x))) <= self.radius + tol else np.inf

    def _prox_diag(self, x, d, kappa):
        return project_l1_ball_weighted(x, d, self.radius)

    def prox_diag_jvp(self, z, d, kappa, M):
        M = np.atleast_2d(np.asarray(M, dtype=float).T).T
        # strictly inside the ball: identity; else the signed Jacobian of
        # the weighted-simplex reduction at the projection's active set
        if float(np.sum(np.abs(z))) < self.radius * (1.0 - 1e-12):
            return M.copy()
        s = np.where(z >= 0, 1.0, -1.0)
        active = self._prox_diag(z, d, kappa) != 0
        if not np.any(active):
            return np.zeros_like(M)
        return s[:, None] * _active_set_jvp(active, d, s[:, None] * M)

    def conjugate(self):
        return LinfNorm(self.radius)


# -- conjugate-route operators ------------------------------------------------


class LinfNorm(ProxOperator):
    """``h(x) = lam * ||x||_inf``, prox via the weighted Moreau identity
    through the l1-ball projector."""

    def __init__(self, lam=1.0):
        if lam < 0:
            raise ValueError("scaling must be non-negative")
        self.lam = float(lam)

    def evaluate(self, x):
        return self.lam * float(np.max(np.abs(x), initial=0.0))

    def _prox_diag(self, x, d, kappa):
        radius = kappa * self.lam
        if radius == 0:
            return np.array(x, copy=True)
        q = project_l1_ball_weighted(d * x, 1.0 / d, radius)
        return x - q / d

    def conjugate(self):
        return L1Ball(self.lam)


class MaxFunction(ProxOperator):
    """``h(x) = lam * max_i x_i``, prox via the weighted Moreau identity
    through the simplex projector."""

    def __init__(self, lam=1.0):
        if lam < 0:
            raise ValueError("scaling must be non-negative")
        self.lam = float(lam)

    def evaluate(self, x):
        return self.lam * float(np.max(x))

    def _prox_diag(self, x, d, kappa):
        radius = kappa * self.lam
        if radius == 0:
            return np.array(x, copy=True)
        q = project_simplex_weighted(d * x, 1.0 / d, radius)
        return x - q / d

    def conjugate(self):
        return Simplex(self.lam)


# -- block-separable ----------------------------------------------------------


class GroupL2(ProxOperator):
    """Group sparsity norm ``h(x) = lam * sum_b ||x_b||_2``.

    ``blocks`` must partition the coordinate index set; the diagonal weight
    vector must be constant within each block (block soft-thresholding has
    no closed form otherwise).
    """
    _scalar_bind = True

    def __init__(self, lam, blocks):
        if lam <= 0:
            raise ValueError("group weight must be positive")
        self.lam = float(lam)
        self.blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
        self._perm = np.concatenate(self.blocks)
        self._sizes = np.array([len(b) for b in self.blocks])
        if np.any(self._sizes == 0):
            raise ValueError("empty block")
        n = self._perm.size
        if np.unique(self._perm).size != n:
            raise ValueError("blocks must be disjoint")
        self._starts = np.concatenate([[0], np.cumsum(self._sizes)[:-1]])
        self._firsts = self._perm[self._starts]   # first index of each block
        self.dim = n

    def check_weights(self, d, n):
        """Also raises unless ``n == dim`` and ``d`` is constant per block."""
        if n != self.dim:
            raise ValueError(f"point has dimension {n}, expected {self.dim}")
        d = _check_weights(d, n)
        dp = d[self._perm]
        if np.any(np.abs(dp - np.repeat(dp[self._starts], self._sizes))
                  > 1e-12 * np.abs(dp)):
            raise ValueError("diagonal weights must be constant within blocks")
        return d

    def _block_norms(self, z):
        zp = z[self._perm]
        return np.sqrt(np.add.reduceat(zp * zp, self._starts)), zp

    def evaluate(self, x):
        norms, _ = self._block_norms(np.asarray(x, dtype=float))
        return self.lam * float(norms.sum())

    def _shrink(self, z, thresh):
        """Norms, block-ordered ``z``, thresholds and the prox's block factors."""
        norms, zp = self._block_norms(z)
        # 1 - thresh/norms on the active blocks, 0 elsewhere; dividing only
        # there needs no errstate context, whose cost shows at N = 100
        scale = 1.0 - np.divide(thresh, norms, out=np.ones_like(norms),
                                where=norms > thresh)
        return norms, zp, thresh, scale

    def _prox_diag(self, x, d, kappa):
        return self._step(x, kappa * self.lam / d[self._firsts])[0]

    def _step(self, z, thresh, out=None):   # the prox, its jac's temporaries
        parts = self._shrink(z, thresh)
        p = np.empty_like(z) if out is None else out
        p[self._perm] = np.repeat(parts[3], self._sizes) * parts[1]
        return p, parts

    def _jvp_from(self, M, norms, zp, thresh, scale):
        safe = np.where(norms > 0, norms, 1.0)
        curv = np.where(norms > thresh, thresh / safe ** 3, 0.0)
        Mp = M[self._perm]
        zdotM = np.add.reduceat(zp[:, None] * Mp, self._starts, axis=0)
        outp = np.repeat(scale, self._sizes)[:, None] * Mp + (
            np.repeat(curv, self._sizes)[:, None] * zp[:, None]
        ) * np.repeat(zdotM, self._sizes, axis=0)
        out = np.empty_like(M)
        out[self._perm] = outp
        return out

    def prox_diag_jvp(self, z, d, kappa, M):
        M = np.atleast_2d(np.asarray(M, dtype=float).T).T
        return self._jvp_from(M, *self._shrink(
            np.asarray(z, dtype=float), kappa * self.lam / d[self._firsts]))

    def _bind(self, d, kappa):
        thresh = np.asarray(   # 0-d for a scalar d, as in _Thresholding
            kappa * self.lam / (d[self._firsts] if np.ndim(d) else d))
        def step(z, out=None, tmp=None):
            p, parts = self._step(z, thresh, out)

            def jac(w, out=None):
                if w.ndim == 2:
                    return self._jvp_from(w, *parts)
                return self._jvp_from(w[:, None], *parts)[:, 0]
            return p, jac
        return step


# -- affine constraint --------------------------------------------------------


class AffineConstraint(ProxOperator):
    """Indicator of ``{z : A z = b}``; prox is the D-weighted projection
    ``z = x + D^{-1} A^T (A D^{-1} A^T)^{-1} (b - A x)``.

    The factorization of ``A D^{-1} A^T`` is cached per weight vector.
    """

    def __init__(self, A, b):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        if A.ndim != 2 or b.shape != (A.shape[0],):
            raise ValueError("A must be (m, n) and b must be (m,)")
        if np.linalg.matrix_rank(A) < A.shape[0]:
            raise ValueError("A must have full row rank")
        self.A = A
        self.b = b
        self._cache = {}

    def _factor(self, d):
        key = d.tobytes()
        if key not in self._cache:
            AinvD = self.A / d[None, :]
            self._cache[key] = (cho_factor(AinvD @ self.A.T), AinvD)
            if len(self._cache) > 8:
                self._cache.pop(next(iter(self._cache)))
        return self._cache[key]

    def evaluate(self, x):
        r = self.A @ np.asarray(x, dtype=float) - self.b
        tol = _FEAS_TOL * (1.0 + float(np.max(np.abs(self.b), initial=0.0)))
        return 0.0 if float(np.max(np.abs(r), initial=0.0)) <= tol else np.inf

    def _prox_diag(self, x, d, kappa):
        factor, AinvD = self._factor(d)
        return x + AinvD.T @ cho_solve(factor, self.b - self.A @ x)

    def prox_diag_jvp(self, z, d, kappa, M):
        factor, AinvD = self._factor(d)
        M = np.atleast_2d(np.asarray(M, dtype=float).T).T
        return M - AinvD.T @ cho_solve(factor, self.A @ M)


"""Proximal operators in diagonally weighted metrics.

Every operator solves, for a weight vector ``d > 0`` and scale ``kappa > 0``,

    prox_diag(x, d, kappa) = argmin_z  kappa * h(z) + 1/2 * sum_i d_i (x_i - z_i)^2

which is the proximity operator of ``kappa * h`` in the metric ``diag(d)``.
Besides ``evaluate``, ``check_weights(d, n)`` and ``dim`` (None, or the
dimension it is built for), each operator defines the unchecked core
``_prox_diag`` and one
Clarke-Jacobian route: ``_jvp(z, p, d, kappa, M)``, which the base
``_bind`` calls with the prox ``p`` it evaluated at the step, or its own
``_bind``.  The public ``prox_diag`` checks the weights, and the public
``prox_diag_jvp`` coerces ``M`` to N x r and binds.  Both Newtons of
:mod:`proxqn.scaled` check the weights once per root problem and bind
once, ``step = op._bind(d, kappa)``, and get ``p, jac = step(z, out,
tmp)``: the bits of ``_prox_diag`` and, when called, ``jac(w, out)`` the
product with a vector ``w`` or an N x r matrix ``w``, as a vector for a
vector.  The first-order solvers check their unit weights once per solve.
Every separable operator is one piecewise-linear map with two breakpoints
``lo <= hi`` from ``_bounds`` (``_Clip``): the boxes clip, ``Zero`` to
``(-inf, inf)``, ``c = clip(z, lo, hi)`` as ``min`` then ``max``, and
``L1Norm`` and ``Hinge`` shrink, ``z - c`` in a third pass, at ``(-t, t)``
and ``(0, t)`` with ``t = kappa * lam / d``.  The clip family and the group norm
(``GroupL2``) bind themselves: the clip family writes ``p`` and a
vector's product, the group norm ``p``, into a caller-owned ``out`` if
given; a shrink may overwrite a given N-vector ``tmp``.  Both take for
``d`` the ``c`` of a trusted ``c I`` (``_scalar_bind``; ``np.full(n,
c)``'s bits), every other operator the vector.  The support functions
(``LinfNorm``, ``MaxFunction``) bind on their set's binding, so that the
product reads the step's projection.  ``jac`` reads ``z`` when called,
the group norm's through a view when its blocks lie in order, so a
caller keeps ``z`` until its products.  A separable operator's
``pa_descriptor`` gives the breakpoints of its scalar maps, the N x 2
column stack of ``_bounds``, which the exact rank-1 finder reads.
The l1, group and box families also give the 0BFGS step on a
least-squares ``f`` its exact search along a ray: ``_ray_min(x, p, a, c,
cap)`` returns the minimizer on ``[0, cap]`` of ``a t + c t^2 / 2 + h(x +
t p)``, and is None on the other operators, which backtrack.  The solver
clips a box's ray point to the box's ``lo`` and ``hi``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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
# the Newton step on the group norm's phi' below which its ray search
# stops, taking that step: the error left is of its square
RAY_STEP_TOL = 1e-8
# phi' evaluations after which that search returns its last point
RAY_MAX_EVALS = 60


def _scale_rows(v, M):
    """``v[:, None] * M`` to the bit, in M's memory order, formed down one
    column after another; the broadcast loops along rows of r entries.  On
    the metric's column-major blocks every column is contiguous."""
    out = np.empty_like(M, dtype=np.result_type(v, M))
    np.multiply(v, M.T, out=out.T, order="C")
    return out


def _check_weights(d, n=None):
    d = np.asarray(d, dtype=float)
    if d.ndim == 0:
        if n is None:
            raise ValueError("scalar weights need an explicit dimension")
        d = np.full(n, float(d))
    if not np.all(d > 0):   # NaN fails
        raise ValueError("diagonal weights must be strictly positive")
    if n is not None and d.shape[0] != n:
        raise ValueError(f"weights have dimension {d.shape[0]}, expected {n}")
    return d


class ProxOperator:
    """Base class: a convex function with a diagonal-metric prox."""

    separable = False
    dim = None   # the dimension the operator is built for, if it has one
    _scalar_bind = False   # whether _bind takes a scalar d (module docstring)
    _ray_min = None   # the exact ray search, if any (module docstring)

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
        """The ``(N, k)`` breakpoints of the scalar prox maps, each row
        sorted, between which every map is affine; None if they are not
        piecewise affine."""
        return None

    def prox_diag_jvp(self, z, d, kappa, M):
        """Product of a Clarke Jacobian of ``prox_diag(., d, kappa)`` at
        ``z`` with the columns of ``M`` (a vector is one column), an N x r
        matrix; ``d`` must have passed :meth:`check_weights`."""
        M = np.atleast_2d(np.asarray(M, dtype=float).T).T
        return self._bind(d, kappa)(np.asarray(z, dtype=float))[1](M)

    def _bind(self, d, kappa):
        """The step ``z -> (prox, jac)``; see the module docstring."""
        def step(z, out=None, tmp=None):
            p = self._prox_diag(z, d, kappa)
            def jac(w, out=None):
                if w.ndim == 2:
                    return self._jvp(z, p, d, kappa, w)
                return self._jvp(z, p, d, kappa, w[:, None])[:, 0]
            return p, jac
        return step

    def _jvp(self, z, p, d, kappa, M):
        """The Clarke-Jacobian product of the base :meth:`_bind` at ``z``
        with an N x r ``M``, given ``p = _prox_diag(z, d, kappa)``."""
        raise NotImplementedError(
            f"{type(self).__name__} gives no Clarke-Jacobian product: an "
            "operator defines _jvp or its own _bind")

    def conjugate(self):
        """Operator of the convex conjugate, where implemented."""
        return None


# -- separable operators ----------------------------------------------------


class _Clip(ProxOperator):
    """Separable with two breakpoints ``lo <= hi`` per coordinate, which a
    subclass gives as ``_bounds(d, kappa) -> (lo, hi)`` for a scalar or a
    vector ``d``: the clip ``c = clip(z, lo, hi)``, or with ``_shrink``
    the shrink ``z - c``; Clarke slope 1 on ``[lo, hi)`` for a clip, 0
    there and 1 elsewhere for a shrink.  The binding forms them from ``a =
    (z >= lo)`` and ``b = (z >= hi)`` in three passes: ``a > b`` for a
    clip, ``a <= b`` for a shrink, which gives a NaN ``z`` the slope 1, or
    a subclass's ``_slope`` ufunc of ``a`` and ``b``."""

    separable = True
    _scalar_bind = True
    _shrink, _slope = False, None

    def _kernel(self, z, lo, hi, out=None, tmp=None):
        """The clip in two passes into ``out`` (or a new array); the shrink
        clips into ``tmp`` (or a new array) and subtracts in a third pass
        into ``out`` if given, else over the clipped ``z``."""
        c = np.minimum(z, hi, out=tmp if self._shrink else out)
        np.maximum(c, lo, out=c)
        if not self._shrink:
            return c
        return np.subtract(z, c, out=c if out is None else out)

    def _prox_diag(self, x, d, kappa):
        if not kappa > 0:   # NaN fails
            raise ValueError("kappa must be positive")
        lo, hi = self._bounds(d, kappa)
        return self._kernel(x, lo, hi)

    def pa_descriptor(self, d, kappa=1.0):
        d = _check_weights(d)
        lo, hi = np.broadcast_arrays(*self._bounds(d, kappa), d)[:2]
        return np.column_stack((lo, hi))

    def _bind(self, d, kappa):
        # 0-d bounds: ufuncs convert a float per call
        lo, hi = self._bounds(d, kappa)
        lo, hi = np.asarray(lo), np.asarray(hi)
        slope_of = self._slope or (np.less_equal if self._shrink else
                                   np.greater)
        masks = []   # the binding's two bool work arrays, made once
        def step(z, out=None, tmp=None):
            def jac(w, out=None):
                if not masks:   # the rows of one array
                    masks.extend(np.empty((2, z.size), bool))
                a, b = masks
                slope = slope_of(np.greater_equal(z, lo, a),
                                 np.greater_equal(z, hi, b), a)
                # a bare slope * w would pair the N slopes with the r
                # columns whenever N == r; they read the floats, cast once
                return np.multiply(slope, w, out) if w.ndim == 1 else \
                    _scale_rows(slope.astype(float), w)
            return self._kernel(z, lo, hi, out, tmp), jac
        return step


class L1Norm(_Clip):
    """``h(x) = lam * ||x||_1``; weighted soft thresholding."""

    _shrink = True

    def __init__(self, lam):
        if not lam > 0:   # NaN fails
            raise ValueError("l1 weight must be positive")
        self.lam = float(lam)

    def evaluate(self, x):
        return self.lam * float(np.abs(x).sum())

    def _bounds(self, d, kappa):
        t = kappa * self.lam / d
        return -t, t

    def _ray_min(self, x, p, a, c, cap):
        """The minimizer on ``[0, cap]`` of ``phi(t) = a t + c t^2 / 2 +
        lam ||x + t p||_1``.  ``phi'`` is nondecreasing and piecewise affine
        with slope ``c``: from ``a + lam ||p||_1 - 2 lam sum |p_i|`` over the
        coordinates that cross zero (``x_i p_i < 0``), each of which raises it
        by ``2 lam |p_i|`` at its kink ``|x_i| / |p_i|``.  The root lies below
        ``-phi'(0+) / c``, so only the kinks before that bound are sorted."""
        ap = np.abs(p)
        cross = np.sign(x)
        cross *= p
        np.minimum(cross, 0.0, out=cross)   # -|p_i| where x_i crosses zero
        d = a + self.lam * (float(ap.sum()) + 2.0 * float(cross.sum()))
        if not d < 0:
            return 0.0
        cross *= cap if c * cap <= -d else -d / c
        cross += np.abs(x)
        near = np.flatnonzero(cross < 0)   # |x_i| < bound |p_i|
        if near.size:
            kinks = np.abs(x[near])
            kinks /= ap[near]
            order = np.argsort(kinks)
            kinks = kinks[order]
            rise = np.cumsum(ap[near[order]])   # phi' gained past each kink
            rise *= 2.0 * self.lam
            after = c * kinks
            after += rise
            after += d
            k = int(np.searchsorted(after, 0.0))
            if k:
                d += float(rise[k - 1])
            if k < kinks.size and d + c * float(kinks[k]) < 0:
                return float(kinks[k])   # phi' changes sign at the kink
        return cap if c * cap <= -d else -d / c

    def conjugate(self):
        return LinfBall(self.lam)


class Box(_Clip):
    """Indicator of ``{lo <= x <= hi}``; prox is clipping.

    Bounds may be scalars or vectors and may be infinite on either side.
    """

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if not np.all(self.lo <= self.hi):   # NaN fails
            raise ValueError("box bounds must satisfy lo <= hi")

    def _bounds(self, d, kappa):
        return self.lo, self.hi

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        tol = _FEAS_TOL * (1.0 + float(np.max(np.abs(x), initial=0.0)))
        if np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol):
            return 0.0
        return np.inf

    def _ray_min(self, x, p, a, c, cap):
        """The minimizer on ``[0, cap]`` of ``phi(t) = a t + c t^2 / 2 +
        h(x + t p)`` for the box: the quadratic's minimizer clipped to
        ``[0, min(cap, t_max)]``, ``t_max`` where the ray leaves the box."""
        if not a < 0:
            return 0.0
        up, down = p > 0, p < 0
        t_max = min(cap, float(np.min((self.hi - x)[up] / p[up],
                                      initial=math.inf)),
                    float(np.min((self.lo - x)[down] / p[down],
                                 initial=math.inf)))
        return t_max if c * t_max <= -a else -a / c


class Zero(Box):
    """The zero function: the clip to ``(-inf, inf)``, whose prox is the
    identity.  Its value is 0 also where ``Box``'s would be inf, at NaN,
    and its Clarke slope 1 also where a clip's would be 0, at +inf and NaN
    (``a >= b``)."""

    _slope = np.greater_equal

    def __init__(self):
        super().__init__(-np.inf, np.inf)

    def evaluate(self, x):
        return 0.0


class NonNeg(Box):
    """Indicator of the positive orthant."""

    def __init__(self):
        super().__init__(0.0, np.inf)

    def conjugate(self):
        return Box(-np.inf, 0.0)


class LinfBall(Box):
    """Indicator of ``{||x||_inf <= radius}``."""

    def __init__(self, radius):
        if not radius > 0:   # NaN fails
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)
        super().__init__(-self.radius, self.radius)

    def conjugate(self):
        return L1Norm(self.radius)


class Hinge(_Clip):
    """``h(x) = lam * sum_i max(0, x_i)`` (one-sided shrink)."""

    _shrink = True

    def __init__(self, lam=1.0):
        if not lam > 0:   # NaN fails
            raise ValueError("hinge weight must be positive")
        self.lam = float(lam)

    def evaluate(self, x):
        return self.lam * float(np.sum(np.maximum(np.asarray(x, dtype=float), 0.0)))

    def _bounds(self, d, kappa):
        return 0.0, kappa * self.lam / d

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
    if not radius >= 0:   # NaN fails
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
    if not radius > 0:   # NaN fails
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
        if not radius > 0:   # NaN fails
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

    def _jvp(self, z, p, d, kappa, M):
        return _active_set_jvp(p > 0, d, M)

    def conjugate(self):
        return MaxFunction(self.radius)


class L1Ball(ProxOperator):
    """Indicator of ``{||z||_1 <= radius}``."""

    def __init__(self, radius=1.0):
        if not radius > 0:   # NaN fails
            raise ValueError("ball radius must be positive")
        self.radius = float(radius)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        tol = _FEAS_TOL * (1.0 + self.radius)
        return 0.0 if float(np.sum(np.abs(x))) <= self.radius + tol else np.inf

    def _prox_diag(self, x, d, kappa):
        return project_l1_ball_weighted(x, d, self.radius)

    def _jvp(self, z, p, d, kappa, M):
        # strictly inside the ball: identity; else the signed Jacobian of
        # the weighted-simplex reduction at the projection's active set
        if float(np.sum(np.abs(z))) < self.radius * (1.0 - 1e-12):
            return M.copy()
        s = np.where(z >= 0, 1.0, -1.0)
        active = p != 0
        if not np.any(active):
            return np.zeros_like(M)
        return s[:, None] * _active_set_jvp(active, d, s[:, None] * M)

    def conjugate(self):
        return LinfNorm(self.radius)


# -- conjugate-route operators ------------------------------------------------


class _SupportFunction(ProxOperator):
    """``lam`` times the support function of the unit ``_set``: the prox
    ``x - q / d`` by the weighted Moreau identity, ``q`` the projection of
    ``d x`` onto ``_set(kappa lam)`` in ``diag(1/d)``, and its Clarke
    product ``M - J_q (d M) / d`` by the same identity.  The bound step
    keeps ``q`` and the projection's own binding for the product, which
    therefore does not project again."""

    def __init__(self, lam=1.0):
        if not lam >= 0:   # NaN fails
            raise ValueError("scaling must be non-negative")
        self.lam = float(lam)

    def _prox_diag(self, x, d, kappa):
        return self._bind(d, kappa)(x)[0]

    def _bind(self, d, kappa):
        radius = kappa * self.lam
        project = self._set(radius)._bind(1.0 / d, 1.0) if radius else None

        def step(z, out=None, tmp=None):
            if project is None:
                return np.array(z, copy=True), lambda w, out=None: w.copy()
            q, jac_q = project(d * z)

            def jac(w, out=None):
                dw = d if w.ndim == 1 else d[:, None]
                return w - jac_q(dw * w) / dw
            return z - q / d, jac
        return step

    def conjugate(self):
        return self._set(self.lam)


class LinfNorm(_SupportFunction):
    """``h(x) = lam * ||x||_inf``, prox through the l1-ball projector."""

    _set = L1Ball

    def evaluate(self, x):
        return self.lam * float(np.max(np.abs(x), initial=0.0))


class MaxFunction(_SupportFunction):
    """``h(x) = lam * max_i x_i``, prox through the simplex projector."""

    _set = Simplex

    def evaluate(self, x):
        return self.lam * float(np.max(x))


# -- block-separable ----------------------------------------------------------


class GroupL2(ProxOperator):
    """Group sparsity norm ``h(x) = lam * sum_b ||x_b||_2``.

    ``blocks`` must partition the coordinates ``0..n-1``; the diagonal
    weight vector must be constant within each block (block
    soft-thresholding has no closed form otherwise).  Only the block sums
    read ``z[_perm]``, the coordinates in block order; ``_perm`` is
    ``slice(None)`` when the blocks list ``0..n-1`` in order, which makes
    that gather a view.  The segment map ``_seg``, the block of each
    coordinate, expands a per-block factor in one gather ``v[_seg]``, so
    no pass scatters back.  The N x r Clarke-Jacobian product follows the
    layout of a column-major ``M`` (the metric's blocks) and gathers the
    block sums along the rows of their transpose, so each pass streams
    columns; a vector's product keeps its bits.
    """
    _scalar_bind = True

    def __init__(self, lam, blocks):
        if not lam > 0:   # NaN fails
            raise ValueError("group weight must be positive")
        self.lam = float(lam)
        self.blocks = [np.asarray(b, dtype=np.intp) for b in blocks]
        perm = np.concatenate(self.blocks)
        sizes = np.array([len(b) for b in self.blocks])
        if np.any(sizes == 0):
            raise ValueError("empty block")
        self.dim = perm.size
        in_order = np.arange(perm.size)
        if not np.array_equal(np.sort(perm), in_order):
            raise ValueError("blocks must partition the coordinates 0..n-1")
        self._starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self._firsts = perm[self._starts]   # first index of each block
        self._seg = np.repeat(np.arange(sizes.size), sizes)[np.argsort(perm)]
        self._perm = slice(None) if np.array_equal(perm, in_order) else perm

    def check_weights(self, d, n):
        """Also raises unless ``n == dim`` and ``d`` is constant per block."""
        if n != self.dim:
            raise ValueError(f"point has dimension {n}, expected {self.dim}")
        d = _check_weights(d, n)
        if np.any(np.abs(d - d[self._firsts][self._seg]) > 1e-12 * np.abs(d)):
            raise ValueError("diagonal weights must be constant within blocks")
        return d

    def _block_norms(self, z):
        zp = z[self._perm]
        norms = np.add.reduceat(zp * zp, self._starts)
        return np.sqrt(norms, out=norms), zp

    def evaluate(self, x):
        norms, _ = self._block_norms(np.asarray(x, dtype=float))
        return self.lam * float(norms.sum())

    def _prox_diag(self, x, d, kappa):
        return self._step(x, kappa * self.lam / d[self._firsts])[0]

    def _step(self, z, thresh, out=None):
        """The prox at ``z`` into ``out`` (or a new array) and its ``jac``
        (module docstring), for the blocks' thresholds or one for all."""
        norms, zp = self._block_norms(z)
        active = norms > thresh
        # 1 - thresh/norms on the active blocks, 0 elsewhere (at a zero,
        # inf or NaN norm and an infinite thresh too); dividing only there
        # needs no errstate context, whose cost shows at N = 100
        scale = np.divide(thresh, norms, out=np.zeros(norms.shape),
                          where=active)
        f = np.subtract(active, scale, out=scale)[self._seg]

        def jac(w, out=None):
            # the curvature thresh / norms^3 of the active blocks, times z
            g = np.divide(thresh, norms ** 3, out=np.zeros(norms.shape),
                          where=active)[self._seg]
            g *= z
            if w.ndim == 1:   # f w + g (block sums of zp w[perm])[seg]
                g *= np.add.reduceat(zp * w[self._perm],
                                     self._starts)[self._seg]
                jw = f * w
                jw += g
                return jw
            # the block sums expanded through the transpose: column-major
            zdotM = np.add.reduceat(zp[:, None] * w[self._perm], self._starts,
                                    axis=0).T.take(self._seg, axis=1).T
            np.multiply(g[:, None], zdotM, out=zdotM)
            jw = np.multiply(f[:, None], w, out=np.empty_like(w))
            jw += zdotM
            return jw
        return np.multiply(f, z, out=out), jac

    def _bind(self, d, kappa):
        thresh = np.asarray(   # 0-d for a scalar d, as in _Clip
            kappa * self.lam / (d[self._firsts] if np.ndim(d) else d))
        return lambda z, out=None, tmp=None: self._step(z, thresh, out)

    def _ray_min(self, x, p, a, c, cap):
        """The minimizer on ``[0, cap]`` of ``phi(t) = a t + c t^2 / 2 +
        lam sum_g ||x_g + t p_g||``.

        A block with ``p_g != 0`` contributes ``sqrt(gam (t - t0)^2 + delta)``,
        with ``gam = ||p_g||^2``, ``t0 = -<x_g, p_g> / gam`` and ``delta =
        ||x_g||^2 + <x_g, p_g> t0 >= 0``; it is smooth but at a zero of the
        block, a kink of ``phi'`` by ``2 lam sqrt(gam)``.  The prox zeroes a
        block at ``t = 1`` (``p_g = -x_g``: ``t0 = 1`` and ``delta = 0``
        exactly) and a zero block sits at ``t = 0``, so the search starts at
        ``t = 1`` and returns any point at which the one-sided values of
        ``phi'`` enclose 0.  Otherwise it takes Newton steps on ``phi'`` inside
        the bracket that the signs of ``phi'`` give, an end of ``[0,
        cap]`` where a step leaves the interval and the bracket's midpoint
        where it leaves a bracket.
        """
        xp, pp = x[self._perm], p[self._perm]
        gam = np.add.reduceat(pp * pp, self._starts)
        on = gam > 0
        gam = gam[on]
        beta = np.add.reduceat(xp * pp, self._starts)[on]
        t0 = beta / gam
        np.negative(t0, out=t0)
        delta = np.add.reduceat(xp * xp, self._starts)[on]
        delta += beta * t0
        np.maximum(delta, 0.0, out=delta)
        lam = self.lam
        lo, hi, t = 0.0, cap, 1.0
        open_lo = open_hi = True   # an end of [0, cap] not yet evaluated
        for _ in range(RAY_MAX_EVALS):
            u = t - t0
            gu = gam * u
            norm = gu * u
            norm += delta
            np.sqrt(norm, out=norm)
            zero = norm == 0
            jump = 0.0
            if zero.any():   # a block at its kink: phi' is taken on each side
                jump = lam * float(np.sqrt(gam[zero]).sum())
                norm[zero] = math.inf
            slope = gu / norm
            d = a + c * t + lam * float(slope.sum())
            if t > 0 and d - jump > 0:
                hi, d, open_hi = t, d - jump, False
            elif t < cap and d + jump < 0:
                lo, d, open_lo = t, d + jump, False
            else:
                return t
            slope *= slope   # the curvature of a block: (gam - slope^2) / norm
            np.subtract(gam, slope, out=slope)
            slope /= norm
            curvature = c + lam * float(slope.sum())
            # phi' flat here (A p = 0, every block moving straight to its
            # zero): no Newton step, the bracket's end on the root's side
            step = d / curvature if curvature > 0 else math.copysign(cap, d)
            t_next = t - step
            if abs(step) <= RAY_STEP_TOL and lo <= t_next <= hi:
                return t_next
            if t_next >= hi:
                t_next = hi if open_hi else 0.5 * (lo + hi)
            elif t_next <= lo:
                t_next = lo if open_lo else 0.5 * (lo + hi)
            t = t_next
        return t


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

    # scipy.linalg is imported where the operator factors and solves, so
    # that a process without an affine constraint never loads it
    def _factor(self, d):
        key = d.tobytes()
        if key not in self._cache:
            from scipy.linalg import cho_factor
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
        from scipy.linalg import cho_solve
        factor, AinvD = self._factor(d)
        return x + AinvD.T @ cho_solve(factor, self.b - self.A @ x)

    def _jvp(self, z, p, d, kappa, M):
        from scipy.linalg import cho_solve
        factor, AinvD = self._factor(d)
        return M - AinvD.T @ cho_solve(factor, self.A @ M)


"""Diagonal plus/minus low-rank symmetric positive definite metrics.

A metric is ``V = P + sign * U U^T`` with ``P`` diagonal and strictly
positive and ``U`` a thin factor matrix of rank ``r``.  All operations
(matrix-vector products, quadratic forms, Sherman-Morrison inversion)
work on the factored form in ``O(N * r)`` without ever assembling the
dense matrix.

``PlusMinusMetric`` is ``V = P + U1 U1^T - U2 U2^T``.  Besides its factors
it keeps ``W2 = (P + U1 U1^T)^{-1} U2``, which the scaled prox needs: with
``(U1, U2, W2)``, and ``(U, 0, 0)`` or ``(0, U, P^{-1} U)`` for a single-sign
metric, every metric gives the prox the same factored form.

The public constructors check everything.  The quasi-Newton constructions
and ``invert`` build metrics with a uniform diagonal ``c I`` through the
internal ``_trusted`` constructors, which take ``(dim, r)`` factor arrays
the caller owns and skip the copies, the reshaping and the N-vector scan
of the diagonal.  They keep the scalar test ``c > 0`` (which rejects NaN),
the drop rule, the Gram rank tests and the positive-definiteness tests, and
give the same bits: both constructors of a class end in the same
construction body, which computes with the Python float ``c`` where the
public one has the diagonal vector.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MetricError",
    "NotPositiveDefiniteError",
    "LowRankMetric",
    "PlusMinusMetric",
]

# Factors shorter than this are dropped (rank reduced), mirroring the
# update-skipping logic of the quasi-Newton constructions.
FACTOR_DROP_TOL = 1e-12


class MetricError(ValueError):
    """Invalid metric data (dimension mismatch, bad sign, rank deficiency)."""


class NotPositiveDefiniteError(MetricError):
    """The requested diagonal - low-rank matrix is not positive definite."""


def _as_vector(x, dim=None, name="x"):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise MetricError(f"{name} must be a 1-d vector, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise MetricError(f"{name} has dimension {x.shape[0]}, expected {dim}")
    return x


def _drop_factors(U):
    """The columns of ``U`` with norm at least ``FACTOR_DROP_TOL``."""
    if U.shape[1] == 1:   # ravel: the column, contiguous as in the loop below
        u = U.ravel()
        return U if math.sqrt(u.dot(u)) >= FACTOR_DROP_TOL else U[:, :0]
    keep = [j for j, u in enumerate(np.ascontiguousarray(U.T))
            if math.sqrt(u.dot(u)) >= FACTOR_DROP_TOL]
    return U if len(keep) == U.shape[1] else np.ascontiguousarray(U[:, keep])


def _rank_test(lo, hi):   # lo <= hi: the extreme Gram eigenvalues
    if lo <= FACTOR_DROP_TOL * max(hi, 1.0):
        raise MetricError("factor vectors are (nearly) linearly dependent")


def _col(p):   # a diagonal as a column, or the c of c I as it is
    return p[:, None] if isinstance(p, np.ndarray) else p


def _gram(U, p):
    """``(G, hi)``: the symmetrized Gram ``G = U^T P^{-1} U`` after the rank
    test and its largest eigenvalue, ``p`` being the diagonal of ``P`` or
    the ``c`` of ``c I`` (the same bits); a rank-1 ``hi`` is a Python float
    with the 1x1 product's bits."""
    r = U.shape[1]
    if r == 0:
        return np.zeros((0, 0)), 0.0
    if r == 1:
        u = U.ravel()
        g = float(u.dot(u / p))
        lo = hi = 0.5 * (g + g)
        G = np.array([[hi]])
    else:
        G = U.T @ (U / _col(p))
        G = 0.5 * (G + G.T)
        lo, hi = map(float, np.linalg.eigvalsh(G)[[0, -1]])
    _rank_test(lo, hi)
    return G, hi


def _inverse_factor(U, p_inv, sign, G):
    """``P^{-1} U C^{-1/2}``, ``C = I + sign G`` with ``G = U^T P^{-1} U``,
    where ``p_inv`` is ``1/diag`` or the scalar ``1/c``."""
    r = U.shape[1]
    if r <= 1:
        # C > 0 by the Gram test; the power of the 1-element array gives
        # eigh's factor bit for bit, a Python float power does not
        return U if r == 0 else \
            U * _col(p_inv) * (np.array([1.0 + sign * G[0, 0]]) ** -0.5)[0]
    C = np.eye(r) + sign * G
    # C is SPD: for sign +, C >= I; for sign -, PD by the metric invariant.
    ew, EV = np.linalg.eigh(0.5 * (C + C.T))
    if ew[0] <= 0:
        raise NotPositiveDefiniteError(
            "capacitance matrix not positive definite")
    return (U * _col(p_inv)) @ (EV @ np.diag(ew ** -0.5) @ EV.T)


def _minus_pd_test(g):   # g = ||P^-1/2 U||^2 of P - U U^T
    if g >= 1.0:
        raise NotPositiveDefiniteError(
            "diag - low-rank matrix is not positive definite: "
            f"||P^-1/2 U||^2 = {g:.6g} >= 1"
        )


def _positive_scalar(c):   # c of c I; NaN fails
    if not c > 0:
        raise NotPositiveDefiniteError(
            f"diagonal value must be strictly positive, got {c!r}")


def _uniform_diag(c, dim):
    """The read-only diagonal of ``c I`` after the scalar test."""
    _positive_scalar(c)
    diag = np.full(dim, c)
    diag.setflags(write=False)
    return diag


def _checked_diag(diag):
    """A read-only copy of a non-empty, strictly positive diagonal."""
    diag = _as_vector(diag, name="diag").copy()
    if diag.size == 0:
        raise MetricError("empty metric")
    if not np.all(diag > 0):
        raise NotPositiveDefiniteError("diagonal entries must be strictly positive")
    diag.setflags(write=False)
    return diag


def _clean_factors(factors, dim):
    """Drop near-zero factors and return a read-only (dim, r) matrix."""
    cols = [_as_vector(u, dim, name=f"factor {i}")
            for i, u in enumerate(factors)]
    U = _drop_factors(np.column_stack(cols)) if cols else np.zeros((dim, 0))
    U.setflags(write=False)
    return U


class LowRankMetric:
    """SPD metric ``V = diag(d) + sign * U U^T``.

    Parameters
    ----------
    diag : array, shape (dim,)
        Strictly positive diagonal of the base matrix ``P``.
    factors : sequence of arrays, each shape (dim,), optional
        Columns ``u_1 .. u_r`` of the low-rank factor ``U``.  Factors with
        norm below ``FACTOR_DROP_TOL`` are dropped.
    sign : {+1, -1}
        Sign applied to the low-rank part ``Q = U U^T``.

    Raises
    ------
    NotPositiveDefiniteError
        If ``sign == -1`` and ``P - U U^T`` is not positive definite
        (checked through the r-by-r Gram test ``I - U^T P^{-1} U > 0``).
    MetricError
        On dimension mismatches, non-positive diagonal, or linearly
        dependent factors.
    """

    # the value c of a uniform diagonal c I built by _trusted, else None
    _c = None

    def __init__(self, diag, factors=(), sign=+1):
        self.diag = diag = _checked_diag(diag)
        if sign not in (+1, -1):
            raise MetricError(f"sign must be +1 or -1, got {sign!r}")
        self.dim = diag.shape[0]
        self.sign = int(sign)
        U = _clean_factors(factors, self.dim)
        if U.shape[1] > self.dim:
            raise MetricError(f"rank {U.shape[1]} exceeds dimension {self.dim}")
        self._U = U
        self._validate_factors()

    @classmethod
    def _trusted(cls, c, U, sign=+1):
        """``c I + sign U U^T`` from a ``(dim, r)`` factor array the caller
        owns; see the module docstring for the checks it keeps."""
        m = cls.__new__(cls)
        m.dim, m.diag = U.shape[0], _uniform_diag(c, U.shape[0])
        m.sign, m._c = sign, c
        m._U = _drop_factors(U)
        m._validate_factors()
        return m

    # -- construction-time checks -------------------------------------

    def _validate_factors(self):
        self._gram, self._gram_norm_sq = _gram(
            self._U, self.diag if self._c is None else self._c)
        if self.sign < 0:
            _minus_pd_test(self._gram_norm_sq)

    # -- basic queries --------------------------------------------------

    @property
    def rank(self):
        """Rank of the low-rank modification."""
        return self._U.shape[1]

    @property
    def factors(self):
        """List of factor vectors (columns of U)."""
        return [self._U[:, i] for i in range(self._U.shape[1])]

    @property
    def factor_matrix(self):
        """The (dim, r) factor matrix U."""
        return self._U

    def gram_norm_sq(self):
        """``||P^{-1/2} U||^2``, the largest eigenvalue of the Gram matrix."""
        return self._gram_norm_sq

    # -- linear algebra --------------------------------------------------

    def apply(self, x):
        """Matrix-vector product ``V x`` in O(N r)."""
        x = _as_vector(x, self.dim)
        y = (self.diag if self._c is None else self._c) * x
        if self.rank:
            y = y + self.sign * (self._U @ (self._U.T @ x))
        return y

    def norm_sq(self, x):
        """Quadratic form ``<x, V x>`` (non-negative, zero iff x = 0)."""
        x = _as_vector(x, self.dim)
        val = float(np.dot(x, (self.diag if self._c is None else self._c) * x))
        if self.rank:
            w = self._U.T @ x
            val += self.sign * float(np.dot(w, w))
        return val

    def invert(self):
        """Factored inverse via the Sherman-Morrison-Woodbury identity.

        ``V^{-1} = P^{-1} - sign * W W^T`` with
        ``W = P^{-1} U (I_r + sign U^T P^{-1} U)^{-1/2}``; the sign of the
        low-rank part flips.  For r = 1 this reduces to
        ``v = P^{-1} u / sqrt(1 +- u^T P^{-1} u)``.
        """
        sign = -self.sign if self.rank else +1
        # a trusted c I needs no 1/diag vector
        p_inv = 1.0 / (self.diag if self._c is None else self._c)
        V = _inverse_factor(self._U, p_inv, self.sign, self._gram)
        if self._c is None:
            return LowRankMetric(p_inv, V.T, sign)
        return LowRankMetric._trusted(p_inv, V, sign)

    def __repr__(self):
        s = "+" if self.sign > 0 else "-"
        return f"{type(self).__name__}(dim={self.dim}, rank={self.rank}, sign={s})"


def _outer_pd_test(M):   # M = U2^T W2: P + Q1 - Q2 > 0 iff I - M > 0
    r = M.shape[0]
    lo = 1.0 - M[0, 0] if r == 1 else \
        np.linalg.eigvalsh(np.eye(r) - 0.5 * (M + M.T))[0]
    if lo <= 0:
        raise NotPositiveDefiniteError(
            "diag + Q1 - Q2 is not positive definite "
            f"(outer Gram eigenvalue {lo:.3g} <= 0)"
        )


class PlusMinusMetric:
    """SPD metric ``V = diag(d) + U1 U1^T - U2 U2^T``.

    This is the structure of the zero-memory BFGS inverse Hessian and its
    companion Hessian.  Positive definiteness is checked through the outer
    Gram test on ``P1 - Q2`` with ``P1 = P + Q1``.
    """

    _c = None   # as on LowRankMetric

    def __init__(self, diag, plus_factors=(), minus_factors=()):
        self.diag = diag = _checked_diag(diag)
        self.dim = diag.shape[0]
        self._U1 = _clean_factors(plus_factors, self.dim)
        self._U2 = _clean_factors(minus_factors, self.dim)
        self._build()

    @classmethod
    def _trusted(cls, c, U1, U2):
        """``c I + U1 U1^T - U2 U2^T`` from ``(dim, r)`` factor arrays the
        caller owns; see the module docstring for the checks it keeps."""
        m = cls.__new__(cls)
        m.dim = U1.shape[0]
        m.diag, m._c = _uniform_diag(c, m.dim), c
        m._U1, m._U2 = _drop_factors(U1), _drop_factors(U2)
        m._build()
        return m

    def _build(self):
        """The construction body of both constructors: the rank test of
        ``U1``, then ``W2 = (P + Q1)^{-1} U2`` column by column from the
        inverse ``P^{-1} - V V^T`` of ``P + Q1`` (with the checks ``invert``
        makes on it: ``1/P > 0``, the drop rule, the rank and
        positive-definiteness tests of ``V``), and the outer Gram test on
        ``P + Q1 - Q2``."""
        U1, U2 = self._U1, self._U2
        p = self.diag if self._c is None else self._c
        G1, _ = _gram(U1, p)
        self._W2 = W2 = np.empty(U2.shape)
        if not U2.shape[1]:
            return
        p_inv = 1.0 / p
        _positive_scalar(float(p_inv.min()) if self._c is None else p_inv)
        V = _drop_factors(_inverse_factor(U1, p_inv, +1, G1))
        _minus_pd_test(_gram(V, p_inv)[1])
        for j, u in enumerate(U2.T):
            W2[:, j] = p_inv * u - V @ (V.T @ u)
        W2.setflags(write=False)
        _outer_pd_test(U2.T @ W2)

    @property
    def plus_factors(self):
        return [self._U1[:, i] for i in range(self._U1.shape[1])]

    @property
    def minus_factors(self):
        return [self._U2[:, i] for i in range(self._U2.shape[1])]

    @property
    def factor_matrices(self):
        """The (dim, r1) plus and (dim, r2) minus factor matrices."""
        return self._U1, self._U2

    @property
    def p1_inv_minus(self):
        """``(P + Q1)^{-1} U2``, kept from the positive-definiteness test."""
        return self._W2

    @property
    def ranks(self):
        return (self._U1.shape[1], self._U2.shape[1])

    def apply(self, x):
        x = _as_vector(x, self.dim)
        y = (self.diag if self._c is None else self._c) * x
        if self._U1.shape[1]:
            y = y + self._U1 @ (self._U1.T @ x)
        if self._U2.shape[1]:
            y = y - self._U2 @ (self._U2.T @ x)
        return y

    def norm_sq(self, x):
        return float(np.dot(_as_vector(x, self.dim), self.apply(x)))

    def to_single_sign(self):
        """Collapse to a :class:`LowRankMetric` when one side is empty."""
        if self._U2.shape[1] == 0:
            return LowRankMetric(self.diag, self.plus_factors, +1)
        if self._U1.shape[1] == 0:
            return LowRankMetric(self.diag, self.minus_factors, -1)
        return None

    def __repr__(self):
        return (f"PlusMinusMetric(dim={self.dim}, "
                f"ranks=+{self._U1.shape[1]}/-{self._U2.shape[1]})")


"""Diagonal plus/minus low-rank symmetric positive definite metrics.

Every metric is ``V = P + U1 U1^T - U2 U2^T`` with ``P`` diagonal and
strictly positive and thin factor matrices ``U1`` (the plus side) and
``U2`` (the minus side), either of which may be empty.  One factored form
holds it, formed once at construction and read through the attributes
``diag`` (``P``), ``c`` (the scalar of a trusted ``c I``, else None), the
factor block ``U = [U1 U2]``, the block ``W = [W1 W2]`` of the shift
directions ``W1 = P^{-1} U1`` and ``W2 = (P + U1 U1^T)^{-1} U2`` that the
scaled prox reads, the plus side's width ``r1``, and the float
``gram_norm_sq = ||P^{-1/2} U||^2``, the top eigenvalue of the Gram
``U^T W`` of a single side (the plus side of two; 0 at rank 0).
A single-sign metric's ``W`` is the division ``U / P``; with both sides
present ``W2`` comes from the inverse of ``P + U1 U1^T``.  Products,
quadratic forms and the Sherman-Morrison inverse work on the factored
form in ``O(N * r)`` without ever assembling the dense matrix.

Both blocks are column-major ``(dim, r)`` arrays, and ``U1``, ``U2``,
``W1`` and ``W2`` are column views of them.  The scaled prox sweeps down
factor columns (``W`` times a vector, ``J W``, and ``U^T`` as a row-major
``r x N`` operand), which column-major order keeps contiguous, and its
joint Newton reads the blocks without a copy.  An ``(N, 1)`` factor is C-
and F-contiguous at once, so a rank-1 side keeps the bits of a lone one.

Two public constructors build it and check everything:
:class:`LowRankMetric` ``(diag, factors, sign)`` for ``P + sign U U^T`` and
:class:`PlusMinusMetric` ``(diag, plus_factors, minus_factors)``, the
zero-memory BFGS shape.  The quasi-Newton constructions and ``invert``
build metrics with a uniform diagonal ``c I`` through the internal
``_trusted`` constructor, which takes the factors of either signature as
``(dim, r)`` arrays the caller owns and skips the coercion, the reshaping
and the N-vector scan of the diagonal, which it forms only when read.  It
keeps the scalar test ``c > 0`` (which rejects NaN), the drop rule, the
Gram rank tests and the positive-definiteness tests, and gives the same
bits: every constructor ends in the one construction body, which computes
with the Python float ``c`` where a public one has the diagonal vector.
``invert`` serves single-sign metrics, as 0SR1's ``B = H^{-1}`` needs.
The internal ``_proven`` constructor stores a ``c I`` factored form as
its caller proves it, with no check: ``zbfgs_metric`` wraps there the
factors that ``quasi_newton`` forms with ``_build``'s operations, and
``sr1_metric`` is ``_trusted`` on its builder's ``H``, whose ``invert``
returns the builder's ``B`` through ``_proven``.  The solvers'
one step, ``solver.fb_step``, builds no metric: it reads the builders'
factors and forms ``H g`` with ``_apply``, the body of
:meth:`_FactoredMetric.apply`.
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


def _drop_block(U, r1=0):
    """``(U, r1)`` for the block ``U`` with the plus side ``U[:, :r1]``,
    column-major and without its columns of norm under
    ``FACTOR_DROP_TOL``, each norm taken over its contiguous column."""
    U = np.asfortranarray(U)
    keep = [j for j in range(U.shape[1])
            if math.sqrt((u := U[:, j]).dot(u)) >= FACTOR_DROP_TOL]
    return (U, r1) if len(keep) == U.shape[1] else \
        (U.T[keep].T, sum(j < r1 for j in keep))


def _rank_test(lo, hi):   # lo <= hi: the extreme Gram eigenvalues
    if lo <= FACTOR_DROP_TOL * max(hi, 1.0):
        raise MetricError("factor vectors are (nearly) linearly dependent")


def _col(p):   # a diagonal as a column, or the c of c I as it is
    return p[:, None] if isinstance(p, np.ndarray) else p


def _gram(U, W):
    """``(G, hi)``: the symmetrized Gram ``G = U^T W`` of ``W = P^{-1} U``
    after the rank test and its largest eigenvalue; a rank-1 ``hi`` is a
    Python float with the 1x1 product's bits."""
    r = U.shape[1]
    if r == 0:
        return np.zeros((0, 0)), 0.0
    if r == 1:
        g = float(U.ravel().dot(W.ravel()))
        lo = hi = 0.5 * (g + g)
        G = np.array([[hi]])
    else:
        G = U.T @ W
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


def _outer_pd_test(M):   # M = U2^T W2: P + Q1 - Q2 > 0 iff I - M > 0
    lo = np.linalg.eigvalsh(np.eye(M.shape[0]) - 0.5 * (M + M.T))[0]
    if lo <= 0:
        raise NotPositiveDefiniteError(
            "diag + Q1 - Q2 is not positive definite "
            f"(outer Gram eigenvalue {lo:.3g} <= 0)"
        )


def _apply(p, U1, U2, x):
    """``(P + U1 U1^T - U2 U2^T) x`` for a checked ``x``, ``p`` the diagonal
    vector or the ``c`` of ``c I``: :meth:`_FactoredMetric.apply`'s bits."""
    y = p * x
    if U1.shape[1]:
        y = y + U1.dot(U1.T.dot(x))
    if U2.shape[1]:
        y = y - U2.dot(U2.T.dot(x))
    return y


def _positive_scalar(c):   # c of c I; NaN fails
    if not c > 0:
        raise NotPositiveDefiniteError(
            f"diagonal value must be strictly positive, got {c!r}")


def _checked_diag(diag):
    """A read-only copy of a non-empty, strictly positive diagonal."""
    diag = _as_vector(diag, name="diag").copy()
    if diag.size == 0:
        raise MetricError("empty metric")
    if not np.all(diag > 0):
        raise NotPositiveDefiniteError("diagonal entries must be strictly positive")
    diag.setflags(write=False)
    return diag


def _clean_factors(factors, dim, r1=0):
    """``_drop_block`` of the factor vectors, the first ``r1`` of them the
    plus side, with a read-only (dim, r) block."""
    cols = [_as_vector(u, dim, name=f"factor {i}")
            for i, u in enumerate(factors)]
    U, r1 = _drop_block(np.column_stack(cols), r1) if cols else \
        (np.zeros((dim, 0)), 0)
    U.setflags(write=False)
    return U, r1


class _FactoredMetric:
    """SPD metric ``V = P + U1 U1^T - U2 U2^T`` in the factored form of the
    module docstring, built by :class:`LowRankMetric` or
    :class:`PlusMinusMetric`; ``_split`` maps the factors of a
    constructor's signature to the block ``U`` and the plus width ``r1``."""

    _inverse = None   # the inverse a builder formed, which invert returns

    @classmethod
    def _trusted(cls, c, *factors):
        """``c I`` with the ``(dim, r)`` factor arrays of ``cls``'s
        signature, which the caller owns; see the module docstring for the
        checks it keeps."""
        _positive_scalar(c)
        m = cls.__new__(cls)
        m._build(c, None, *_drop_block(*cls._split(*factors)))
        return m

    @classmethod
    def _proven(cls, c, U, r1, W=None, gram_norm_sq=None, gram=None):
        """``c I`` with the column-major block ``U`` of plus side
        ``U[:, :r1]``, stored exactly as the caller proves it, with no
        check and no copy.  A caller that passes the block ``W`` and
        ``gram_norm_sq`` as ``_build`` would form them has a complete
        metric; with a single side and its Gram ``U^T W`` as ``gram`` it
        can ``invert``, with both sides it cannot.  One that passes none
        of them has a product-only operator, which serves ``apply``,
        ``norm_sq``, ``diag`` and the factors, but no prox and no
        ``invert``."""
        m = cls.__new__(cls)
        m.dim, m._diag, m.c = U.shape[0], None, c
        m.U, m.r1, m.W = U, r1, W
        m._gram, m.gram_norm_sq = gram, gram_norm_sq
        return m

    def _build(self, c, diag, U, r1):
        """The construction body of every constructor.  A single side gets
        ``W = U / P`` and the Gram rank test, a minus side alone also the
        test ``||P^{-1/2} U2||^2 < 1``.  With both sides, ``W2`` is formed
        column by column from the inverse ``P^{-1} - V V^T`` of
        ``P + Q1`` (with the checks ``invert`` makes on it: ``1/P > 0``,
        the drop rule, the rank and positive-definiteness tests of ``V``),
        followed by the outer Gram test on ``P + Q1 - Q2``.  A trusted
        ``c I`` has ``diag=None``; see :attr:`diag`.  ``U`` is the block
        of plus side ``U[:, :r1]``, and ``W`` is formed as one."""
        self.dim, self._diag, self.c = U.shape[0], diag, c
        self.U, self.r1 = U, r1
        p = diag if c is None else c
        if r1 in (0, U.shape[1]):   # c I, P + Q1 or P - Q2
            self.W = U / _col(p)
            self._gram, self.gram_norm_sq = _gram(U, self.W)
            if not r1 and U.shape[1]:
                _minus_pd_test(self.gram_norm_sq)
            return
        self.W = W = np.empty_like(U)
        U1, W1, U2, W2 = U[:, :r1], W[:, :r1], U[:, r1:], W[:, r1:]
        self._gram, self.gram_norm_sq = _gram(U1, np.divide(U1, _col(p),
                                                            out=W1))
        p_inv = 1.0 / p
        _positive_scalar(float(p_inv.min()) if c is None else p_inv)
        V = _drop_block(_inverse_factor(U1, p_inv, +1, self._gram))[0]
        _minus_pd_test(_gram(V, V / _col(p_inv))[1])
        for j, u in enumerate(U2.T):
            W2[:, j] = p_inv * u - V.dot(V.T.dot(u))
        _outer_pd_test(U2.T @ W2)

    # -- views -----------------------------------------------------------

    # the sides, column views of the blocks (None for a product-only W)
    U1 = property(lambda self: self.U[:, :self.r1])
    U2 = property(lambda self: self.U[:, self.r1:])
    W1 = property(lambda self: None if self.W is None else self.W[:, :self.r1])
    W2 = property(lambda self: None if self.W is None else self.W[:, self.r1:])

    @property
    def diag(self):
        """The read-only diagonal of ``P``; a trusted ``c I`` forms it at
        the first use."""
        if self._diag is None:
            self._diag = np.full(self.dim, self.c)
            self._diag.setflags(write=False)
        return self._diag

    @property
    def ranks(self):
        """The ranks ``(r1, r2)`` of the plus and the minus side."""
        return (self.r1, self.U.shape[1] - self.r1)

    @property
    def rank(self):
        """Rank of the low-rank modification, both sides together."""
        return self.U.shape[1]

    @property
    def sign(self):
        """The sign of a single-sign metric's low-rank part (+1 at rank
        0); a metric with both sides has none."""
        if 0 < self.r1 < self.U.shape[1]:
            raise MetricError("a metric with a plus and a minus side has "
                              "no single sign")
        return -1 if self.U.shape[1] > self.r1 else +1

    @property
    def factor_matrix(self):
        """The (dim, r) factor matrix U of a single-sign metric."""
        return self.U2 if self.sign < 0 else self.U1

    # -- linear algebra --------------------------------------------------

    def apply(self, x):
        """Matrix-vector product ``V x`` in O(N r)."""
        return _apply(self.diag if self.c is None else self.c, self.U1,
                      self.U2, _as_vector(x, self.dim))

    def norm_sq(self, x):
        """Quadratic form ``<x, V x>`` (non-negative, zero iff x = 0)."""
        x = _as_vector(x, self.dim)
        w1, w2 = self.U1.T @ x, self.U2.T @ x
        return float(np.dot(x, (self.diag if self.c is None else self.c)
                            * x)) + float(w1.dot(w1)) - float(w2.dot(w2))

    def invert(self):
        """Factored inverse of a single-sign metric via the
        Sherman-Morrison-Woodbury identity.

        ``V^{-1} = P^{-1} - sign * W W^T`` with
        ``W = P^{-1} U (I_r + sign U^T P^{-1} U)^{-1/2}``; the sign of the
        low-rank part flips.  For r = 1 this reduces to
        ``v = P^{-1} u / sqrt(1 +- u^T P^{-1} u)``.  A metric whose builder
        formed that inverse already (``sr1_metric``) returns it.
        """
        if self._inverse is not None:
            return self._inverse
        sign = self.sign
        # a trusted c I needs no 1/diag vector
        p_inv = 1.0 / (self.diag if self.c is None else self.c)
        V = _inverse_factor(self.factor_matrix, p_inv, sign, self._gram)
        if self.c is None:
            return LowRankMetric(p_inv, V.T, -sign)
        return LowRankMetric._trusted(p_inv, V, -sign)

    def __repr__(self):
        return (f"{type(self).__name__}(dim={self.dim}, "
                f"ranks=+{self.U1.shape[1]}/-{self.U2.shape[1]})")


class LowRankMetric(_FactoredMetric):
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

    def __init__(self, diag, factors=(), sign=+1):
        diag = _checked_diag(diag)
        if sign not in (+1, -1):
            raise MetricError(f"sign must be +1 or -1, got {sign!r}")
        U, _ = _clean_factors(factors, diag.shape[0])
        if U.shape[1] > diag.shape[0]:
            raise MetricError(
                f"rank {U.shape[1]} exceeds dimension {diag.shape[0]}")
        self._build(None, diag, *self._split(U, sign))

    @staticmethod
    def _split(U, sign=+1):
        return U, (U.shape[1] if sign > 0 else 0)


class PlusMinusMetric(_FactoredMetric):
    """SPD metric ``V = diag(d) + U1 U1^T - U2 U2^T``.

    This is the structure of the zero-memory BFGS inverse Hessian and its
    companion Hessian.  Positive definiteness is checked through the outer
    Gram test on ``P1 - Q2`` with ``P1 = P + Q1``.
    """

    def __init__(self, diag, plus_factors=(), minus_factors=()):
        diag = _checked_diag(diag)
        plus = list(plus_factors)
        self._build(None, diag, *_clean_factors(
            plus + list(minus_factors), diag.shape[0], len(plus)))

    @staticmethod
    def _split(U1, U2):
        return np.hstack((U1, U2)), U1.shape[1]

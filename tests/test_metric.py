import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxqn.metric import (
    FACTOR_DROP_TOL,
    LowRankMetric,
    MetricError,
    NotPositiveDefiniteError,
    PlusMinusMetric,
    _drop_block,
    _outer_pd_test,
)
from proxqn.prox import L1Norm
from proxqn.quasi_newton import QNPair, sr1_metric, zbfgs_metric
from proxqn.scaled import RootProblem
from proxqn.validate import dense_metric


def test_apply_identity_plus_e1():
    m = LowRankMetric(np.ones(2), [np.array([1.0, 0.0])], +1)
    np.testing.assert_allclose(m.apply([1.0, 1.0]), [2.0, 1.0])


def test_apply_diagonal_rank0():
    m = LowRankMetric([2.0, 3.0])
    np.testing.assert_allclose(m.apply([1.0, 1.0]), [2.0, 3.0])


def test_factored_form_attributes(rng):
    # the factored form the scaled prox reads: W1 = P^-1 U1,
    # W2 = (P + U1 U1^T)^-1 U2, gram_norm_sq as a float, c the scalar of a
    # trusted c I and None for a diagonal vector
    n = 6
    d = rng.uniform(0.5, 2.0, n)
    u1, u2 = rng.standard_normal((2, n))
    u2 *= np.sqrt(0.5 / np.dot(u2, u2 / d))
    both = PlusMinusMetric(d, [u1], [u2])
    assert both.c is None
    np.testing.assert_allclose(both.W1[:, 0], u1 / d, rtol=1e-15)
    np.testing.assert_allclose(
        both.W2[:, 0], np.linalg.solve(np.diag(d) + np.outer(u1, u1), u2),
        rtol=1e-12)
    assert type(both.gram_norm_sq) is float
    assert both.gram_norm_sq == pytest.approx(np.dot(u1, u1 / d))
    minus = LowRankMetric(d, [u2], -1)
    assert minus.U1.shape == minus.W1.shape == (n, 0)
    np.testing.assert_allclose(minus.W2[:, 0], u2 / d, rtol=1e-15)
    assert minus.gram_norm_sq == pytest.approx(0.5)
    trusted = LowRankMetric._trusted(0.7, u1.reshape(n, 1), +1)
    assert trusted.c == 0.7 and trusted.W2.shape == (n, 0)
    assert LowRankMetric(d).gram_norm_sq == 0.0


def test_apply_matches_dense(rng):
    for sign in (+1, -1):
        d = rng.uniform(0.5, 2.0, 5)
        u = rng.standard_normal(5) * 0.4
        m = LowRankMetric(d, [u], sign)
        V = dense_metric(m)
        x = rng.standard_normal(5)
        np.testing.assert_allclose(m.apply(x), V @ x, atol=1e-12)


def _signed_zeros(rng, a):
    """``a`` with about a third of its entries set to 0.0 or -0.0."""
    hit = rng.random(a.shape) < 0.3
    a[hit] = np.where(rng.random(a.shape) < 0.5, 0.0, -0.0)[hit]
    return a


def test_thin_factor_products_keep_the_bits_of_matmul(rng):
    # apply, the two-sided W2 column and RootProblem.shifted_point form
    # their thin products with np.dot, without matmul's loop over an inner
    # dimension of 1: the same bits, signed zeros included, for public and
    # trusted metrics of every shape from dimension 2 (at dimension 1
    # matmul sums a lone product from +0.0 and so drops the sign of a
    # -0.0 product, which np.dot keeps)
    checked = 0
    for k in range(400):
        n = int(rng.integers(2, 120))
        r1, r2 = int(rng.integers(0, 3)), int(rng.integers(0, 3))
        c = float(np.exp(rng.uniform(-2.0, 2.0)))
        p = c if k % 2 else rng.uniform(0.5, 2.0, n)
        U1 = _signed_zeros(rng, rng.standard_normal((n, r1)))
        U2 = _signed_zeros(rng, rng.standard_normal((n, r2)))
        if r2:   # the largest Gram eigenvalue of U2 in P becomes 0.5
            g = np.linalg.eigvalsh(U2.T @ (U2 / np.reshape(p, (-1, 1))))[-1]
            if not g > 1e-3:
                continue
            U2 *= np.sqrt(0.5 / g)
        try:
            if k % 2:
                metric = PlusMinusMetric._trusted(c, U1, U2)
                plus = LowRankMetric._trusted(c, U1, +1)
            else:
                metric = PlusMinusMetric(p, U1.T, U2.T)
                plus = LowRankMetric(p, U1.T, +1)
        except MetricError:   # a dropped or nearly dependent column
            continue
        x = _signed_zeros(rng, rng.standard_normal(n))
        metrics = [metric, plus, LowRankMetric(plus.diag, metric.U2.T, -1)]
        if metric.ranks[0] and metric.ranks[1]:   # W2 from P^-1 - V V^T
            V = plus.invert().factor_matrix
            p_inv = 1.0 / p
            want = np.column_stack([p_inv * u - V @ (V.T @ u)
                                    for u in metric.U2.T])
            assert metric.W2.tobytes() == want.tobytes()
            metrics.append(plus.invert())
            checked += 1
        for m in metrics:
            y = (m.diag if m.c is None else m.c) * x
            if m.U1.shape[1]:
                y = y + m.U1 @ (m.U1.T @ x)
            if m.U2.shape[1]:
                y = y - m.U2 @ (m.U2.T @ x)
            assert m.apply(x).tobytes() == y.tobytes()
            if m.rank and not all(m.ranks):   # a single-sign metric
                problem = RootProblem(m, L1Norm(0.5), x)
                for alpha in (np.full(m.rank, -0.0),
                              rng.standard_normal(m.rank),
                              _signed_zeros(rng, rng.standard_normal(m.rank))):
                    want = x - problem.sign * (problem._shift_dirs
                                               @ np.atleast_1d(alpha))
                    got = problem.shifted_point(alpha)
                    assert got.tobytes() == want.tobytes()
    assert checked >= 50


def test_apply_dimension_mismatch():
    m = LowRankMetric([1.0, 2.0])
    with pytest.raises(MetricError):
        m.apply(np.ones(3))


def test_invert_rank1():
    m = LowRankMetric(np.ones(2), [np.array([1.0, 0.0])], +1)
    inv = m.invert()
    assert isinstance(inv, LowRankMetric)
    assert inv.sign == -1
    np.testing.assert_allclose(inv.diag, [1.0, 1.0])
    np.testing.assert_allclose(np.abs(inv.factor_matrix[:, 0]),
                               [1.0 / np.sqrt(2.0), 0.0], atol=1e-15)
    np.testing.assert_allclose(dense_metric(m) @ dense_metric(inv), np.eye(2),
                               atol=1e-12)


def test_invert_rank1_matches_eigh_formula_bitwise(rng):
    # the rank-1 inverse skips the 1x1 eigen-decomposition; its factor
    # must be the same numbers as the eigh formula's, for a public metric
    # and for a trusted c I + sign u u^T, which inverts with the scalar 1/c
    # and must also give the public metric's inverse
    for _ in range(300):
        n = int(rng.integers(1, 200))
        c = float(np.exp(rng.uniform(-3.0, 3.0)))
        d = np.exp(rng.uniform(-3.0, 3.0, n))
        u = rng.standard_normal(n) * np.exp(rng.uniform(-4.0, 4.0))
        sign = +1 if rng.random() < 0.5 else -1
        if sign < 0:
            u *= np.sqrt(rng.uniform(1e-3, 0.999)
                         / max(np.dot(u, u / d), np.dot(u, u / c)))
        uniform = LowRankMetric(np.full(n, c), [u], sign)
        for m, diag in ((LowRankMetric(d, [u], sign), d),
                        (LowRankMetric._trusted(c, u.reshape(n, 1), sign),
                         np.full(n, c))):
            U = m.factor_matrix
            G = U.T @ (U / diag[:, None])
            C = np.eye(1) + sign * 0.5 * (G + G.T)
            ew, EV = np.linalg.eigh(0.5 * (C + C.T))
            W = (U * (1.0 / diag)[:, None]) @ (EV @ np.diag(ew ** -0.5) @ EV.T)
            inv = m.invert()
            assert inv.sign == -sign
            assert np.array_equal(inv.factor_matrix, W)
            assert m.gram_norm_sq == np.linalg.eigvalsh(0.5 * (G + G.T))[-1]
        public_inv = uniform.invert()
        assert np.array_equal(inv.factor_matrix, public_inv.factor_matrix)
        assert np.array_equal(inv.diag, public_inv.diag)
        assert inv.gram_norm_sq == public_inv.gram_norm_sq


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
       rank=st.sampled_from([1, 2]), sign=st.sampled_from([+1, -1]),
       gram=st.floats(0.01, 0.95))
def test_invert_is_an_involution(seed, n, rank, sign, gram):
    # the inverse undoes the metric, and inverting twice gives it back
    rng = np.random.default_rng(seed)
    d = np.exp(rng.uniform(-2.0, 2.0, n))
    U = rng.standard_normal((n, rank))
    # scale so that the largest eigenvalue of the Gram U^T P^-1 U is `gram`
    U *= np.sqrt(gram / np.linalg.eigvalsh(U.T @ (U / d[:, None]))[-1])
    try:
        m = LowRankMetric(d, U.T, sign)
    except MetricError:   # nearly dependent columns
        return
    inv = m.invert()
    assert inv.sign == -sign
    x = rng.standard_normal(n)
    scale = 1.0 + np.max(np.abs(x))
    assert np.max(np.abs(inv.apply(m.apply(x)) - x)) <= 1e-9 * scale
    assert np.max(np.abs(m.apply(inv.apply(x)) - x)) <= 1e-9 * scale
    back = inv.invert()
    assert back.sign == sign
    np.testing.assert_allclose(back.diag, m.diag, rtol=1e-14)
    np.testing.assert_allclose(back.factor_matrix, m.factor_matrix,
                               rtol=1e-9, atol=1e-12 * np.max(np.abs(U)))


def test_trusted_metrics_match_public_bitwise(rng):
    # a trusted c I + sign U U^T computes with the scalar c where the public
    # metric it equals computes with its diagonal vector: the same bits in
    # every product, Gram test and inverse, for ranks 0, 1 and 2
    for _ in range(200):
        n = int(rng.integers(2, 150))
        r = int(rng.integers(0, 3))
        c = float(np.exp(rng.uniform(-3.0, 3.0)))
        sign = +1 if rng.random() < 0.5 else -1
        U = rng.standard_normal((n, r)) * np.exp(rng.uniform(-3.0, 3.0))
        if r:   # the largest Gram eigenvalue becomes `gram` (< 1)
            gram = rng.uniform(0.01, 0.95)
            U *= np.sqrt(gram / np.linalg.eigvalsh(U.T @ U / c)[-1])
        try:
            public = LowRankMetric(np.full(n, c), U.T, sign)
        except MetricError:   # nearly dependent columns
            continue
        trusted = LowRankMetric._trusted(c, np.array(U), sign)
        x = rng.standard_normal(n)
        for a, b in ((trusted, public), (trusted.invert(), public.invert())):
            assert a.sign == b.sign and a.rank == b.rank == r
            assert np.array_equal(a.diag, b.diag)
            assert np.array_equal(a.factor_matrix, b.factor_matrix)
            assert a._gram.shape == (r, r)
            assert np.array_equal(a._gram, b._gram)
            assert a.gram_norm_sq == b.gram_norm_sq
            assert a.apply(x).tobytes() == b.apply(x).tobytes()
            assert a.norm_sq(x) == b.norm_sq(x)
        if r == 2:
            pm_t = PlusMinusMetric._trusted(c, U[:, :1].copy(),
                                            0.5 * U[:, 1:].copy())
            pm_p = PlusMinusMetric(np.full(n, c), [U[:, 0]], [0.5 * U[:, 1]])
            assert pm_t.apply(x).tobytes() == pm_p.apply(x).tobytes()
            assert pm_t.norm_sq(x) == pm_p.norm_sq(x)


def test_drop_rule_at_its_tolerance():
    # a factor of norm exactly FACTOR_DROP_TOL is kept, one an ulp shorter
    # is dropped, by the public and the trusted constructors alike and by
    # the block rule on one column or two, which keeps a side's width
    c = 1e-14   # keeps the Gram of a kept tiny factor above the rank test
    for norm, rank in ((FACTOR_DROP_TOL, 1),
                       (np.nextafter(FACTOR_DROP_TOL, 0.0), 0),
                       (np.nextafter(FACTOR_DROP_TOL, 1.0), 1)):
        u = np.array([0.0, norm, 0.0])
        assert np.sqrt(u.dot(u)) == norm
        U = u.reshape(3, 1)
        for m in (LowRankMetric(np.full(3, c), [u], +1),
                  LowRankMetric._trusted(c, U, +1),
                  LowRankMetric(np.full(3, c), [u], -1),
                  LowRankMetric._trusted(c, U, -1)):
            assert m.rank == rank
        for pm in (PlusMinusMetric(np.full(3, c), [u], [u]),
                   PlusMinusMetric._trusted(c, U, U)):
            assert pm.ranks == (rank, rank)
        wide = np.column_stack([np.ones(3), u])
        for r1 in (0, 1):
            kept, width = _drop_block(U, r1)
            assert kept.shape == (3, rank) and kept.flags.f_contiguous
            assert width == r1 * rank
            assert (kept is U) == bool(rank)
        assert _drop_block(wide)[0].shape[1] == 1 + rank
        assert _drop_block(wide[:, ::-1], 1)[1] == rank


def test_outer_pd_test_at_its_boundary():
    # P + Q1 - Q2 > 0 iff 1 - m > 0 for a 1x1 outer Gram m: 1 - m one ulp
    # above 0 passes, at 0 or below it raises
    _outer_pd_test(np.array([[np.nextafter(1.0, 0.0)]]))
    for m in (1.0, np.nextafter(1.0, 2.0)):
        with pytest.raises(NotPositiveDefiniteError, match="outer Gram"):
            _outer_pd_test(np.array([[m]]))


def test_empty_metric_rejected():
    for make in (LowRankMetric, PlusMinusMetric):
        with pytest.raises(MetricError, match="empty metric"):
            make(np.zeros(0))


def test_invert_diagonal():
    inv = LowRankMetric([2.0, 4.0]).invert()
    np.testing.assert_allclose(inv.diag, [0.5, 0.25])
    assert inv.rank == 0


def test_minus_sign_boundary_rejected():
    # ||P^{-1/2} u|| = 1 sits exactly on the PD boundary
    with pytest.raises(NotPositiveDefiniteError):
        LowRankMetric(np.ones(2), [np.array([1.0, 0.0])], -1)


def test_norm_sq_examples(rng):
    assert LowRankMetric(np.ones(2)).norm_sq([3.0, 4.0]) == 25.0
    m = LowRankMetric(np.ones(2), [np.array([1.0, 0.0])], +1)
    assert m.norm_sq([1.0, 0.0]) == pytest.approx(2.0)
    d = rng.uniform(0.5, 2.0, 6)
    u = rng.standard_normal(6) * 0.3
    m = LowRankMetric(d, [u], -1)
    x = rng.standard_normal(6)
    np.testing.assert_allclose(m.norm_sq(x), x @ dense_metric(m) @ x,
                               rtol=1e-12)


def test_all_constructed_metrics_positive_definite(rng):
    for _ in range(25):
        n = int(rng.integers(2, 12))
        r = int(rng.integers(0, 3))
        d = rng.uniform(0.5, 2.0, n)
        factors = [rng.standard_normal(n) * 0.4 for _ in range(r)]
        sign = +1 if rng.random() < 0.5 else -1
        try:
            m = LowRankMetric(d, factors, sign)
        except NotPositiveDefiniteError:
            continue
        assert np.linalg.eigvalsh(dense_metric(m))[0] > 0


def test_invert_then_apply_is_identity(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        d = rng.uniform(0.5, 2.0, n)
        u = rng.standard_normal(n)
        u *= np.sqrt(0.5 / np.dot(u, u / d))
        sign = +1 if rng.random() < 0.5 else -1
        m = LowRankMetric(d, [u], sign)
        inv = m.invert()
        assert inv.sign == -m.sign
        for _ in range(10):
            x = rng.standard_normal(n)
            err = np.max(np.abs(inv.apply(m.apply(x)) - x))
            assert err <= 1e-10 * (1.0 + np.max(np.abs(x)))


def test_rank2_inverse(rng):
    n = 7
    d = rng.uniform(0.5, 2.0, n)
    factors = [rng.standard_normal(n) * 0.3 for _ in range(2)]
    m = LowRankMetric(d, factors, -1)
    np.testing.assert_allclose(dense_metric(m) @ dense_metric(m.invert()),
                               np.eye(n), atol=1e-11)


def test_tiny_factors_dropped():
    m = LowRankMetric(np.ones(3), [np.full(3, 1e-14)], +1)
    assert m.rank == 0


def test_dependent_factors_rejected():
    u = np.array([1.0, 2.0, 0.0])
    with pytest.raises(MetricError):
        LowRankMetric(np.ones(3), [u, 2.0 * u], +1)


def test_plus_minus_metric(rng):
    n = 6
    d = rng.uniform(0.5, 2.0, n)
    u1 = rng.standard_normal(n) * 0.5
    u2 = rng.standard_normal(n) * 0.3
    pm = PlusMinusMetric(d, [u1], [u2])
    V = dense_metric(pm)
    assert np.linalg.eigvalsh(V)[0] > 0
    x = rng.standard_normal(n)
    np.testing.assert_allclose(pm.apply(x), V @ x, atol=1e-12)
    with pytest.raises(NotPositiveDefiniteError):
        PlusMinusMetric(np.full(n, 0.01), [], [np.ones(n)])


def _assert_blocks(m):
    """``U`` and ``W`` are column-major blocks and the sides are views of
    them, with the plus side first."""
    r1, r2 = m.ranks
    blocks = [(m.U, (m.U1, m.U2))]
    if m.W is not None:
        blocks.append((m.W, (m.W1, m.W2)))
    for block, (plus, minus) in blocks:
        assert block.flags.f_contiguous and block.shape == (m.dim, r1 + r2)
        assert plus.shape == (m.dim, r1) and minus.shape == (m.dim, r2)
        for side in (plus, minus):
            # an empty side shares no memory with anything
            assert side.size == 0 or np.shares_memory(side, block)
        assert np.array_equal(np.hstack((plus, minus)), block)


def test_every_constructor_stores_column_major_blocks(rng):
    n = 9
    d = rng.uniform(1.0, 2.0, n)
    u = [rng.standard_normal(n) * 0.1 for _ in range(3)]
    tiny = np.zeros(n)
    tiny[0] = 0.1 * FACTOR_DROP_TOL
    metrics = [LowRankMetric(d), LowRankMetric(d, u[:1], +1),
               LowRankMetric(d, u[:1], -1), LowRankMetric(d, u, +1),
               LowRankMetric(d, [u[0], tiny, u[1]], +1),   # r = 2 after a drop
               LowRankMetric(d, [u[0], tiny, u[1]], -1),
               PlusMinusMetric(d, u[:1], u[1:2]),
               PlusMinusMetric(d, u[:2], [0.3 * u[2]]),
               PlusMinusMetric(d, [], u[:1])]
    assert [m.ranks for m in metrics[4:6]] == [(2, 0), (0, 2)]
    U = np.column_stack(u)   # C-order, as a caller may pass it
    metrics += [LowRankMetric._trusted(0.7, U, +1),
                LowRankMetric._trusted(0.7, U[:, :2], -1),
                PlusMinusMetric._trusted(0.7, U[:, :2], 0.3 * U[:, 2:]),
                PlusMinusMetric._trusted(0.7, U[:, :1], np.zeros((n, 0)))]
    metrics += [m.invert() for m in metrics if m.rank and not all(m.ranks)]
    s = rng.standard_normal(n)
    y = s + 0.3 * rng.standard_normal(n)
    for pair in (QNPair(s, y), QNPair(s, -s)):
        H, B, _ = zbfgs_metric(pair)
        metrics += [H, B, sr1_metric(pair, dim=n)]
    H, B, _ = zbfgs_metric(QNPair(s, y), gamma=1e-5)   # the checked branch
    metrics += [H, B]
    for m in metrics:
        _assert_blocks(m)


def test_the_public_constructors_store_read_only_blocks(rng):
    # the factors of a public metric cannot be written through U or a
    # side, which would leave W and gram_norm_sq out of step with them;
    # a side's dropped column goes as it went when each side was cleaned
    n = 6
    d = rng.uniform(1.0, 2.0, n)
    u = [rng.standard_normal(n) * 0.1 for _ in range(3)]
    tiny = np.zeros(n)
    tiny[1] = 0.1 * FACTOR_DROP_TOL
    for m in (LowRankMetric(d, u[:1], +1), LowRankMetric(d, u[:2], -1),
              PlusMinusMetric(d, u[:1], u[1:2]),
              PlusMinusMetric(d, [u[0], tiny], [tiny, 0.3 * u[2]]),
              PlusMinusMetric(d, u[:2], [0.3 * u[2]])):
        for block in (m.U, m.U1, m.U2):
            assert not block.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block[0] = 1.0
    assert m.ranks == (2, 1)
    pm = PlusMinusMetric(d, [u[0], tiny], [tiny, 0.3 * u[2]])
    assert pm.ranks == (1, 1)
    assert np.array_equal(pm.U, np.column_stack([u[0], 0.3 * u[2]]))

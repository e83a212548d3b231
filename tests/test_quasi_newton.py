import math

import numpy as np
import pytest

from proxqn.bench import ProblemRecipe, generate
from proxqn.metric import (
    FACTOR_DROP_TOL,
    LowRankMetric,
    MetricError,
    NotPositiveDefiniteError,
    PlusMinusMetric,
    _apply,
)
from proxqn.quasi_newton import (
    CurvatureError,
    QNPair,
    bb_stepsizes,
    contraction_rate,
    _sr1_factors,
    _zbfgs_factors,
    sr1_eigen_bounds,
    sr1_metric,
    zbfgs_eigen_bounds,
    zbfgs_metric,
)
from proxqn.solver import SolverOptions, run_zero_sr1
from proxqn.validate import dense_metric


def test_bb_identity_hessian(rng):
    s = rng.standard_normal(6)
    assert bb_stepsizes(QNPair(s, s)) == (pytest.approx(1.0),
                                          pytest.approx(1.0))


def test_bb_scaled_hessian(rng):
    s = rng.standard_normal(6)
    tau1, tau2 = bb_stepsizes(QNPair(s, 2.0 * s))
    assert tau1 == pytest.approx(0.5) and tau2 == pytest.approx(0.5)


def test_bb_within_spectral_range(rng):
    M = rng.standard_normal((8, 8))
    Q = M @ M.T + 0.5 * np.eye(8)
    ew = np.linalg.eigvalsh(Q)
    for _ in range(10):
        y = rng.standard_normal(8)
        s = np.linalg.solve(Q, y)
        tau1, tau2 = bb_stepsizes(QNPair(s, y))
        assert tau2 <= tau1 + 1e-15
        for tau in (tau1, tau2):
            assert 1.0 / ew[-1] - 1e-12 <= tau <= 1.0 / ew[0] + 1e-12


def test_bb_signals_nonpositive_curvature(rng):
    s = rng.standard_normal(5)
    with pytest.raises(CurvatureError):
        bb_stepsizes(QNPair(s, -s))


def test_sr1_secant_identity(rng):
    s = rng.standard_normal(7)
    H = sr1_metric(QNPair(s, s), gamma=0.5)
    np.testing.assert_allclose(dense_metric(H),
                               0.5 * np.eye(7) + 0.5 * np.outer(s, s) /
                               np.dot(s, s), atol=1e-12)
    np.testing.assert_allclose(H.apply(s), s, atol=1e-12)


def test_sr1_first_iteration_and_skip(rng):
    H0 = sr1_metric(None, dim=5, tau0=0.25)
    np.testing.assert_allclose(H0.diag, 0.25)
    assert H0.rank == 0
    # orthogonal pair: tau_bb2 clamps to tau_min and the update is skipped
    s = np.array([1.0, 0.0])
    y = np.array([0.0, 1.0])
    H = sr1_metric(QNPair(s, y))
    assert H.rank == 0


def test_sr1_skip_is_scale_invariant(rng):
    for _ in range(20):
        s = rng.standard_normal(6)
        y = rng.standard_normal(6)
        base = sr1_metric(QNPair(s, y)).rank
        for t in (1e-6, 1e3):
            assert sr1_metric(QNPair(t * s, t * y)).rank == base


def test_sr1_random_secant(rng):
    for _ in range(20):
        s = rng.standard_normal(9)
        y = s + 0.5 * rng.standard_normal(9)
        H = sr1_metric(QNPair(s, y), gamma=0.8)
        if H.rank == 1:
            res = np.max(np.abs(H.apply(y) - s))
            assert res <= 1e-12 * (1.0 + np.max(np.abs(s)))


def test_zbfgs_identity_collapse(rng):
    s = rng.standard_normal(6)
    H, B, skipped = zbfgs_metric(QNPair(s, s), gamma=1.0)
    assert not skipped
    np.testing.assert_allclose(dense_metric(H), np.eye(6), atol=1e-12)
    np.testing.assert_allclose(dense_metric(B), np.eye(6), atol=1e-12)


def test_zbfgs_secant_and_inverse(rng):
    for _ in range(15):
        s = rng.standard_normal(8)
        y = s + 0.6 * rng.standard_normal(8)
        if np.dot(s, y) <= 0:
            continue
        H, B, skipped = zbfgs_metric(QNPair(s, y), gamma=1.0)
        assert not skipped
        res = np.max(np.abs(H.apply(y) - s))
        assert res <= 1e-12 * (1.0 + np.max(np.abs(s)))
        HB = dense_metric(B) @ dense_metric(H)
        assert np.max(np.abs(HB - np.eye(8))) <= 1e-10


def test_zbfgs_curvature_fallback(rng):
    s = rng.standard_normal(5)
    H, B, skipped = zbfgs_metric(QNPair(s, -s), gamma=1.0, tau_fallback=0.5)
    assert skipped
    np.testing.assert_allclose(H.diag, 0.5)
    np.testing.assert_allclose(B.diag, 2.0)


def _spd_pair(rng, mu, L, n):
    q = np.concatenate([[mu, L], rng.uniform(mu, L, n - 2)])
    s = rng.standard_normal(n)
    return QNPair(s, q * s)


def test_sr1_eigenvalues_within_lemma_interval(rng):
    mu, L, gamma = 0.4, 5.0, 0.8
    a, b = sr1_eigen_bounds(mu, L, gamma)
    for _ in range(30):
        H = sr1_metric(_spd_pair(rng, mu, L, 10), gamma=gamma)
        ew = np.linalg.eigvalsh(dense_metric(H))
        assert ew[0] >= a - 1e-9 and ew[-1] <= b + 1e-9


def test_zbfgs_eigenvalues_within_lemma_interval(rng):
    mu, L, gamma = 0.4, 5.0, 1.0
    a, b = zbfgs_eigen_bounds(mu, L, gamma)
    for _ in range(30):
        H, _, skipped = zbfgs_metric(_spd_pair(rng, mu, L, 10), gamma=gamma)
        if skipped:
            continue
        ew = np.linalg.eigvalsh(dense_metric(H))
        assert ew[0] >= a - 1e-9 and ew[-1] <= b + 1e-9


def test_contraction_rate_formulas():
    # gamma = 1/2 collapses the constants to 3/mu - 2/L and eta = c(3c - 2)
    mu, L = 1.0, 8.0
    _, b = sr1_eigen_bounds(mu, L, 0.5)
    assert b == pytest.approx(3.0 / mu - 2.0 / L)
    kappa = 1.0 / (L * b)
    rho = contraction_rate(mu, L, 0.5, kappa, kappa, variant="sr1")
    eta = L / (2.0 * 0.5 * mu * kappa)
    assert eta == pytest.approx(8.0 * (3 * 8.0 - 2.0))
    assert rho == pytest.approx(1.0 - 1.0 / (8.0 * eta))
    with pytest.raises(ValueError):
        contraction_rate(mu, L, 0.5, kappa, 3.0 / (L * b))


def _same_low_rank(a, b):
    assert a.sign == b.sign
    assert np.array_equal(a.diag, b.diag)
    assert np.array_equal(a.factor_matrix, b.factor_matrix)
    assert np.array_equal(a._gram, b._gram)
    assert a.gram_norm_sq == b.gram_norm_sq


def _same_plus_minus(a, b):
    assert np.array_equal(a.diag, b.diag)
    assert np.array_equal(a.U1, b.U1)
    assert np.array_equal(a.U2, b.U2)
    assert np.array_equal(a.W2, b.W2)


def _random_pairs(rng, count):
    for _ in range(count):
        n = int(rng.integers(1, 120))
        s = rng.standard_normal(n) * 10.0 ** rng.uniform(-6.0, 6.0)
        y = s * rng.uniform(0.1, 10.0, n) + 0.3 * rng.standard_normal(n) \
            * np.linalg.norm(s) / np.sqrt(n)
        yield QNPair(s, y * 10.0 ** rng.uniform(-3.0, 3.0))


def test_sr1_trusted_construction_matches_public_bitwise(rng):
    # the trusted constructor and its inverse give the numbers the public
    # constructor gives on the same data, including the skipped update
    # (orthogonal pair) and the rank-0 first iteration
    pairs = list(_random_pairs(rng, 150)) + [
        QNPair(np.array([1.0, 0.0]), np.array([0.0, 1.0])), None]
    ranks = set()
    for pair in pairs:
        H = sr1_metric(pair, dim=2 if pair is None else None,
                       tau0=0.3)
        ranks.add(H.rank)
        public = LowRankMetric(H.diag, H.factor_matrix.T, H.sign)
        _same_low_rank(H, public)
        _same_low_rank(H.invert(), public.invert())
    assert ranks == {0, 1}


def _sr1_public_step(pair, gamma, n, tau0):
    """``H`` of the docstring's formulas through the trusted constructor,
    as ``sr1_metric`` built it before it wrapped the builder, and ``B =
    H.invert()``, or the metric layer's error."""
    h0, u = float(tau0), None
    if pair is not None and pair.y_norm_sq > 0.0:
        yy = pair.y_norm_sq
        h0 = gamma * min(max(pair.curvature / yy, 1e-8), 1e8)
        w = pair.s - h0 * pair.y
        wy = float(np.dot(w, pair.y))
        if wy > 1e-8 * math.sqrt(yy) * math.sqrt(w.dot(w)):
            u = w / math.sqrt(wy)
    try:
        H = LowRankMetric._trusted(h0, np.zeros((n, 0)) if u is None
                                   else u.reshape(n, 1), +1)
        B = H.invert()
    except MetricError as err:
        return type(err), str(err)
    return H, B


def _sr1_edge_pairs(rng):
    """``(pair, gamma)``: the first step, ``||y|| = 0``, skips below and at
    the skip tolerance, both tau clamps, the drop rule of H's factor (and
    H's Gram rank test) where ``s - h0 y`` is one ulp, and signed zeros."""
    v = rng.standard_normal(7)
    cases = [(None, 0.8), (QNPair(v, np.zeros(7)), 0.8),
             (QNPair(v, -0.0 * v), 0.5),
             (QNPair(np.array([1.0, 0.0]), np.array([0.0, 1.0])), 0.8),
             (QNPair(v, -v), 0.8)]
    # y = e1, s = e1 + b e2, gamma 0.5: <w, y> = 0.5 against the skip
    # tolerance 1e-8 ||w||, which b = 5e7 puts at the boundary
    for b in 5e7 * np.array([1.0 - 1e-6, 1.0, 1.0 + 1e-6]):
        cases.append((QNPair(np.array([1.0, b]), np.array([1.0, 0.0])),
                      0.5))
    for t in (1e-12, 1e-9, 1e9, 1e12):   # tau_bb2 clamped at 1e-8 and 1e8
        y = rng.standard_normal(9)
        cases.append((QNPair(t * y * rng.uniform(0.5, 2.0, 9), y), 0.8))
    for gamma in (0.1, 0.3, 0.8, 0.8, 0.8):
        # h0 = gamma 1e-8 at the lower clamp and s = h0 y up to one ulp:
        # ||u|| is about 1e-12, dropped below it, kept above it with a Gram
        # under the rank test's bound
        y = rng.uniform(1.0, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        s = gamma * 1e-8 * y
        s[0] = np.nextafter(s[0], np.copysign(np.inf, y[0]))
        cases.append((QNPair(s, y), gamma))
    s, y = rng.standard_normal((2, 12))
    s[::3], y[1::4] = -0.0, 0.0
    cases.append((QNPair(s, np.abs(y) * np.sign(s)), 0.8))
    return cases


def test_sr1_step_factors_match_the_public_metrics_bytewise(rng):
    # the builder the solver's step reads gives the reference H's product
    # H g, B's c, factors and Gram and the skip and drop decisions byte
    # for byte, and raises where the metric layer raises; sr1_metric is
    # the builder's H, and raises with it
    cases = [(pair, 0.8) for pair in _random_pairs(rng, 120)]
    cases += [(pair, float(rng.uniform(0.05, 0.95)))
              for pair in _random_pairs(rng, 60)]
    cases += _sr1_edge_pairs(rng)
    seen = set()
    for pair, gamma in cases:
        n = 7 if pair is None else pair.s.shape[0]
        tau0 = float(10.0 ** rng.uniform(-3.0, 3.0))
        want = _sr1_public_step(pair, gamma, n, tau0)
        if isinstance(want[0], type):
            for build in (_sr1_factors, sr1_metric):
                with pytest.raises(want[0]) as err:
                    build(pair, gamma, n, tau0)
                assert str(err.value) == want[1]
            seen.add("raises")
            continue
        H, B = want
        (c, U, U2), (b, V, W, r1, g_sq), skipped = \
            _sr1_factors(pair, gamma, n, tau0)
        public = sr1_metric(pair, gamma, n, tau0)
        assert public.c == H.c and public.U.tobytes() == H.U.tobytes()
        assert skipped == (H.rank == 0) and U2.shape == (n, 0) and r1 == 0
        seen.add((H.rank, B.rank))
        assert c == H.c and U.shape == H.U1.shape
        assert U.tobytes() == H.U1.tobytes()
        g = rng.standard_normal(n)
        g[::5] = -0.0
        assert _apply(c, U, U[:, :0], g).tobytes() == H.apply(g).tobytes()
        assert b == B.c and B.ranks == (0, V.shape[1])
        assert V.shape == W.shape == B.U2.shape
        assert V.tobytes() == B.U2.tobytes()
        assert W.tobytes() == B.W2.tobytes()
        assert g_sq == B.gram_norm_sq
    # kept and skipped updates, a drop and a rank-test failure were met
    assert seen == {(1, 1), (0, 0), "raises"}


def _same_factored_bits(a, b):
    assert a.c == b.c and a.ranks == b.ranks
    assert a.gram_norm_sq == b.gram_norm_sq
    for x, y in ((a.U, b.U), (a.W, b.W), (a._gram, b._gram),
                 (a.diag, b.diag)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_sr1_metric_inverts_to_its_builders_b_bytewise(rng):
    # sr1_metric's invert() hands out the builder's B: the bits of the
    # Sherman-Morrison inverse of the same H, read-only, with a Gram that
    # inverts in turn as that inverse does
    cases = [(pair, 0.8) for pair in _random_pairs(rng, 80)]
    cases += _sr1_edge_pairs(rng)
    ranks = set()
    for pair, gamma in cases:
        n = 7 if pair is None else pair.s.shape[0]
        want = _sr1_public_step(pair, gamma, n, 0.3)
        if isinstance(want[0], type):   # sr1_metric raises: see above
            continue
        B = sr1_metric(pair, gamma, n, 0.3).invert()
        ranks.add(B.rank)
        _same_factored_bits(B, want[1])
        for a in (B.U, B.W, B._gram):
            assert not a.flags.writeable
        _same_factored_bits(B.invert(), want[1].invert())
    assert ranks == {0, 1}


def _zbfgs_branch_cases(rng, branch):
    """``(pair, gamma, tau_fallback)`` draws of one branch of the 0BFGS
    builder; ``pair`` None is the first step."""
    def draw(scale=1.0, noise=0.3):
        v = rng.standard_normal(9)
        return v, (v * rng.uniform(0.5, 2.0, 9)
                   + noise * rng.standard_normal(9)) * scale

    tau = float(10.0 ** rng.uniform(-3.0, 3.0))
    if branch == "first step":
        return [(None, gamma, tau) for gamma in (0.5, 1.0, 3.0)]
    if branch == "proven":
        return [(pair, gamma, tau) for pair in _random_pairs(rng, 60)
                if pair.curvature > 0
                for gamma in (1.0, float(10.0 ** rng.uniform(-4.0, 4.0)))]
    if branch == "checked":   # gamma outside [1e-4, 1e4]; 1e-13 is refused
        return [(QNPair(*draw()), gamma, tau)
                for gamma in (1e-5, 1e-5, 2e4, 1e-13)]
    if branch == "skipped":   # <s, y> <= 0, ||y||^2 = 0, tau = inf
        v = rng.standard_normal(3)
        return [(QNPair(v, -v), 1.0, tau), (QNPair(v, 0.0 * v), 0.5, tau),
                (QNPair(v * 1e200, v * 1e-170), 0.5, tau),
                (QNPair(v * 1e160, v * 1e-160), 2.0, tau)]
    if branch == "drop":
        # tau ~ 1e-24: H's minus column and B's V fall under the drop
        # rule; the outer Gram reads 1 - p_inv ||U2||^2, about 0, and
        # decides on the rounding of its product
        return [(QNPair(*draw(scale, noise=1.0)), 1.0, tau)
                for scale in (1e24, 1e25) for _ in range(20)]
    assert branch == "outer Gram fallback"
    # s and y nearly parallel at extreme scales, and a tau ** 2 overflow
    v = np.array([0.6, -0.3, 0.8])
    w = v + np.array([0.0, 1e-9, 0.0])
    return [(QNPair(v * 1e-60, w * 1e-28), gamma, tau)
            for gamma in (0.5, 1.0, 2.0)] + \
        [(QNPair(v * 1e80, v * 1e-80), 1.0, tau)]


@pytest.mark.parametrize("branch", [
    "first step", "proven", "checked", "skipped", "drop",
    "outer Gram fallback"])
def test_zbfgs_step_factors_match_the_public_metrics_bytewise(rng, branch):
    # the factors the solver's 0BFGS step reads give zbfgs_metric's public
    # H (its c, sides and product H g) and B (its c, blocks, plus width
    # and Gram) byte for byte, with its skip decision, on every branch of
    # the builder; the first step's diagonal is the skipped pair's at
    # tau_fallback = tau0.  The blocks the prox route reads are
    # column-major
    outcomes = set()
    for pair, gamma, tau in _zbfgs_branch_cases(rng, branch):
        if pair is None:
            got = _zbfgs_factors(None, gamma, 9, tau)
            v = rng.standard_normal(9)
            want = zbfgs_metric(QNPair(v, -v), gamma, tau_fallback=tau)
        else:
            got = _zbfgs_factors(pair, gamma, pair.s.shape[0], tau)
            want = zbfgs_metric(pair, gamma, tau_fallback=tau)
        (c, U1, U2), (cb, U, W, r1, g_sq), skipped = got
        H, B, want_skipped = want
        assert skipped == want_skipped
        assert c == H.c and (U1.shape, U2.shape) == (H.U1.shape, H.U2.shape)
        assert U1.tobytes() == H.U1.tobytes()
        assert U2.tobytes() == H.U2.tobytes()
        g = rng.standard_normal(H.dim)
        g[::5] = -0.0
        assert _apply(c, U1, U2, g).tobytes() == H.apply(g).tobytes()
        assert cb == B.c and r1 == B.r1 and U.shape == W.shape == B.U.shape
        assert U.tobytes() == B.U.tobytes() and W.tobytes() == B.W.tobytes()
        assert g_sq == B.gram_norm_sq
        assert U.flags.f_contiguous and W.flags.f_contiguous
        # B's V dropped: W2 is P^{-1} U2 itself
        dropped = U.shape[1] == 2 and \
            W[:, 1].tobytes() == (1.0 / cb * U[:, 1]).tobytes()
        outcomes.add((skipped, H.ranks, B.ranks, dropped))
    refused, kept = (True, (0, 0), (0, 0), False), \
        (False, (1, 1), (1, 1), False)
    if branch in ("first step", "skipped", "outer Gram fallback"):
        assert outcomes == {refused}
    elif branch == "proven":
        assert outcomes == {kept}
    elif branch == "checked":   # gamma = 1e-13 fails B's rank test
        assert outcomes == {kept, refused}
    else:   # kept with V and one or both of H's columns dropped, or refused
        assert outcomes == {refused, (False, (1, 0), (1, 1), True),
                            (False, (0, 0), (1, 1), True)}


def _zbfgs_reference(pair, gamma):
    """``(H, B)`` of the docstring's formulas through the public
    constructor, or None where it refuses them (the skipped update)."""
    s, y, n = pair.s, pair.y, pair.s.shape[0]
    sy, yy, ss = pair.curvature, float(np.dot(y, y)), float(np.dot(s, s))
    tau = sy / yy
    rho, c = 1.0 / sy, gamma * tau
    try:
        H = PlusMinusMetric(
            np.full(n, c),
            [math.sqrt(rho * (1.0 + gamma)) * (s - (c / (1.0 + gamma)) * y)],
            [math.sqrt(rho * gamma ** 2 * tau ** 2 / (1.0 + gamma)) * y])
        B = PlusMinusMetric(np.full(n, 1.0 / c),
                            [y / (math.sqrt(yy) * math.sqrt(tau))],
                            [s / (math.sqrt(ss) * math.sqrt(c))])
    except (NotPositiveDefiniteError, OverflowError):
        return None
    return H, B


def test_zbfgs_trusted_construction_matches_public_bitwise(rng):
    # the public constructor on the docstring's factors is the reference:
    # the same skip and ranks, B's factored form bit for bit and the same
    # product H g.  Beyond random pairs (at several gamma): extreme scales
    # where the drop rule takes H's columns and V (s ~ 1e-60, y ~ 1e-28;
    # s ~ 1, y ~ 1e28) or a column of B (s ~ 1, y ~ 1e-28), s parallel
    # to y, an overflowing tau ** 2, and s nearly orthogonal to y, where
    # H's Gram nears its bound and the checked build decides
    v = np.array([0.6, -0.3, 0.8])
    w = v + np.array([0.0, 1e-9, 0.0])
    cases = [(pair, 1.0) for pair in _random_pairs(rng, 150)]
    cases += [(pair, float(10.0 ** rng.uniform(-5.0, 5.0)))
              for pair in _random_pairs(rng, 60)]
    for s_scale, y_scale in ((1e-60, 1e-28), (1.0, 1e28), (1.0, 1e-28)):
        cases += [(QNPair(v * s_scale, w * y_scale), gamma)
                  for gamma in (0.5, 1.0, 2.0)]
    cases += [(QNPair(v, 2.5 * v), 1.0), (QNPair(v * 1e80, v * 1e-80), 1.0)]
    for _ in range(20):
        s, z = rng.standard_normal((2, 50))
        z -= z.dot(s) / s.dot(s) * s
        cases.append((QNPair(s, z + 10.0 ** rng.uniform(-12.0, -6.0) * s),
                      float(rng.choice([0.5, 1.0]))))
    skips = set()
    for pair, gamma in cases:
        H, B, skipped = zbfgs_metric(pair, gamma=gamma)
        ref = _zbfgs_reference(pair, gamma)
        assert skipped == (ref is None)
        skips.add(skipped)
        if ref is None:
            assert H.ranks == B.ranks == (0, 0)
            continue
        H_ref, B_ref = ref
        assert H.ranks == H_ref.ranks and B.ranks == B_ref.ranks
        assert np.array_equal(B.diag, B_ref.diag)
        for name in ("U1", "W1", "U2", "W2"):
            assert np.array_equal(getattr(B, name), getattr(B_ref, name))
        assert B.gram_norm_sq == B_ref.gram_norm_sq
        g = rng.standard_normal(pair.s.shape[0])
        assert np.array_equal(H.apply(g), H_ref.apply(g))
        PlusMinusMetric(H.diag, H.U1.T, H.U2.T)   # accepts H's factors
    assert skips == {False, True}


def test_trusted_constructors_drop_tiny_factors(rng):
    n = 6
    u = rng.standard_normal(n)
    tiny = np.full(n, 0.5 * FACTOR_DROP_TOL / np.sqrt(n))
    U = np.column_stack([u, tiny])
    m = LowRankMetric._trusted(0.7, U, +1)
    assert m.rank == 1
    _same_low_rank(m, LowRankMetric(np.full(n, 0.7), [u, tiny], +1))
    pm = PlusMinusMetric._trusted(0.7, U[:, :1], U[:, 1:])
    assert pm.ranks == (1, 0)
    _same_plus_minus(pm, PlusMinusMetric(np.full(n, 0.7), [u], [tiny]))
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(NotPositiveDefiniteError):
            LowRankMetric._trusted(bad, U)
        with pytest.raises(NotPositiveDefiniteError):
            PlusMinusMetric._trusted(bad, U[:, :1], U[:, 1:])


def test_zbfgs_degenerate_pair_falls_back_to_the_diagonal():
    # s and y nearly parallel at extreme scales: the outer Gram test of
    # the trusted construction fails as the public one does, and the
    # diagonal gamma * tau_bb2 I is returned
    v = np.array([0.6, -0.3, 0.8])
    s = v * 1e-60
    y = (v + np.array([0.0, 1e-9, 0.0])) * 1e-28
    pair = QNPair(s, y)
    H, B, skipped = zbfgs_metric(pair, gamma=1.0)
    assert skipped and H.ranks == (0, 0) and B.ranks == (0, 0)
    tau = pair.curvature / float(np.dot(y, y))
    assert np.array_equal(H.diag, np.full(3, tau))
    assert np.array_equal(B.diag, np.full(3, 1.0 / tau))
    rho = 1.0 / pair.curvature
    h_plus = np.sqrt(2.0 * rho) * (s - 0.5 * tau * y)
    h_minus = np.sqrt(rho * tau ** 2 / 2.0) * y
    b_plus = y / (np.sqrt(np.dot(y, y)) * np.sqrt(tau))
    b_minus = s / (np.sqrt(np.dot(s, s)) * np.sqrt(tau))
    failing = 0
    for c, plus, minus in ((tau, h_plus, h_minus),
                           (1.0 / tau, b_plus, b_minus)):
        try:
            PlusMinusMetric(np.full(3, c), [plus], [minus])
        except NotPositiveDefiniteError:
            failing += 1
            with pytest.raises(NotPositiveDefiniteError):
                PlusMinusMetric._trusted(c, plus.reshape(3, 1),
                                         minus.reshape(3, 1))
    assert failing


def test_zbfgs_overflowing_scale_falls_back_to_the_diagonal():
    # tau = <s,y>/||y||^2 = 1e160, so the minus factor's tau ** 2 overflows
    # the float range; the pair is degenerate and keeps the diagonal
    v = np.array([0.6, -0.3, 0.8])
    pair = QNPair(v * 1e80, v * 1e-80)
    H, B, skipped = zbfgs_metric(pair, gamma=1.0)
    assert skipped and H.ranks == (0, 0) and B.ranks == (0, 0)
    tau = pair.curvature / float(np.dot(pair.y, pair.y))
    assert np.array_equal(H.diag, np.full(3, tau))
    assert np.array_equal(B.diag, np.full(3, 1.0 / tau))


def test_zbfgs_rank_deficient_gram_falls_back_to_the_diagonal(rng):
    # the checked build refuses both pairs as linearly dependent factors:
    # B's Gram is about gamma at gamma = 1e-13 on an ordinary pair, and H's
    # about 1 / (gamma (1 + gamma)) at gamma = 1e7 on s parallel to y
    s = rng.standard_normal(5)
    for pair, gamma in ((QNPair(s, s * rng.uniform(0.5, 2.0, 5)), 1e-13),
                        (QNPair(s, 2.5 * s), 1e7)):
        H, B, skipped = zbfgs_metric(pair, gamma=gamma)
        assert skipped and H.ranks == (0, 0) and B.ranks == (0, 0)
        tau = pair.curvature / float(np.dot(pair.y, pair.y))
        assert B.c == 1.0 / (gamma * tau)


def test_zbfgs_infinite_tau_falls_back_to_the_diagonal():
    # <s,y> > 0 but tau_bb2 = <s,y>/||y||^2 has no finite value: ||y||^2
    # underflows to 0, or to a subnormal that the quotient overflows on;
    # the fallback diagonal gamma * tau_fallback I is kept
    v = np.array([0.6, -0.3, 0.8])
    for s_scale, y_scale, yy_zero in ((1e200, 1e-170, True),
                                      (1e160, 1e-160, False)):
        pair = QNPair(v * s_scale, v * y_scale)
        assert pair.curvature > 0
        assert (float(np.dot(pair.y, pair.y)) == 0.0) == yy_zero
        H, B, skipped = zbfgs_metric(pair, gamma=0.5, tau_fallback=3.0)
        assert skipped and H.ranks == (0, 0) and B.ranks == (0, 0)
        assert np.array_equal(H.diag, np.full(3, 1.5))
        assert np.array_equal(B.diag, np.full(3, 1.0 / 1.5))


def test_config_validation():
    s = np.array([1.0, 0.5])
    for gamma in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="gamma"):
            sr1_metric(QNPair(s, s), gamma=gamma)
    problem = generate(ProblemRecipe("lasso_gaussian", m=10, n=20, lam=0.1,
                                     seed=0))
    with pytest.raises(ValueError, match="gamma"):
        run_zero_sr1(problem, SolverOptions(gamma=1.5))


def test_zbfgs_metric_names_a_missing_pair():
    # it has no dim for the first step's diagonal, and read pair.s of None
    with pytest.raises(ValueError, match="needs a pair"):
        zbfgs_metric(None)


def test_sr1_metric_rejects_a_dim_that_disagrees_with_the_pair():
    # it returned the pair's dimension whatever dim said
    s, y = np.array([1.0, 0.5, -0.2]), np.array([1.2, 0.4, -0.1])
    with pytest.raises(ValueError, match="dim 5 disagrees"):
        sr1_metric(QNPair(s, y), dim=5)
    assert sr1_metric(QNPair(s, y), dim=3).dim == 3

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import minimize_scalar

from proxqn.prox import (
    AffineConstraint,
    Box,
    GroupL2,
    Hinge,
    L1Ball,
    L1Norm,
    LinfBall,
    LinfNorm,
    MaxFunction,
    NonNeg,
    Simplex,
    Zero,
    _Clip,
    _scale_rows,
    project_l1_ball_weighted,
    project_simplex_weighted,
)
from proxqn.metric import LowRankMetric, PlusMinusMetric
from proxqn.scaled import scaled_prox, scaled_prox_rank2
from proxqn.validate import exhaustive_simplex_qp

from _group_reference import RepeatGroupL2
from _jacobian_reference import reference_jvp


def scalar_prox_oracle(h_scalar, x, d, kappa):
    """Golden-section minimization of kappa h(z) + d/2 (z - x)^2.

    Value comparisons alone locate a smooth minimum only to sqrt(eps), so
    a three-point parabola fit polishes the result (the objectives are
    piecewise quadratic, making the fit exact on the final piece); at a
    kink the golden iterate is already sharp and the fit is discarded by
    the value comparison.
    """
    def obj(z):
        return kappa * h_scalar(z) + 0.5 * d * (z - x) ** 2

    span = abs(x) + 5.0 * (1.0 + kappa / d)
    lo, hi = x - span, x + span
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a = hi - phi * (hi - lo)
    b = lo + phi * (hi - lo)
    fa, fb = obj(a), obj(b)
    for _ in range(120):
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - phi * (hi - lo)
            fa = obj(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + phi * (hi - lo)
            fb = obj(b)
    z0 = 0.5 * (lo + hi)
    h = 1e-4 * (1.0 + abs(z0))
    f_m, f_0, f_p = obj(z0 - h), obj(z0), obj(z0 + h)
    curv = f_p - 2.0 * f_0 + f_m
    best = z0
    if curv > 0:
        vertex = z0 - 0.5 * h * (f_p - f_m) / curv
        if abs(vertex - z0) < 3.0 * h and \
                obj(vertex) <= f_0 + 1e-12 * (1.0 + abs(f_0)):
            best = vertex
    return best


def test_l1_weighted_example():
    np.testing.assert_allclose(L1Norm(1.0).prox_diag([2.0, 2.0], [2.0, 1.0]),
                               [1.5, 1.0])


def test_l1_at_origin():
    np.testing.assert_allclose(
        L1Norm(0.7).prox_diag(np.zeros(4), np.ones(4)), 0.0)


def test_l1_matches_scalar_oracle(rng):
    lam = 0.8
    for _ in range(5):
        x = rng.standard_normal(6) * 2.0
        d = rng.uniform(0.5, 2.0, 6)
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        got = L1Norm(lam).prox_diag(x, d, kappa)
        want = [scalar_prox_oracle(lambda z: lam * abs(z), x[i], d[i], kappa)
                for i in range(6)]
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_nonneg_and_box():
    np.testing.assert_allclose(NonNeg().prox_diag([-1.0, 2.0], np.ones(2)),
                               [0.0, 2.0])
    np.testing.assert_allclose(
        Box(-1.0, 1.0).prox_diag([-3.0, 0.5], np.ones(2)), [-1.0, 0.5])
    with pytest.raises(ValueError):
        Box(1.0, -1.0)


def test_hinge_examples():
    d = np.ones(1)
    assert Hinge(1.0).prox_diag([2.0], d)[0] == pytest.approx(1.0)
    assert Hinge(1.0).prox_diag([0.5], d)[0] == pytest.approx(0.0)
    assert Hinge(1.0).prox_diag([-1.0], d)[0] == pytest.approx(-1.0)


def test_hinge_matches_scalar_oracle(rng):
    lam = 1.3
    for _ in range(4):
        x = rng.standard_normal(5) * 2.0
        d = rng.uniform(0.5, 2.0, 5)
        got = Hinge(lam).prox_diag(x, d, 0.7)
        want = [scalar_prox_oracle(lambda z: lam * max(0.0, z), x[i], d[i],
                                   0.7) for i in range(5)]
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_simplex_fixed_point_and_l1_ball():
    d = np.ones(2)
    np.testing.assert_allclose(Simplex(1.0).prox_diag([0.5, 0.5], d),
                               [0.5, 0.5])
    np.testing.assert_allclose(L1Ball(1.0).prox_diag([2.0, 0.0], d),
                               [1.0, 0.0])


def test_simplex_matches_active_set_qp(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        y = rng.standard_normal(n) * 2.0
        d = rng.uniform(0.5, 2.0, n)
        radius = float(rng.uniform(0.5, 2.0))
        got = Simplex(radius).prox_diag(y, d)
        want = exhaustive_simplex_qp(y, d, radius)
        np.testing.assert_allclose(got, want, atol=1e-10)
        assert got.min() >= 0 and np.sum(got) == pytest.approx(radius)


def test_l1_ball_matches_active_set_qp(rng):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        y = rng.standard_normal(n) * 2.0
        d = rng.uniform(0.5, 2.0, n)
        radius = float(rng.uniform(0.3, 1.5))
        got = L1Ball(radius).prox_diag(y, d)
        if np.sum(np.abs(y)) <= radius:
            np.testing.assert_allclose(got, y)
        else:
            want = np.sign(y) * exhaustive_simplex_qp(np.abs(y), d, radius)
            np.testing.assert_allclose(got, want, atol=1e-10)


def test_linf_prox_collapses_small_arguments():
    # ||x||_1 <= lam forces the prox of lam*||.||_inf to the origin
    got = LinfNorm(1.0).prox_diag([0.5, -0.5], np.ones(2))
    np.testing.assert_allclose(got, [0.0, 0.0], atol=1e-15)


def test_max_prox_zero_scaling(rng):
    x = rng.standard_normal(5)
    np.testing.assert_allclose(MaxFunction(0.0).prox_diag(x, np.ones(5)), x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("op", [LinfNorm(0.5), L1Ball(0.9)])
def test_l1_ball_projection_gives_nan_at_a_nonfinite_point(rng, op, bad):
    # the weighted simplex projection underneath finds no self-consistent
    # active set by its rounding test at such a point; it must not raise
    x = rng.standard_normal(6)
    x[2] = bad
    with np.errstate(invalid="ignore"):
        p = op.prox_diag(x, np.ones(6))
    assert np.isnan(p[2])


@pytest.mark.parametrize("op", [L1Norm(0.8), NonNeg(), Hinge(1.1),
                                LinfBall(1.2), L1Ball(0.9), Simplex(1.4),
                                LinfNorm(0.7), MaxFunction(1.3)])
def test_euclidean_moreau_identity(rng, op):
    conj = op.conjugate()
    ones = np.ones(7)
    for rho in (0.5, 1.0, 2.0):
        x = rng.standard_normal(7) * 2.0
        lhs = conj.prox_diag(x, ones, rho) + \
            rho * op.prox_diag(x / rho, ones, 1.0 / rho)
        np.testing.assert_allclose(lhs, x, atol=1e-12)


def test_group_l2_block_examples():
    blocks = [np.array([0, 1])]
    x = np.array([2.0, 0.0])
    np.testing.assert_allclose(GroupL2(1.0, blocks).prox_diag(x, np.ones(2)),
                               [1.0, 0.0])
    np.testing.assert_allclose(
        GroupL2(1.0, blocks).prox_diag([0.3, 0.4], np.ones(2)), [0.0, 0.0])


def test_group_l2_matches_per_block_reduction(rng):
    sizes = [3, 1, 4, 2]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    blocks = [np.arange(s, s + k) for s, k in zip(starts, sizes)]
    n = sum(sizes)
    lam = 0.9
    vals = rng.uniform(0.5, 2.0, len(blocks))
    d = np.empty(n)
    for bi, blk in enumerate(blocks):
        d[blk] = vals[bi]
    x = rng.standard_normal(n)
    got = GroupL2(lam, blocks).prox_diag(x, d, kappa=1.5)
    for bi, blk in enumerate(blocks):
        nb = np.linalg.norm(x[blk])
        scale = max(0.0, 1.0 - 1.5 * lam / (vals[bi] * nb)) if nb else 0.0
        np.testing.assert_allclose(got[blk], scale * x[blk], atol=1e-12)


def test_group_l2_rejects_varying_weights():
    op = GroupL2(1.0, [np.array([0, 1])])
    with pytest.raises(ValueError):
        op.prox_diag(np.ones(2), np.array([1.0, 2.0]))
    # the root problems check the metric diagonal once, with the same rule
    metric = LowRankMetric(np.array([1.0, 2.0]), [np.array([0.3, 0.1])], +1)
    for finder in ("auto", "bisection"):
        with pytest.raises(ValueError, match="constant within blocks"):
            scaled_prox(metric, op, np.ones(2), finder=finder)
    with pytest.raises(ValueError, match="constant within blocks"):
        scaled_prox_rank2(PlusMinusMetric(np.array([1.0, 2.0]),
                                          [np.array([0.3, 0.1])],
                                          [np.array([0.1, -0.2])]),
                          op, np.ones(2))


@pytest.mark.parametrize("op", [GroupL2(1.0, [[0, 1], [2]]), L1Norm(1.0)],
                         ids=lambda op: type(op).__name__)
def test_prox_diag_jvp_checks_its_weights_as_prox_diag_does(op):
    # at weights -1 the group norm returned entries 1.36 and -0.18, the
    # Jacobian of no prox, and L1Norm the identity; with 2 weights for N = 3
    # the group norm raised IndexError and L1Norm numpy's broadcast error
    z, M = np.array([1.0, 2.0, 3.0]), np.eye(3)
    bad = [-np.ones(3), np.array([2.0, 1.0])]
    if isinstance(op, GroupL2):   # weights that vary inside block [0, 1]
        bad.append(np.array([1.0, 2.0, 1.0]))
    for d in bad:
        with pytest.raises(ValueError):
            op.prox_diag(z, d)
        with pytest.raises(ValueError):
            op.prox_diag_jvp(z, d, 1.0, M)


def test_group_l2_rejects_a_point_of_another_dimension():
    # the weights match the blocks; the point does not
    op = GroupL2(0.1, [[0, 1], [2, 3]])
    for x in (np.arange(1.0, 7.0), np.arange(1.0, 3.0)):
        with pytest.raises(ValueError, match="dimension"):
            op.prox_diag(x, np.ones(4))
    with pytest.raises(ValueError, match="dimension"):
        op.check_weights(np.ones(4), 6)


@pytest.mark.parametrize("blocks, message", [
    ([[0, 2]], "partition"), ([[0, 1], [1, 2]], "partition"),
    ([[-1, 0]], "partition"), ([[0, 1], []], "empty block")],
    ids=["out-of-range", "repeated", "negative", "empty"])
def test_group_l2_rejects_blocks_that_do_not_partition(blocks, message):
    # an index out of 0..n-1, a repeated or a negative one would otherwise
    # reach the segment map
    with pytest.raises(ValueError, match=message):
        GroupL2(1.0, blocks)


_NAN_PARAMETERS = {
    "L1Norm": lambda: L1Norm(np.nan),
    "Hinge": lambda: Hinge(np.nan),
    "LinfBall": lambda: LinfBall(np.nan),
    "Simplex": lambda: Simplex(np.nan),
    "L1Ball": lambda: L1Ball(np.nan),
    "LinfNorm": lambda: LinfNorm(np.nan),
    "MaxFunction": lambda: MaxFunction(np.nan),
    "GroupL2": lambda: GroupL2(np.nan, [[0, 1]]),
    "Box-lo": lambda: Box(np.nan, 1.0),
    "Box-hi": lambda: Box(0.0, np.nan),
    "Box-vector": lambda: Box([0.0, np.nan], 1.0),
    "project_simplex_weighted": lambda: project_simplex_weighted(
        np.ones(2), np.ones(2), np.nan),
    "project_l1_ball_weighted": lambda: project_l1_ball_weighted(
        np.full(2, 3.0), np.ones(2), np.nan),
}


@pytest.mark.parametrize("build", _NAN_PARAMETERS.values(),
                         ids=_NAN_PARAMETERS.keys())
def test_nan_parameters_are_rejected(build):
    # a test lam <= 0 or radius <= 0 lets NaN through, and the operator
    # then builds and gives a NaN prox (the group norm a zero one)
    with pytest.raises(ValueError, match="positive|non-negative|lo <= hi"):
        build()


_ALL_OPERATORS = [
    Zero(), L1Norm(0.5), NonNeg(), Box(-1.0, 2.0), Hinge(0.5),
    LinfBall(1.0), L1Ball(1.0), Simplex(1.0), LinfNorm(0.5),
    MaxFunction(0.5), GroupL2(0.5, [np.array([0, 1]), np.array([2])]),
    AffineConstraint(np.array([[1.0, 1.0, 1.0]]), np.array([1.0])),
]


@pytest.mark.parametrize("op", _ALL_OPERATORS,
                         ids=lambda op: type(op).__name__)
def test_public_prox_diag_rejects_nonpositive_weights(op):
    x = np.array([0.4, -1.2, 0.7])
    assert np.all(np.isfinite(op.prox_diag(x, np.ones(3))))
    for bad in ([1.0, 0.0, 1.0], [1.0, 1.0, -2.0], [0.0, 0.0, 0.0],
                [1.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="strictly positive"):
            op.prox_diag(x, np.array(bad))


@pytest.mark.parametrize("op", _ALL_OPERATORS,
                         ids=lambda op: type(op).__name__)
def test_a_scalar_weight_is_the_equal_vector(op):
    x = np.array([0.4, -1.2, 0.7])
    for kappa in (0.5, 2.0):
        assert op.prox_diag(x, 2.5, kappa).tobytes() == \
            op.prox_diag(x, np.full(3, 2.5), kappa).tobytes()


@pytest.mark.parametrize("op", _ALL_OPERATORS,
                         ids=lambda op: type(op).__name__)
def test_public_entries_reject_a_nonpositive_kappa(op):
    # a kappa of -1 expanded the group norm's point ([1, 2, 3] gave [1.447,
    # 2.894, 4.0]) and NaN zeroed it; the support functions named their
    # set's radius, and the projections ignored kappa
    x, d = np.array([1.0, 2.0, 3.0]), np.ones(3)
    for bad in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="kappa must be positive"):
            op.prox_diag(x, d, bad)
        with pytest.raises(ValueError, match="kappa must be positive"):
            op.prox_diag_jvp(x, d, bad, np.eye(3))
        if isinstance(op, _Clip):   # unsorted rows [1, -1] for l1 at -1
            with pytest.raises(ValueError, match="kappa must be positive"):
                op.pa_descriptor(d, bad)


def test_the_max_over_no_entries_is_minus_infinity():
    assert MaxFunction(0.8).evaluate(np.zeros(0)) == -np.inf
    assert MaxFunction(0.0).evaluate(np.zeros(0)) == 0.0
    assert MaxFunction(0.0).evaluate(np.array([-3.0])) == 0.0


def test_weights_of_another_dimension_are_rejected():
    x = np.array([0.4, -1.2, 0.7])
    for op in (L1Norm(0.5), Box(-1.0, 2.0), Simplex(1.0), LinfNorm(0.5)):
        with pytest.raises(ValueError, match="dimension 4, expected 3"):
            op.prox_diag(x, np.ones(4))
    with pytest.raises(ValueError, match="explicit dimension"):
        L1Norm(0.5).pa_descriptor(2.0)


def test_function_values_match_their_closed_forms():
    x = np.array([0.5, -2.0, 0.0, 1.25])
    assert Hinge(0.8).evaluate(x) == 0.8 * 1.75
    assert Hinge(0.8).evaluate(-np.abs(x)) == 0.0
    assert LinfNorm(0.8).evaluate(x) == 0.8 * 2.0
    assert LinfNorm(0.8).evaluate(np.zeros(0)) == 0.0
    assert MaxFunction(0.8).evaluate(x) == 0.8 * 1.25
    assert MaxFunction(0.8).evaluate(-np.abs(x) - 1.0) == 0.8 * -1.0


# the feasibility tolerance of the indicators: 1e-8 (1 + scale)
_TOL = 1e-8


def test_simplex_value_at_and_near_the_simplex():
    h = Simplex(2.0)
    tol = _TOL * 3.0
    assert h.evaluate([0.5, 1.5, 0.0]) == 0.0
    # an entry and the sum just inside the tolerance
    assert h.evaluate([0.5 + 0.5 * tol, 1.5, -0.5 * tol]) == 0.0
    assert h.evaluate([0.5, 1.5 + 0.9 * tol, 0.0]) == 0.0
    # and outside it: below zero, or a sum off the radius
    assert h.evaluate([0.5 + 2 * tol, 1.5, -2 * tol]) == np.inf
    assert h.evaluate([0.5, 1.5 + 2 * tol, 0.0]) == np.inf
    assert h.evaluate([1.0, 1.5, 0.0]) == np.inf


def test_l1_ball_value_at_and_near_the_ball():
    h = L1Ball(2.0)
    tol = _TOL * 3.0
    assert h.evaluate([0.5, -1.0, 0.25]) == 0.0
    assert h.evaluate([0.5, -1.5, 0.0]) == 0.0
    assert h.evaluate([0.5, -1.5 - 0.9 * tol, 0.0]) == 0.0
    assert h.evaluate([0.5, -1.5 - 2 * tol, 0.0]) == np.inf
    assert h.evaluate([3.0, 0.0, 0.0]) == np.inf


def test_affine_constraint_value_at_and_near_its_plane():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
    b = np.array([3.0, -4.0])
    h = AffineConstraint(A, b)
    tol = _TOL * 5.0
    x = np.array([1.0, 1.0, 5.0])   # A x = b
    assert h.evaluate(x) == 0.0
    assert h.evaluate(x + [0.9 * tol, 0.0, 0.0]) == 0.0
    assert h.evaluate(x + [0.0, 0.0, 0.9 * tol]) == 0.0
    assert h.evaluate(x + [2 * tol, 0.0, 0.0]) == np.inf
    assert h.evaluate(x + [0.0, 0.0, -2 * tol]) == np.inf
    assert h.evaluate(np.zeros(3)) == np.inf


def test_affine_projection_examples(rng):
    A = np.array([[1.0, 0.0]])
    b = np.zeros(1)
    np.testing.assert_allclose(
        AffineConstraint(A, b).prox_diag([3.0, 4.0], np.ones(2)), [0.0, 4.0])
    # projection fixes feasible points
    x = np.array([0.0, -2.5])
    np.testing.assert_allclose(
        AffineConstraint(A, b).prox_diag(x, np.ones(2)), x)
    with pytest.raises(ValueError):
        AffineConstraint(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2))


def test_affine_projection_kkt(rng):
    A = rng.standard_normal((2, 5))
    z0 = rng.standard_normal(5)
    b = A @ z0
    d = rng.uniform(0.5, 2.0, 5)
    x = rng.standard_normal(5) * 2.0
    out = AffineConstraint(A, b).prox_diag(x, d)
    assert np.max(np.abs(A @ out - b)) <= 1e-10
    for w in null_space(A).T:
        assert abs(np.dot(d * (out - x), w)) <= 1e-10


def test_descriptors_reproduce_prox_pointwise(rng):
    cases = [
        (L1Norm(0.7), {}),
        (NonNeg(), {}),
        (Box(-0.4, 1.1), {}),
        (Hinge(0.9), {}),
        (LinfBall(0.8), {}),
    ]
    n = 40
    d = rng.uniform(0.5, 2.0, n)
    for op, _ in cases:
        # sorted rows, between which the prox is affine: its second
        # difference vanishes at half the distance to the nearest breakpoint
        bp = op.pa_descriptor(d, kappa=1.7)
        assert bp.shape == (n, 2) and np.all(np.diff(bp, axis=1) >= 0)
        for _ in range(25):
            z = rng.standard_normal(n) * 3.0
            step = 0.5 * np.min(np.abs(z[:, None] - bp), axis=1)
            lo, mid, hi = (op.prox_diag(z + s * step, d, 1.7)
                           for s in (-1.0, 0.0, 1.0))
            np.testing.assert_allclose(lo - 2.0 * mid + hi, 0.0, atol=1e-12)


def test_slope_rules_match_descriptor_slopes_bitwise(rng):
    # the Clarke products of the clip family and Zero scale by the slopes
    # of the pieces between pa_descriptor's breakpoints, the right-hand
    # piece's at a breakpoint: the same numbers, not merely close
    n = 60
    d = rng.uniform(0.5, 2.0, n)
    kappa = 1.3
    t = kappa * 0.7 / d
    c = kappa * 0.9 / d
    lo = rng.standard_normal(n)
    hi = lo + rng.uniform(0.0, 2.0, n)
    cases = [
        (L1Norm(0.7), [t, -t]),
        (Hinge(0.9), [c, np.zeros(n)]),
        (NonNeg(), [np.zeros(n)]),
        (Box(lo, hi), [lo, hi]),
        (Box(lo, np.inf), [lo]),
        (Box(-np.inf, hi), [hi]),
        (LinfBall(0.8), [np.full(n, 0.8), np.full(n, -0.8)]),
        (Zero(), [np.zeros(n)]),
    ]
    M = rng.standard_normal((n, 2))
    for op, kinks in cases:
        bp = op.pa_descriptor(d, kappa)
        # the pieces' slopes: a shrink's, and a clip's (Zero among them)
        slopes = np.array((1.0, 0.0, 1.0) if op._shrink else (0.0, 1.0, 0.0))
        points = [3.0 * rng.standard_normal(n) for _ in range(5)]
        for kink in kinks:
            # exactly at the breakpoints, and one ulp to either side
            points += [kink, np.nextafter(kink, -np.inf),
                       np.nextafter(kink, np.inf)]
        for z in points:
            right = np.sum(bp <= z[:, None], axis=1)
            expected = slopes[right][:, None] * M
            assert np.array_equal(op.prox_diag_jvp(z, d, kappa, M), expected)


def _assert_bound_matches(op, points, d, kappa, directions):
    # one binding, stepped at every point, gives the bits of the separate
    # prox call and of the former Jacobian products (_jacobian_reference),
    # for vector and N x r matrix directions; each product is asked for
    # only after every step, so it must keep the temporaries of its own
    # point.  Every point is stepped twice: with allocated outputs, and with
    # caller-owned ones holding NaN, which the clip family (p and a vector's
    # product) and the group norm (p) fill and return, and one shared NaN
    # work array.  A scalar d binds the weights np.full(n, d).  The public
    # prox_diag_jvp binds too, so it is held to the reference on its own:
    # shape, dtype, strides and bits
    n = points[0].size
    dv = np.full(n, d) if np.ndim(d) == 0 else d
    kept = [z.copy() for z in points]
    step = op._bind(d, kappa)
    outs = [None] * len(points) + [np.full(n, np.nan) for _ in points]
    tmp = np.full(n, np.nan)
    steps = [step(z, out, None if out is None else tmp)
             for z, out in zip(points * 2, outs)]
    for z, out, (p, jac) in zip(points * 2, outs, steps):
        assert p.tobytes() == op._prox_diag(z, dv, kappa).tobytes()
        assert (p is out) == (out is not None and op._scalar_bind)
        for w in directions:
            jw_out = None if out is None or w.ndim == 2 else \
                np.full(n, np.nan)
            jw = jac(w, jw_out)
            if w.ndim == 2:
                want = reference_jvp(op, z, dv, kappa, w)
            else:   # the former vector adapter
                want = reference_jvp(op, z, dv, kappa, w[:, None])[:, 0]
            assert _same_values(jw, want)
            assert _same_values(op.prox_diag_jvp(z, dv, kappa, w),
                                reference_jvp(op, z, dv, kappa, w))
            assert (jw is jw_out) == (
                jw_out is not None and isinstance(op, _Clip))
    assert all(z.tobytes() == k.tobytes() for z, k in zip(points, kept))


def _special_point(rng, n):
    """Entries by ``i % 6``: -0.0, +inf, -inf, NaN, 0.0, standard normal."""
    z = rng.standard_normal(n)
    kind = np.arange(n) % 6
    for k, v in enumerate((-0.0, np.inf, -np.inf, np.nan, 0.0)):
        z[kind == k] = v
    return z


def _soft_threshold_closed_form(z, t):
    return np.sign(z) * np.maximum(np.abs(z) - t, 0.0)


def _hinge_closed_form(z, c):
    return np.where(z > c, z - c, np.minimum(z, 0.0))


@pytest.mark.parametrize("vector_d", [False, True], ids=["0-d t", "vector t"])
def test_threshold_gives_the_closed_forms(rng, vector_d):
    # z - clip(z, lo, t) has the values of the closed forms, equal under
    # ==: the l1 form gives -0.0 for a negative z in the dead zone, the
    # clip form 0.0.  Ties at +-t and 0 (the hinge's c is its t), -0.0,
    # +-inf and NaN; with and without a caller's out and tmp, and through
    # the public prox_diag
    n, kappa = 60, 1.3
    d = rng.uniform(0.5, 2.0, n) if vector_d else 0.85
    for op, closed_form in ((L1Norm(0.7), _soft_threshold_closed_form),
                            (Hinge(0.9), _hinge_closed_form)):
        lo, t = op._bounds(d, kappa)
        tv = np.broadcast_to(t, (n,))
        points = [3.0 * rng.standard_normal(n), _special_point(rng, n),
                  np.zeros(n)]
        for kink in (tv, -tv):
            points += [kink.copy(), np.nextafter(kink, -np.inf),
                       np.nextafter(kink, np.inf)]
        for z in points:
            want = closed_form(z, t)
            kept = z.copy()
            for out in (None, np.full(n, np.nan)):
                for tmp in (None, np.full(n, np.nan)):
                    p = op._kernel(z, lo, t, out, tmp)
                    # into out, else into tmp, else a new array
                    assert p is (tmp if out is None else out) or \
                        out is tmp is None and p is not z
                    assert np.array_equal(p, want, equal_nan=True)
            assert np.array_equal(op.prox_diag(z, np.broadcast_to(d, (n,)),
                                               kappa), want, equal_nan=True)
            assert np.array_equal(z, kept, equal_nan=True)


def _directions(rng, n):
    """A vector, C-ordered N x 2 and N x 3 and F-ordered N x 2 matrices of
    directions."""
    return [rng.standard_normal(n), rng.standard_normal((n, 2)),
            rng.standard_normal((n, 3)),
            np.asfortranarray(rng.standard_normal((n, 2)))]


def _operator_cases(rng, n, d, kappa):
    """Every operator but the group norm, each with the points at which its
    prox in ``diag(d)`` has kinks."""
    t = kappa * 0.7 / d
    c = kappa * 0.9 / d
    lo = rng.standard_normal(n)
    hi = lo + rng.uniform(0.0, 2.0, n)
    zeros = np.zeros(n)
    return [
        (Zero(), [zeros]),
        (L1Norm(0.7), [t, -t, _special_point(rng, n)]),
        (Hinge(0.9), [c, zeros, _special_point(rng, n)]),
        (NonNeg(), [zeros]),
        (Box(lo, hi), [lo, hi]),
        (Box(lo, np.inf), [lo]),
        (Box(-np.inf, hi), [hi]),
        (LinfBall(0.8), [np.full(n, 0.8), np.full(n, -0.8)]),
        (Simplex(1.5), [zeros]),
        (L1Ball(1.5), [zeros, np.full(n, 0.01)]),
        (LinfNorm(0.6), [zeros]),
        (MaxFunction(0.6), [zeros]),
        (LinfNorm(0.0), [zeros]),
        (AffineConstraint(rng.standard_normal((2, n)),
                          rng.standard_normal(2)), [zeros]),
    ]


def _assert_bound_cases_match(rng, n):
    """``_assert_bound_matches`` for every operator but the group norm."""
    d = rng.uniform(0.5, 2.0, n)
    kappa = 1.3
    cases = _operator_cases(rng, n, d, kappa)
    directions = _directions(rng, n)
    even = np.arange(n) % 2 == 0
    for op, kinks in cases:
        points = [3.0 * rng.standard_normal(n) for _ in range(5)]
        for kink in kinks:
            # exactly at the breakpoints, and one ulp to either side; then
            # every other coordinate at the breakpoint and the rest at a
            # small value, so that the slopes differ between coordinates
            points += [kink, np.nextafter(kink, -np.inf),
                       np.nextafter(kink, np.inf),
                       np.where(even, kink, 0.01 * rng.standard_normal(n))]
        _assert_bound_matches(op, points, d, kappa, directions)


def test_fused_prox_and_jacobian_match_separate_calls_bitwise(rng):
    _assert_bound_cases_match(rng, 60)


def test_bound_matrix_products_scale_rows_when_n_equals_r(rng):
    # N = 2 with an N x 2 matrix: a bare (N,) slope mask times the matrix
    # would broadcast over its columns instead of its rows, and no shape
    # error would show it
    _assert_bound_cases_match(rng, 2)


@pytest.mark.parametrize("make_op", [
    lambda lo, hi: L1Norm(0.7), lambda lo, hi: Hinge(0.9),
    lambda lo, hi: Zero(), lambda lo, hi: NonNeg(),
    lambda lo, hi: Box(lo, hi), lambda lo, hi: Box(lo, np.inf),
    lambda lo, hi: Box(-np.inf, hi), lambda lo, hi: LinfBall(0.8)],
    ids=["l1", "hinge", "zero", "nonneg", "box", "box-lo", "box-hi",
         "linf-ball"])
@pytest.mark.parametrize("scalar_d", [False, True], ids=["vector d", "c I"])
def test_clip_slopes_at_the_breakpoints_match_the_reference(rng, make_op,
                                                            scalar_d):
    # the clip family's Clarke mask, from (z >= lo) and (z >= hi) in three
    # passes, gives the reference slope rule's products bit for bit: at z
    # exactly at lo and at hi and one ulp to either side, where a bound is
    # infinite (Zero, NonNeg, the half-open boxes), at +-inf and NaN, for
    # a vector and for column-major N x 2 blocks of directions, normal ones
    # and ones that hold -x, +-inf, NaN and -0.0 (0 * -x = -0.0, 0 * inf =
    # NaN)
    n, kappa = 36, 1.3
    lo = rng.standard_normal(n)
    op = make_op(lo, lo + rng.uniform(0.0, 2.0, n))
    d = 0.85 if scalar_d else rng.uniform(0.5, 2.0, n)
    dv = np.broadcast_to(d, (n,)).copy()
    bounds = np.broadcast_arrays(*op._bounds(dv, kappa), dv)[:2]
    points = [_special_point(rng, n), np.full(n, np.inf), np.full(n, -np.inf)]
    for b in bounds:
        points += [b.copy(), np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
    step = op._bind(d, kappa)
    # the special rows of the directions are shifted against those of the
    # points, so that a special z meets a finite direction
    blocks = [np.asfortranarray(np.roll(M, shift, axis=0)) for M in (
        _special_matrix(rng, n, 2), rng.standard_normal((n, 2)))
        for shift in (0, 1)]
    with np.errstate(invalid="ignore"):
        for z in points:
            jac = step(z)[1]
            for W in blocks:
                assert _same_values(jac(W),
                                    reference_jvp(op, z, dv, kappa, W))
                w = W[:, 0].copy()
                assert _same_values(jac(w), reference_jvp(
                    op, z, dv, kappa, w[:, None])[:, 0])


def test_jacobian_products_match_central_differences(rng):
    # every operator's Clarke product against central differences of its
    # prox along each column of M, at seeded points of three scales (a
    # search would hunt for the kinks); a column is compared only where
    # the forward and backward differences agree, so that no kink lies
    # within the step
    sizes = [3, 4, 5]
    n, kappa, h = sum(sizes), 1.3, 1e-7
    blocks = np.split(np.arange(n), np.cumsum(sizes)[:-1])
    d = np.repeat(rng.uniform(0.5, 2.0, len(sizes)), sizes)
    ops = [op for op, _ in _operator_cases(rng, n, d, kappa)]
    ops.append(GroupL2(0.7, blocks))
    M = rng.standard_normal((n, 3))
    for op in ops:
        compared = 0
        for scale in (0.1, 0.5, 3.0):
            for _ in range(10):
                z = scale * rng.standard_normal(n)
                jvp = op.prox_diag_jvp(z, d, kappa, M)
                p = op.prox_diag(z, d, kappa)
                for j in range(M.shape[1]):
                    fwd = (op.prox_diag(z + h * M[:, j], d, kappa) - p) / h
                    bwd = (p - op.prox_diag(z - h * M[:, j], d, kappa)) / h
                    if np.max(np.abs(fwd - bwd)) > 1e-6:
                        continue
                    np.testing.assert_allclose(
                        jvp[:, j], 0.5 * (fwd + bwd), rtol=0, atol=1e-6,
                        err_msg=type(op).__name__)
                    compared += 1
        assert compared >= 60, (type(op).__name__, compared)


def _special_matrix(rng, n, cols):
    """N x cols entries, ``M[i, j]`` by ``(i + j) % 6``: -x with x >= 1,
    +inf, -inf, NaN, -0.0, and standard normal."""
    M = rng.standard_normal((n, cols))
    i, j = np.indices((n, cols))
    kind = (i + j) % 6
    M[kind == 0] = -np.abs(M[kind == 0]) - 1.0
    M[kind == 1] = np.inf
    M[kind == 2] = -np.inf
    M[kind == 3] = np.nan
    M[kind == 4] = -0.0
    return M


@pytest.mark.parametrize("r", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 60, 3000])
def test_scale_rows_matches_the_broadcast_bitwise(rng, n, r):
    # the bytes, dtype and strides of v[:, None] * M, for C-ordered,
    # F-ordered and column-sliced M; a zero scale keeps IEEE products:
    # 0 * (-x) = -0.0 and 0 * inf = NaN, where a select would give 0.0
    wide = _special_matrix(rng, n, 2 * r)
    layouts = {"C": np.ascontiguousarray(wide[:, :r]),
               "F": np.asfortranarray(wide[:, r:]),
               "column-sliced": wide[:, ::2]}
    even = np.arange(n) % 2 == 0
    scales = {"bool": ~even,
              "float": np.where(even, 0.0, rng.standard_normal(n))}
    with np.errstate(invalid="ignore"):
        for layout, M in layouts.items():
            for kind, v in scales.items():
                want = v[:, None] * M
                got = _scale_rows(v, M)
                assert got.dtype == want.dtype, (layout, kind)
                assert got.strides == want.strides, (layout, kind)
                assert got.tobytes() == want.tobytes(), (layout, kind)
        assert _scale_rows(v, layouts["C"]).flags.c_contiguous
        assert _scale_rows(v, layouts["F"]).flags.f_contiguous
        out = _scale_rows(scales["bool"], layouts["C"])
    # the IEEE cases occur: row 0 is scaled by zero and holds -x first
    # (so -0.0), and +inf in its second column when r > 1
    assert np.signbit(out[0, 0]) and out[0, 0] == 0.0
    assert r == 1 or np.isnan(out[0, 1])


def test_bound_steps_take_the_scalar_of_a_uniform_diagonal_bitwise(rng):
    # the clip family and the group norm bound with a scalar c step as with
    # the vector np.full(n, c), at kinks, at -0.0, +-inf and NaN and
    # elsewhere
    n, kappa, c = 60, 1.3, 0.85
    blocks = np.split(rng.permutation(n), [1, 4, 9, 20, 33, 34, 50])
    directions = _directions(rng, n)
    normal = [3.0 * rng.standard_normal(n) for _ in range(4)]
    bound = rng.standard_normal(n)
    for op, kink in ((L1Norm(0.7), kappa * 0.7 / c),
                     (Hinge(0.9), kappa * 0.9 / c), (NonNeg(), 0.0),
                     (LinfBall(0.8), 0.8), (Box(bound, np.inf), bound),
                     (Box(-np.inf, bound), bound)):
        kink = np.broadcast_to(kink, (n,))
        points = normal + [kink, -kink, np.nextafter(kink, np.inf),
                           np.nextafter(-kink, -np.inf), np.zeros(n),
                           _special_point(rng, n)]
        _assert_bound_matches(op, points, c, kappa, directions)
    group = GroupL2(0.7, blocks)
    signed_zeros = normal[0].copy()
    signed_zeros[blocks[2]] = -0.0
    _assert_bound_matches(group, normal + [np.zeros(n), signed_zeros], c,
                          kappa, directions)


def test_fused_group_prox_matches_separate_calls_bitwise(rng):
    sizes = [1, 2, 3, 5, 1, 4, 2, 3, 6]
    n = sum(sizes)
    blocks = np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
    op = GroupL2(0.7, blocks)
    kappa = 1.3
    d = np.empty(n)
    for b in blocks:
        d[b] = rng.uniform(0.5, 2.0)
    thresh = kappa * 0.7 / d[op._firsts]
    points = [3.0 * rng.standard_normal(n) for _ in range(5)]
    for side in (0.0, -np.inf, np.inf):
        # a third of the blocks are zero, a third have their norm exactly
        # at the threshold (or one ulp to either side), a third random
        z = rng.standard_normal(n)
        for k, b in enumerate(blocks):
            if k % 3 < 2:
                z[b] = 0.0
            if k % 3 == 1:
                z[b[0]] = thresh[k] if side == 0.0 else \
                    np.nextafter(thresh[k], side)
        norms = op._block_norms(z)[0]
        assert np.all((norms[1::3] == thresh[1::3]) == (side == 0.0))
        assert not norms[0::3].any()
        points.append(z)
    _assert_bound_matches(op, points, d, kappa, _directions(rng, n))


def _same_values(got, want):
    """Equal shapes, dtypes, strides and values, with the signs of zeros
    and the places of NaNs; a NaN's own sign bit, which a sum of two NaNs
    takes from one or the other depending on the SIMD lane its element
    falls in, is not compared."""
    nan = np.isnan(want)
    return got.shape == want.shape and got.dtype == want.dtype and \
        got.strides == want.strides and np.array_equal(np.isnan(got), nan) \
        and got[~nan].tobytes() == want[~nan].tobytes()


def _group_kernel_points(rng, blocks, thresh):
    """Points for the group kernel: normal ones at three scales; zero
    blocks, block norms exactly at the threshold and one ulp to either
    side; signed zeros; +-inf and NaN entries."""
    n = sum(b.size for b in blocks)
    points = [s * rng.standard_normal(n) for s in (0.1, 1.0, 5.0)]
    for side in (0.0, -np.inf, np.inf):
        z = rng.standard_normal(n)
        for k, b in enumerate(blocks):
            if k % 3 < 2:
                z[b] = 0.0
            if k % 3 == 1:
                z[b[0]] = thresh[k] if side == 0.0 else \
                    np.nextafter(thresh[k], side)
        points.append(z)
    signed = -np.abs(rng.standard_normal(n))
    for k, b in enumerate(blocks):
        signed[b[k % 2::2]] = -0.0
        if k % 2:
            signed[b] = -0.0
    points += [signed, _special_point(rng, n)]
    return points


@pytest.mark.parametrize("order", ["in-order", "permuted"])
def test_group_kernel_keeps_the_bits_of_its_repeat_form(rng, order):
    # the segment-map kernel against a copy of the np.repeat / np.where
    # form it replaced, on blocks of 1 and 8-12 coordinates; every output
    # byte for byte: bound steps (scalar and vector weights, with and
    # without a caller's out) and their vector and N x r products, and the
    # public prox, product, value and weight check
    sizes = [1, 8, 3, 12, 1, 9, 2, 10, 1, 5, 8]
    n, kappa, lam = sum(sizes), 1.3, 0.7
    cuts = np.cumsum(sizes)[:-1]
    blocks = np.split(np.arange(n) if order == "in-order"
                      else rng.permutation(n), cuts)
    new, old = GroupL2(lam, blocks), RepeatGroupL2(lam, blocks)
    assert isinstance(new._perm, slice) == (order == "in-order")
    dv = np.empty(n)
    for b in blocks:
        dv[b] = rng.uniform(0.5, 2.0)
    directions = _directions(rng, n) + [
        _special_matrix(rng, n, 2), np.asfortranarray(
            rng.standard_normal((n, 2))), _special_matrix(rng, n, 1)[:, 0]]
    for d in (dv, 0.85):
        thresh = np.broadcast_to(kappa * lam / (
            dv[new._firsts] if np.ndim(d) else d), len(blocks))
        d_full = np.full(n, d) if np.ndim(d) == 0 else d
        points = _group_kernel_points(rng, blocks, thresh)
        # points 3-5: block norms at the threshold, one ulp below, above
        for z, rel in zip(points[3:6], (np.equal, np.less, np.greater)):
            norms = new._block_norms(z)[0]
            assert np.all(rel(norms[1::3], thresh[1::3]))
        steps = new._bind(d, kappa), old._bind(d, kappa)
        with np.errstate(all="ignore"):   # inf and NaN entries
            for z in points:
                for out in (None, np.full(n, np.nan)):
                    (p, jac), (p_old, jac_old) = [
                        step(z, None if out is None else out.copy())
                        for step in steps]
                    assert _same_values(p, p_old)
                    for w in directions:
                        assert _same_values(jac(w), jac_old(w))
                assert _same_values(new._prox_diag(z, d_full, kappa),
                                    old._prox_diag(z, d_full, kappa))
                for M in directions:
                    assert _same_values(
                        new.prox_diag_jvp(z, d_full, kappa, M),
                        old.prox_diag_jvp(z, d_full, kappa, M))
                assert _same_values(np.float64(new.evaluate(z)),
                                    np.float64(old.evaluate(z)))
    # the weight check: constant blocks, one entry off by 1e-12 relative
    # (at the test's edge) or by 3e-12, and an infinite entry, which the
    # test lets through (inf - d > 1e-12 * inf is false)
    outcomes = []
    for k, factor in ((0, 1.0), (1, 1.0 + 1e-12), (3, 1.0 + 3e-12),
                      (5, np.inf)):
        d = dv.copy()
        d[blocks[k][-1]] *= factor
        got = []
        for op in (new, old):
            try:
                got.append(op.check_weights(d, n))
            except ValueError as exc:
                got.append(str(exc))
        assert type(got[0]) is type(got[1])
        assert got[0] == got[1] if isinstance(got[0], str) else \
            _same_values(*got)
        outcomes.append(isinstance(got[0], str))
    assert outcomes[0::2] == [False, True] and not outcomes[3]


def test_nonexpansive_in_diag_metric(rng):
    ops = [L1Norm(0.6), Hinge(1.0), Simplex(1.0), L1Ball(1.0),
           LinfNorm(0.8), MaxFunction(0.7)]
    n = 12
    for op in ops:
        d = rng.uniform(0.5, 2.0, n)
        for _ in range(10):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            pa, pb = op.prox_diag(a, d, 1.0), op.prox_diag(b, d, 1.0)
            assert np.dot(pa - pb, d * (pa - pb)) <= \
                np.dot(a - b, d * (a - b)) * (1.0 + 1e-12)


def test_separable_prox_commutes_with_permutation(rng):
    op = L1Norm(0.9)
    n = 15
    x = rng.standard_normal(n)
    d = rng.uniform(0.5, 2.0, n)
    perm = rng.permutation(n)
    np.testing.assert_array_equal(op.prox_diag(x, d, 1.0)[perm],
                                  op.prox_diag(x[perm], d[perm], 1.0))


def test_projection_tie_breaking_is_permutation_invariant(rng):
    # equal entries must produce identical outputs in any input order
    x = np.array([1.0, 1.0, 0.2, 1.0])
    d = np.ones(4)
    base = Simplex(1.0).prox_diag(x, d)
    for perm in ([3, 1, 0, 2], [2, 0, 3, 1]):
        perm = np.array(perm)
        np.testing.assert_array_equal(Simplex(1.0).prox_diag(x[perm], d),
                                      base[perm])


@pytest.mark.parametrize("order", ["in-order", "permuted"])
def test_group_product_on_a_column_major_block_matches_row_major(rng, order):
    # the N x 2 product with the metric's column-major block is formed
    # column-major and equals the product with the row-major copy to
    # rounding; the vector product is the block product's column
    for n in (100, 3000):
        cuts = np.sort(rng.choice(np.arange(1, n), size=n // 6, replace=False))
        blocks = np.split(np.arange(n) if order == "in-order"
                          else rng.permutation(n), cuts)
        op = GroupL2(0.7, blocks)
        z = rng.standard_normal(n)
        jac = op._bind(0.9, 1.0)(z)[1]
        F = np.asfortranarray(rng.standard_normal((n, 2)))
        got, want = jac(F), jac(np.ascontiguousarray(F))
        assert got.flags.f_contiguous and want.flags.c_contiguous
        np.testing.assert_allclose(got, want, rtol=1e-14,
                                   atol=1e-14 * np.abs(want).max())
        for j in range(2):
            assert jac(F[:, j]).tobytes() == jac(F[:, j:j + 1])[:, 0].tobytes()

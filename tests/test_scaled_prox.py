import dataclasses
import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgesv

from proxqn import scaled
from proxqn.bench import ProblemRecipe, generate
from proxqn.metric import LowRankMetric, PlusMinusMetric
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
    ProxOperator,
    Simplex,
    Zero,
)
from proxqn.quasi_newton import QNPair, zbfgs_metric
from proxqn.scaled import (
    BracketError,
    RootFinderError,
    RootProblem,
    root_bisection,
    root_bound,
    root_exact_piecewise_affine,
    scaled_prox,
    scaled_prox_conjugate,
    scaled_prox_rank2,
)
from proxqn.solver import SolverOptions, solve
from proxqn.validate import (
    _euclid_l1_ball,
    brute_force_scaled_prox,
    dense_metric,
    euclidean_prox_for,
    sample_metric,
)


def orthant_worked_example():
    """Positive-orthant instance whose dual map equals a - (1-a)_+ near the
    root: alpha* = 1/2 and the prox is (0.5, 0) (verified by KKT)."""
    metric = LowRankMetric(np.ones(2), [np.array([1.0, 1.0])], +1)
    return metric, NonNeg(), np.array([1.0, -1.0])


def test_rank0_reduces_to_prox_diag_bitwise(rng):
    d = rng.uniform(0.5, 2.0, 9)
    metric = LowRankMetric(d)
    op = L1Norm(0.7)
    x = rng.standard_normal(9)
    p, report = scaled_prox(metric, op, x, kappa=1.3)
    assert report.method == "diagonal"
    assert np.array_equal(p, op.prox_diag(x, d, 1.3))


def test_effectively_diagonal_metric():
    # V = I + e1 e1^T is diag(2, 1): a separable soft threshold
    metric = LowRankMetric(np.ones(2), [np.array([1.0, 0.0])], +1)
    p, _ = scaled_prox(metric, L1Norm(1.0), np.array([2.0, 2.0]))
    np.testing.assert_allclose(p, [1.5, 1.0], atol=1e-12)


def test_rank1_l1_against_brute_force(rng):
    x = rng.standard_normal(4)
    u = np.array([0.5, 0.5, 0.5, 0.5])
    for sign, scale in ((+1, 1.0), (-1, 0.9)):
        # the minus case needs ||u|| scaled strictly inside the PD region
        metric = LowRankMetric(np.ones(4), [scale * u], sign)
        p, _ = scaled_prox(metric, L1Norm(1.0), x)
        z = brute_force_scaled_prox(dense_metric(metric),
                                    euclidean_prox_for("l1", {"lam": 1.0}),
                                    x, 1.0)
        np.testing.assert_allclose(p, z, atol=1e-10)


def test_exact_finder_worked_example():
    metric, op, x = orthant_worked_example()
    problem = RootProblem(metric, op, x)
    report = root_exact_piecewise_affine(problem)
    assert report.alpha_star[0] == pytest.approx(0.5, abs=1e-15)
    assert report.residual <= 1e-15
    np.testing.assert_allclose(problem.prox_at(report.alpha_star), [0.5, 0.0])
    # the map is 2a - 1 on the segment holding the root
    assert problem.map_L([0.2])[0] == pytest.approx(-0.6)
    assert problem.map_L([0.4])[0] == pytest.approx(-0.2)


def test_exact_finder_single_segment(rng):
    # h = 0 has one affine piece: L(a) = (1 + |u|^2/d) a, root 0
    d = rng.uniform(0.5, 2.0, 5)
    u = rng.standard_normal(5) * 0.5
    metric = LowRankMetric(d, [u], +1)
    report = root_exact_piecewise_affine(RootProblem(metric, Zero(),
                                                     rng.standard_normal(5)))
    assert report.alpha_star[0] == pytest.approx(0.0, abs=1e-14)


def test_exact_finder_reaches_rounding_level_in_a_wide_bracket(rng):
    # plus Grams of 1e5-1e6 and ||x|| ~ 1e6 make the bracket radius ~1e9
    # times the root's scale; the zero of the line through the bracket's
    # far ends alone loses the root's digits (h = 0 has no crossing at
    # all), and one more step along that line restores them
    n = 30
    for op in (Zero(), L1Norm(0.5)):
        for _ in range(100):
            d = rng.uniform(0.5, 2.0, n)
            u = rng.standard_normal(n)
            u *= np.sqrt(10.0 ** rng.uniform(5.0, 6.0) / np.dot(u, u / d))
            x = rng.standard_normal(n) * (1e6 / np.sqrt(n))
            problem = RootProblem(LowRankMetric(d, [u], +1), op, x)
            rep = root_exact_piecewise_affine(problem)
            alpha = float(rep.alpha_star[0])
            scale = np.abs(u) @ (np.abs(x) + np.abs(rep.point)) + abs(alpha)
            assert rep.residual <= 4.0 * n * np.finfo(float).eps * scale


def test_exact_requires_descriptor(rng):
    metric = sample_metric(rng, 5)
    with pytest.raises(ValueError):
        root_exact_piecewise_affine(
            RootProblem(metric, L1Ball(1.0), rng.standard_normal(5)))


def test_exact_rejects_a_problem_with_a_base():
    # the minus side of P + Q1 - Q2, its base the rank-1 prox in P + Q1:
    # the crossings are the diagonal prox's, not the base's, and the exact
    # finder returned a "converged" alpha = 0.4117 (residual 1.2e-5) where
    # bisection finds 0.4232, the joint Newton's point
    rng = np.random.default_rng(0)
    n = 8
    d = rng.uniform(0.5, 2.0, n)
    u1, u2 = rng.standard_normal((2, n))
    u1 *= np.sqrt(0.8 / np.dot(u1, u1 / d))
    u2 *= np.sqrt(0.3 / np.dot(u2, u2 / d))
    metric, op = PlusMinusMetric(d, [u1], [u2]), L1Norm(0.5)
    x = 2.0 * rng.standard_normal(n)
    inner = LowRankMetric(d, [u1], +1)
    problem = RootProblem(metric, op, x,
                          base=lambda z: scaled_prox(inner, op, z)[0])
    with pytest.raises(ValueError, match="base"):
        root_exact_piecewise_affine(problem)
    bis = root_bisection(problem, eps=1e-12)
    np.testing.assert_allclose(problem.prox_at(bis.alpha_star),
                               scaled_prox(metric, op, x)[0], atol=1e-9)


def test_exact_agrees_with_bisection_on_random_l1(rng):
    worst_res, worst_gap = 0.0, 0.0
    for _ in range(20):
        metric = sample_metric(rng, 50)
        x = rng.standard_normal(50)
        problem = RootProblem(metric, L1Norm(0.8), x)
        exact = root_exact_piecewise_affine(problem)
        bis = root_bisection(problem, eps=1e-10)
        worst_res = max(worst_res, exact.residual)
        worst_gap = max(worst_gap,
                        abs(exact.alpha_star[0] - bis.alpha_star[0]))
    assert worst_res <= 1e-12
    assert worst_gap <= 1e-9


def test_bisection_trivial_root():
    # x = 0 makes the bracket radius collapse and the root is 0
    metric = LowRankMetric(np.ones(3), [np.full(3, 0.4)], +1)
    report = root_bisection(RootProblem(metric, Zero(), np.zeros(3)))
    assert report.alpha_star[0] == 0.0
    assert report.iterations <= 1


def test_bisection_worked_example():
    metric, op, x = orthant_worked_example()
    report = root_bisection(RootProblem(metric, op, x), eps=1e-8)
    assert report.alpha_star[0] == pytest.approx(0.5, abs=1e-8)


def test_bisection_iteration_bound(rng):
    eps = 1e-10
    for _ in range(100):
        n = int(rng.integers(2, 30))
        metric = sample_metric(rng, n)
        x = rng.standard_normal(n)
        problem = RootProblem(metric, L1Norm(0.6), x)
        report = root_bisection(problem, eps=eps)
        beta = root_bound(problem)
        c = problem.monotonicity_modulus
        allowed = int(np.ceil(np.log2(2.0 * c * beta / eps))) + 2
        assert report.iterations <= allowed
        assert abs(report.alpha_star[0]) <= beta + 1e-12


def test_oracles_bracket_the_root_in_ill_conditioned_minus_metrics():
    # a minus Gram of 1 - 10^U(-8, -4) put NonNeg's root outside the
    # former norm bound ||u|| (2 ||x|| + s0), so both oracles raised
    # BracketError on 6 of these 200 draws; strong monotonicity bounds the
    # root for every metric
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        d = rng.uniform(0.5, 2.0, n)
        u = rng.standard_normal(n)
        u *= np.sqrt((1.0 - 10.0 ** rng.uniform(-8.0, -4.0)) /
                     np.dot(u, u / d))
        metric, x = LowRankMetric(d, [u], -1), rng.standard_normal(n)
        problem = RootProblem(metric, NonNeg(), x)
        newton = float(scaled_prox(metric, NonNeg(), x)[1].alpha_star[0])
        for report in (root_bisection(problem, eps=1e-10),
                       root_exact_piecewise_affine(problem)):
            assert abs(report.alpha_star[0] - newton) <= \
                1e-8 * max(1.0, abs(newton))


def test_bisection_rejects_an_eps_that_is_not_positive_and_finite(rng):
    # eps = inf reported converged after 2 midpoints at residual 0.036, and
    # NaN raised numpy's NaN-to-int error from the iteration budget
    metric = sample_metric(rng, 3, sign=+1)
    problem = RootProblem(metric, L1Norm(0.5), rng.standard_normal(3))
    for eps in (np.inf, np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="eps must be positive and "
                           "finite"):
            root_bisection(problem, eps=eps)


def test_bisection_signals_broken_bracket(rng):
    # corrupt the map so both bracket ends have the same sign
    metric = sample_metric(rng, 4, sign=+1)
    problem = RootProblem(metric, L1Norm(0.5), rng.standard_normal(4))
    problem.map_L = lambda alpha: np.array([1.0])
    with pytest.raises(BracketError):
        root_bisection(problem)


def test_ssnewton_one_step_on_affine_map(rng):
    A = rng.standard_normal((2, 6))
    b = A @ rng.standard_normal(6)
    metric = sample_metric(rng, 6)
    report = scaled_prox(metric, AffineConstraint(A, b),
                         rng.standard_normal(6), tol=1e-12)[1]
    assert report.iterations == 1
    assert report.residual <= 1e-12


def test_group_breakpoints_single_block():
    # (1 - a)^2 = 0.25 gives candidate breakpoints {0.5, 1.5}
    blocks = [np.arange(2)]
    op = GroupL2(0.5, blocks)
    metric = LowRankMetric(np.ones(2), [np.array([1.0, 0.0])], +1)
    x = np.array([1.0, 0.0])
    p, report = scaled_prox(metric, op, x)
    assert report.method == "ssnewton"
    z = brute_force_scaled_prox(
        dense_metric(metric),
        euclidean_prox_for("group_l1l2", {"lam": 0.5, "blocks": blocks}),
        x, 1.0)
    np.testing.assert_allclose(p, z, atol=1e-10)


def test_group_zero_factor_is_block_soft_threshold(rng):
    blocks = [np.arange(0, 2), np.arange(2, 5)]
    op = GroupL2(0.9, blocks)
    d = np.array([1.2, 1.2, 0.6, 0.6, 0.6])
    metric = LowRankMetric(d, [np.zeros(5)], +1)  # factor dropped, rank 0
    x = rng.standard_normal(5)
    p, report = scaled_prox(metric, op, x)
    assert report.method == "diagonal"
    np.testing.assert_allclose(p, op.prox_diag(x, d), atol=1e-14)


def test_group_two_oracle_agreement(rng):
    sizes = rng.integers(1, 5, size=10)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    blocks = [np.arange(s, s + k) for s, k in zip(starts, sizes)]
    n = int(np.sum(sizes))
    op = GroupL2(0.7, blocks)
    vals = rng.uniform(0.5, 2.0, len(blocks))
    d = np.empty(n)
    for bi, blk in enumerate(blocks):
        d[blk] = vals[bi]
    u = rng.standard_normal(n)
    u *= np.sqrt(0.4 / np.dot(u, u / d))
    x = rng.standard_normal(n) * 2.0
    for sign in (-1, +1):
        metric = LowRankMetric(d, [u], sign)
        p, rep = scaled_prox(metric, op, x, kappa=1.2, tol=1e-13)
        assert rep.method == "ssnewton" and rep.residual <= 1e-13
        rep_bis = root_bisection(RootProblem(metric, op, x, kappa=1.2),
                                 eps=1e-13)
        assert abs(rep.alpha_star[0] - rep_bis.alpha_star[0]) <= 1e-9
        z = brute_force_scaled_prox(
            dense_metric(metric),
            euclidean_prox_for("group_l1l2", {"lam": 0.7, "blocks": blocks}),
            x, 1.2)
        np.testing.assert_allclose(p, z, atol=1e-7)


def test_group_warm_start_returns_at_first_evaluation(rng):
    blocks = [np.arange(0, 3), np.arange(3, 7), np.arange(7, 10)]
    op = GroupL2(0.8, blocks)
    d = np.repeat([0.7, 1.4, 1.0], [3, 4, 3])
    u = rng.standard_normal(10)
    u *= np.sqrt(0.5 / np.dot(u, u / d))
    metric = LowRankMetric(d, [u], +1)
    x = rng.standard_normal(10) * 2.0
    p, cold = scaled_prox(metric, op, x)
    assert cold.iterations > 0 and cold.residual <= 1e-12
    q, warm = scaled_prox(metric, op, x, warm_alpha=cold.alpha_star)
    assert warm.method == "ssnewton"
    assert warm.iterations == 0 and len(warm.residual_history) == 1
    assert np.array_equal(q, p)


def test_group_newton_breaks_a_two_cycle():
    # the map of this group norm in a minus metric is S-shaped: Newton
    # steps from either side overshoot to the other and |L| alternates
    # about 1.09 and 1.33; the cycle check bisects once and Newton then
    # converges, long before the 50-step budget
    d = np.repeat([0.838, 1.319], 3)
    u = np.array([-0.314, -0.113, 0.995, -0.279, 0.586, -2.171])
    u *= np.sqrt(0.9 / np.dot(u, u / d))
    x = np.array([2.155, 4.639, -4.399, 1.165, -1.125, 2.313])
    blocks = [np.arange(3), np.arange(3, 6)]
    metric = LowRankMetric(d, [u], -1)
    p, rep = scaled_prox(metric, GroupL2(1.042, blocks), x)
    assert rep.method == "ssnewton" and rep.residual <= 1e-12
    assert rep.iterations <= 15
    z = brute_force_scaled_prox(
        dense_metric(metric),
        euclidean_prox_for("group_l1l2", {"lam": 1.042, "blocks": blocks}),
        x, 1.0)
    np.testing.assert_allclose(p, z, atol=1e-9)


def test_affine_closed_form_cross_method(rng):
    # V = diag(1, 2) and z_1 = 0: the prox keeps z_2 = x_2, alpha* = 0
    A = np.array([[1.0, 0.0]])
    b = np.zeros(1)
    metric = LowRankMetric(np.ones(2), [np.array([0.0, 1.0])], +1)
    op = AffineConstraint(A, b)
    x = np.array([3.0, 4.0])
    p, rep = scaled_prox(metric, op, x)
    assert rep.method == "ssnewton" and rep.iterations == 0
    np.testing.assert_allclose(p, [0.0, 4.0], atol=1e-12)
    rep_bis = root_bisection(RootProblem(metric, op, x), eps=1e-13)
    assert abs(rep.alpha_star[0] - rep_bis.alpha_star[0]) <= 1e-10


def test_affine_closed_form_feasible_point(rng):
    A = rng.standard_normal((2, 5))
    x = rng.standard_normal(5)
    b = A @ x
    metric = sample_metric(rng, 5)
    p, report = scaled_prox(metric, AffineConstraint(A, b), x)
    assert report.alpha_star[0] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(p, x, atol=1e-10)


def test_affine_closed_form_kkt(rng):
    from scipy.linalg import null_space

    A = rng.standard_normal((2, 6))
    b = A @ rng.standard_normal(6)
    metric = sample_metric(rng, 6)
    x = rng.standard_normal(6) * 2.0
    p, _ = scaled_prox(metric, AffineConstraint(A, b), x)
    assert np.max(np.abs(A @ p - b)) <= 1e-10
    V = dense_metric(metric)
    for w in null_space(A).T:
        assert abs(np.dot(V @ (p - x), w)) <= 1e-9


def test_rank2_single_sided_reductions(rng):
    d = rng.uniform(0.5, 2.0, 6)
    u = rng.standard_normal(6)
    u *= np.sqrt(0.4 / np.dot(u, u / d))
    x = rng.standard_normal(6)
    op = L1Norm(0.8)
    for pm, sign in ((PlusMinusMetric(d, [u], []), +1),
                     (PlusMinusMetric(d, [], [u]), -1)):
        p2, rep2 = scaled_prox_rank2(pm, op, x)
        p1, rep1 = scaled_prox(LowRankMetric(d, [u], sign), op, x)
        np.testing.assert_allclose(p2, p1, atol=1e-12)
        assert rep2.method == rep1.method == "ssnewton"


def test_rank2_bfgs_metric_against_brute_force(rng):
    n = 30
    s = rng.standard_normal(n)
    y = s + 0.4 * rng.standard_normal(n)
    if np.dot(s, y) <= 0:
        y = s
    _, B, skipped = zbfgs_metric(QNPair(s, y), gamma=1.0)
    assert not skipped
    op = L1Norm(0.5)
    x = rng.standard_normal(n)
    p_rec, _ = scaled_prox_rank2(B, op, x, tol=1e-12, inner_finder="exact")
    p_joint, _ = scaled_prox_rank2(B, op, x, tol=1e-12)
    z = brute_force_scaled_prox(dense_metric(B),
                                euclidean_prox_for("l1", {"lam": 0.5}), x,
                                1.0)
    np.testing.assert_allclose(p_rec, z, atol=1e-8)
    np.testing.assert_allclose(p_joint, p_rec, atol=1e-9)


def _bfgs_metric(rng, n, spread=2.0):
    """The B of ``zbfgs_metric`` on a pair with ``<s, y> > 0``."""
    s = rng.standard_normal(n)
    y = np.exp(rng.uniform(-np.log(spread), np.log(spread), n)) * s
    _, B, skipped = zbfgs_metric(QNPair(s, y))
    return B, skipped


def test_rank2_routing(rng):
    B, _ = _bfgs_metric(rng, 30)
    op = L1Norm(0.5)
    x = rng.standard_normal(30)
    assert scaled_prox_rank2(B, op, x)[1].method == "rank2-joint"
    # a non-default inner finder is the independent oracle route
    for finder in ("exact", "bisection"):
        _, rep = scaled_prox_rank2(B, op, x, tol=1e-12, inner_finder=finder)
        assert rep.method == "rank2-recursive"
    # kappa is checked for all three shapes alike, also where the joint
    # route's bound prox steps do not see it
    u1, u2 = (0.5 * U[:, 0] for U in (B.U1, B.U2))
    for pm in (B, PlusMinusMetric(B.diag, [u1], []),
               PlusMinusMetric(B.diag, [], [u2])):
        for h in (op, Box(-1.0, 1.0)):
            with pytest.raises(ValueError, match="kappa must be positive"):
                scaled_prox_rank2(pm, h, x, kappa=0.0)


@pytest.mark.parametrize("finder", ["exact", "bisection"])
def test_dispatcher_routes_a_two_sided_oracle_to_the_recursion(rng, finder):
    # one dispatcher: scaled_prox takes the oracle finders on 0BFGS's
    # metric, and scaled_prox_rank2 forwards them to it, bit for bit
    B, skipped = _bfgs_metric(rng, 30)
    assert not skipped
    x = 2.0 * rng.standard_normal(30)
    p, rep = scaled_prox(B, L1Norm(0.5), x, finder=finder)
    q, rep_q = scaled_prox_rank2(B, L1Norm(0.5), x, inner_finder=finder)
    assert rep.method == rep_q.method == "rank2-recursive"
    assert p.tobytes() == q.tobytes()
    assert rep.alpha_star.tobytes() == rep_q.alpha_star.tobytes()


def test_recursive_oracle_matches_the_joint_newton_at_kernel_scale():
    # the benchmark's rank-2 kernel input at N = 3000: the B of
    # zbfgs_metric on a pair with <s, y> > 0, L1Norm(0.5) and a standard
    # normal point; the bisection-based recursion agrees with the joint
    # Newton within the benchmark's oracle tolerance, 1e-8
    rng = np.random.default_rng(0)
    n = 3000
    s = rng.standard_normal(n)
    _, B, skipped = zbfgs_metric(QNPair(s, rng.uniform(0.5, 2.0, n) * s))
    assert not skipped
    x = rng.standard_normal(n)
    p, rep = scaled_prox_rank2(B, L1Norm(0.5), x)
    assert rep.method == "rank2-joint"
    for finder in ("exact", "bisection"):
        q, rep_q = scaled_prox_rank2(B, L1Norm(0.5), x, inner_finder=finder)
        assert rep_q.method == "rank2-recursive" and rep_q.converged
        assert np.max(np.abs(p - q)) <= 1e-8


def test_recursive_oracle_leaves_no_garbage_cycles(rng):
    # the recursion's problem holds its base prox as a callable that does
    # not refer back to the problem, so reference counting frees a call
    B, skipped = _bfgs_metric(rng, 30)
    assert not skipped
    x = rng.standard_normal(30)
    gc.collect()
    gc.disable()
    try:
        for finder in ("exact", "bisection"):
            scaled_prox(B, L1Norm(0.5), x, finder=finder)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-12])
def test_a_tolerance_that_cannot_be_met_is_rejected(rng, tol):
    # a NaN or infinite tol ended both Newtons before their first step and
    # reported the starting point converged; the dispatcher checks it
    # before any routing, for every metric shape and finder, and the
    # forward-backward entry forwards a bad one to it
    x = rng.standard_normal(8)
    metrics = (LowRankMetric(np.ones(8)), sample_metric(rng, 8),
               _bfgs_metric(rng, 8)[0])
    for metric in metrics:
        for finder in ("auto", "exact", "bisection"):
            with pytest.raises(ValueError,
                               match="tol must be finite and non-negative"):
                scaled_prox(metric, L1Norm(0.5), x, finder=finder, tol=tol)
            with pytest.raises(ValueError,
                               match="tol must be finite and non-negative"):
                scaled_prox_rank2(metric, L1Norm(0.5), x, tol=tol,
                                  inner_finder=finder)


# one non-finite entry of x makes the residual non-finite; no route may
# then report its root as converged
NONFINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


def _point_with(rng, n, bad):
    x = rng.standard_normal(n)
    x[n // 3] = bad
    return x


@NONFINITE
def test_rank2_nonfinite_point_is_not_reported_converged(rng, bad):
    # the joint Newton ends at once on a NaN or infinite residual
    B, skipped = _bfgs_metric(rng, 30)
    assert not skipped
    x = _point_with(rng, 30, bad)
    with np.errstate(invalid="ignore", over="ignore"):
        for op in (L1Norm(0.1), Box(-1.0, 1.0), LinfNorm(0.5)):
            _, rep = scaled_prox_rank2(B, op, x)
            assert not np.isfinite(rep.residual)
            assert not rep.converged


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_rank2_joint_stops_at_an_infinite_residual(rng, monkeypatch, bad):
    # Box keeps the prox point finite, so the residual is infinite, not NaN;
    # no Newton step can decrease it, so the joint route reports it as is,
    # without a step and without the recursive oracle
    B, skipped = _bfgs_metric(rng, 30)
    assert not skipped
    x = _point_with(rng, 30, bad)

    def no_oracle(*args):
        raise AssertionError("the recursive oracle ran")

    monkeypatch.setattr(scaled, "_rank2_recursive", no_oracle)
    with np.errstate(invalid="ignore", over="ignore"):
        _, rep = scaled_prox_rank2(B, Box(-1.0, 1.0), x)
    assert rep.method == "rank2-joint"
    assert rep.iterations == 0
    assert rep.converged is False
    assert rep.residual == np.inf


@NONFINITE
@pytest.mark.parametrize("rank", [1, 2])
def test_single_sign_nonfinite_point_is_not_reported_converged(rng, bad,
                                                               rank):
    # the Newton ends at its first non-finite map value
    U = rng.standard_normal((30, rank))
    U *= 0.6 / np.linalg.norm(U)   # ||U||^2 <= 0.36 < 1: both signs are SPD
    x = _point_with(rng, 30, bad)
    with np.errstate(invalid="ignore", over="ignore"):
        for op in (L1Norm(0.1), Box(-1.0, 1.0), LinfNorm(0.5)):
            for sign in (+1, -1):
                _, rep = scaled_prox(LowRankMetric(np.ones(30), U.T, sign),
                                     op, x)
                assert not np.isfinite(rep.residual)
                assert not rep.converged
                assert rep.iterations <= 1


@NONFINITE
def test_bisection_on_a_nonfinite_point_is_not_reported_converged(rng, bad):
    # the bracket radius is not finite: no iteration count can be formed;
    # the exact finder shares the bracket, on the operators with a
    # piecewise-affine descriptor
    u = 0.1 * rng.standard_normal(30)
    x = _point_with(rng, 30, bad)
    with np.errstate(invalid="ignore", over="ignore"):
        for finder, ops in (("bisection", (L1Norm(0.1), LinfNorm(0.5))),
                            ("exact", (L1Norm(0.1), Box(-1.0, 1.0)))):
            for op in ops:
                for sign in (+1, -1):
                    _, rep = scaled_prox(
                        LowRankMetric(np.ones(30), [u], sign), op, x,
                        finder=finder)
                    assert np.isnan(rep.residual)
                    assert not rep.converged


class _BadJacobianL1(L1Norm):
    """l1 norm whose bound Clarke-Jacobian products with N x r matrices, the
    joint rank-2 Newton's, go through ``_corrupt``; the vector products of
    the rank-1 Newton, the one inside the recursive oracle included, stay
    exact."""

    def _bind(self, d, kappa):
        step = super()._bind(d, kappa)

        def bad_step(z, out=None, tmp=None):
            p, jac = step(z, out, tmp)
            return p, lambda w, out=None: self._corrupt(jac(w)) \
                if w.ndim == 2 else jac(w, out)
        return bad_step


class _NaNJacobianL1(_BadJacobianL1):
    """l1 norm whose matrix Clarke-Jacobian products are NaN."""

    @staticmethod
    def _corrupt(jw):
        return np.full(jw.shape, np.nan)


class _ScaledJacobianL1(_BadJacobianL1):
    """l1 norm whose matrix Clarke-Jacobian products are 1e6 times too
    large."""

    @staticmethod
    def _corrupt(jw):
        return 1e6 * jw


@pytest.mark.parametrize("op_class", [_NaNJacobianL1, _ScaledJacobianL1])
def test_joint_newton_miss_on_the_bfgs_metric_raises(rng, op_class):
    # the (1, 1) metric of 0BFGS has no fallback: a miss of the joint Newton
    # (NaN or 1e6 times too large Jacobian products) raises through either
    # entry; the recursive oracle, whose rank-1 solves take the exact vector
    # products, still reaches the prox
    B, skipped = _bfgs_metric(rng, 30)
    assert not skipped
    op = op_class(0.5)
    x = 2.0 * rng.standard_normal(30)
    for entry in (scaled_prox, scaled_prox_rank2):
        with pytest.raises(RootFinderError, match="missed"):
            entry(B, op, x)
        # the exact products reach the root
        assert entry(B, L1Norm(0.5), x)[1].converged
    p, rep = scaled_prox_rank2(B, op, x, inner_finder="exact")
    assert rep.method == "rank2-recursive"
    z = brute_force_scaled_prox(dense_metric(B),
                                euclidean_prox_for("l1", {"lam": 0.5}), x,
                                1.0)
    np.testing.assert_allclose(p, z, atol=1e-9)


def test_joint_newton_miss_without_a_recursive_path_raises(rng):
    # the recursive oracle needs exactly one minus factor: a (2, 2) metric
    # and single-sign rank-2 metrics have none, and a miss of the joint
    # Newton (NaN or 1e6 times too large Jacobian products) raises through
    # either entry
    n = 30
    d = np.ones(n)
    x = 2.0 * rng.standard_normal(n)
    pm = PlusMinusMetric(d, _scaled_factors(rng, n, d, 2, 0.8),
                         _scaled_factors(rng, n, d, 2, 0.6))
    metrics = [pm] + [
        LowRankMetric(d, _scaled_factors(rng, n, d, 2, 0.6), sign)
        for sign in (+1, -1)]
    for metric in metrics:
        for entry in (scaled_prox, scaled_prox_rank2):
            for op_class in (_NaNJacobianL1, _ScaledJacobianL1):
                with pytest.raises(RootFinderError, match="missed"):
                    entry(metric, op_class(0.5), x)
            # the exact products reach the root
            assert entry(metric, L1Norm(0.5), x)[1].converged


def test_a_joint_newton_miss_ends_the_solve_prox_failed():
    # every joint Newton of 0BFGS misses with 1e6 times too large Jacobian
    # products: the solve ends "prox_failed" at its last accepted point,
    # with its trace; 0SR1's rank-1 Newton takes vector products, exact
    # here, and its solve is the one on the plain l1 norm
    problem = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                     seed=3))
    bad = dataclasses.replace(problem, h=_ScaledJacobianL1(problem.h.lam))
    opts = SolverOptions(max_iters=500)
    res = solve(bad, "zero-bfgs", opts)
    assert res.status == "prox_failed" and res.converged is False
    assert res.iterations >= 1 and len(res.trace) == res.iterations + 1
    assert np.isfinite(res.objective)
    assert res.objective == res.trace.objectives[-1] == bad.objective(res.x)
    want, got = solve(problem, "zero-sr1", opts), solve(bad, "zero-sr1", opts)
    assert got.status == want.status == "converged"
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.trace.objectives, want.trace.objectives)


def test_a_rank1_newton_miss_ends_the_solve_prox_failed(monkeypatch):
    # with a budget of no step every rank-1 Newton of 0SR1 (``_ssnewton``,
    # the core of the solver's step) that does not start at its root
    # misses: the solve ends "prox_failed" at its last accepted point,
    # with its trace
    problem = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                     seed=3))
    monkeypatch.setattr(scaled, "_ssnewton", functools.partial(
        scaled._ssnewton, max_iter=0))
    res = solve(problem, "zero-sr1", SolverOptions(max_iters=500))
    assert res.status == "prox_failed" and res.converged is False
    assert res.objective == problem.objective(res.x)
    assert len(res.trace) == res.iterations + 1


class _SteepVectorJacobianL1(L1Norm):
    """l1 norm whose vector Clarke-Jacobian products are 1e6 times too
    large: in a minus metric the rank-1 Newton's slope turns negative, and
    its safeguard bisects in :func:`root_bound`'s bracket, whose radius it
    takes from the one step without an ``out`` array (``bound_steps``)."""

    bound_steps = 0

    def _bind(self, d, kappa):
        step = super()._bind(d, kappa)

        def steep_step(z, out=None, tmp=None):
            self.bound_steps += out is None
            p, jac = step(z, out, tmp)
            return p, lambda w, out=None: 1e6 * jac(w, out)
        return steep_step


def _rank1_outcome(run):
    """A rank-1 solve's point, multiplier, iterations, residual history
    and method as bytes and values, or its error."""
    try:
        rep = run()
    except RootFinderError as err:
        return str(err)
    return (rep.point.tobytes(), rep.alpha_star.tobytes(), rep.iterations,
            rep.residual_history, rep.method, rep.converged)


def test_the_rank1_newton_core_agrees_with_bisection(rng):
    # scaled._route, the array-level entry of the solvers' step, on trusted
    # c I and public metrics of both signs, from cold, warm and far starts:
    # a converged root within 1e-9 of the bisection oracle's.  The steep
    # operator's slopes are 1e6 times too large: in a plus metric its
    # Newton misses, and in a minus metric its safeguard bisects in the
    # bracket of one bound step at x; the group norm's two-cycle instance
    # closes the list
    n = 24
    cases = []
    for op in (L1Norm(0.4), NonNeg(), GroupL2(0.4, _group_blocks(rng, n)),
               _SteepVectorJacobianL1(0.4)):
        for trial in range(12):
            sign = -1 if trial % 2 else +1
            c = float(np.exp(rng.uniform(-1.0, 1.0)))
            u = rng.standard_normal(n)
            u *= np.sqrt(c * rng.uniform(0.1, 0.95) / np.dot(u, u))
            metric = LowRankMetric._trusted(c, u.reshape(n, 1), sign) \
                if trial % 4 < 2 else LowRankMetric(np.full(n, c), [u], sign)
            warm = (None, np.array([0.3]), np.array([1e3]))[trial % 3]
            cases.append((op, metric, 2.0 * rng.standard_normal(n), warm,
                          float(rng.uniform(0.5, 2.0))))
    d = np.repeat([0.838, 1.319], 3)
    u = np.array([-0.314, -0.113, 0.995, -0.279, 0.586, -2.171])
    u *= np.sqrt(0.9 / np.dot(u, u / d))
    cases.append((GroupL2(1.042, [np.arange(3), np.arange(3, 6)]),
                  LowRankMetric(d, [u], -1),
                  np.array([2.155, 4.639, -4.399, 1.165, -1.125, 2.313]),
                  None, 1.0))
    for op, metric, x, warm, kappa in cases:
        steep = isinstance(op, _SteepVectorJacobianL1)
        if steep:
            op.bound_steps = 0
        xc, weights = scaled._checked(metric, op, x, kappa)

        def route():
            return scaled._route(op, xc, kappa, weights, metric.U, metric.W,
                                 metric.r1, metric.gram_norm_sq, 1e-12, warm)
        if steep and metric.sign > 0:
            with pytest.raises(RootFinderError, match="missed"):
                route()
            continue
        p, rep = route()
        assert rep.converged and rep.residual <= 1e-12
        if steep:   # the safeguard bisected, in the bracket of one bound step
            assert op.bound_steps == 1
        q, bis = scaled_prox(metric, op, x, kappa, finder="bisection")
        alpha = float(bis.alpha_star[0])
        assert abs(rep.alpha_star[0] - alpha) <= 1e-9 * max(1.0, abs(alpha))
        np.testing.assert_allclose(p, q, atol=1e-9)


def test_a_singular_joint_newton_system_raises(rng, monkeypatch):
    # a joint Newton step whose system cannot be solved is a miss, with no
    # regularized step in its place; a 0BFGS solve that meets one ends
    # "prox_failed" at its last accepted point, with its trace
    B, skipped = _bfgs_metric(rng, 30)
    assert not skipped
    x = 2.0 * rng.standard_normal(30)

    gufunc = scaled._solve

    def singular(G, F):   # the gufunc's NaNs for an exactly zero pivot
        return gufunc(np.zeros_like(G), F)

    # the pytest filter makes the gufunc's invalid-value warning an error,
    # so the miss must come from the non-finite direction alone
    monkeypatch.setattr(scaled, "_solve", singular)
    with pytest.raises(RootFinderError, match="missed .*singular"):
        scaled_prox_rank2(B, L1Norm(0.5), x)
    problem = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                     seed=3))
    res = solve(problem, "zero-bfgs", SolverOptions(max_iters=500))
    assert res.status == "prox_failed" and res.converged is False
    assert res.objective == problem.objective(res.x)
    assert len(res.trace) == res.iterations + 1


@pytest.mark.parametrize("n", [7, 100, 300])
def test_the_joint_newton_keeps_the_bits_of_np_linalg_solve(rng, n,
                                                            monkeypatch):
    # the LAPACK gufunc behind np.linalg.solve solves the r x r Newton
    # system with the bits of scipy's dgesv on the builds the suite runs
    # with: on 0BFGS's B, patching the latter in gives the same prox point,
    # multipliers and residual history
    calls = []

    def solve(G, F):
        calls.append(G.shape)
        d_ab, info = dgesv(G, F)[2:]
        assert info == 0
        return d_ab

    for k in range(20):
        B, skipped = _bfgs_metric(rng, n)
        assert not skipped
        x = 2.0 * rng.standard_normal(n)
        for op in (L1Norm(0.5), NonNeg(), GroupL2(0.5, _group_blocks(rng, n))):
            warm = None if k % 2 else 0.1 * rng.standard_normal(2)
            want, want_rep = scaled_prox_rank2(B, op, x, warm=warm)
            with monkeypatch.context() as patch:
                patch.setattr(scaled, "_solve", solve)
                got, rep = scaled_prox_rank2(B, op, x, warm=warm)
            assert rep.method == want_rep.method == "rank2-joint"
            assert got.tobytes() == want.tobytes()
            assert rep.alpha_star.tobytes() == want_rep.alpha_star.tobytes()
            assert rep.residual_history == want_rep.residual_history
    assert len(calls) >= 60 and set(calls) == {(2, 2)}


def _joint_newton_by_matmul(prox, x, kappa, weights, U, W, r1, tol, warm):
    """``(p, ab, residual_history)`` of ``scaled._joint_newton`` with every
    product formed by ``@``, as before its thin products went through
    ``ndarray.dot``: the bit reference of those products."""
    r = U.shape[1]
    Ut = U.T
    sgn = np.ones(r)
    sgn[:r1] = -1.0
    K = np.eye(r)
    K[:r1, r1:] = U[:, :r1].T @ W[:, r1:]
    step = prox._bind(weights, kappa)

    def system(ab):
        p, jac = step(x + W @ (sgn * ab))
        return Ut @ (x - p) + K @ ab, p, jac

    ab = np.zeros(r) if warm is None else np.array(warm, dtype=float)
    val, p, jac = system(ab)
    res = math.sqrt(val.dot(val))
    history = [res]
    while tol < res < math.inf and len(history) <= 60:
        G = K - (Ut @ jac(W)) * sgn
        d_ab, info = dgesv(G, val)[2:]
        assert info == 0
        t = 1.0
        for _ in range(31):
            new = ab - t * d_ab
            new_val, new_p, new_jac = system(new)
            new_res = math.sqrt(new_val.dot(new_val))
            if new_res <= (1.0 - 1e-4 * t) * res or not new_res < math.inf:
                break
            t *= 0.5
        else:
            break
        ab, val, p, jac, res = new, new_val, new_p, new_jac, new_res
        history.append(res)
    return p, ab, history


@pytest.mark.parametrize("n", [7, 300, 3000])
@pytest.mark.parametrize("ranks", [(1, 1), (2, 0), (0, 2), (2, 2)])
def test_the_joint_newton_keeps_the_bits_of_its_matmul_products(rng, n,
                                                                ranks):
    # ndarray.dot forms the thin products U1^T W2, U^T (x - p), K ab and
    # U^T (J W) with the bits of @ on the numpy and scipy builds the suite
    # runs with: the prox point, multipliers and residual history equal the
    # matmul reference's byte for byte, cold and warm, on public metrics of
    # each shape and on 0BFGS's trusted B, for a shrink, a clip and the
    # group norm
    r1, r2 = ranks
    steps = 0
    for k in range(2):
        # a diagonal constant within the groups, which the group norm needs
        blocks = _group_blocks(rng, n)
        d = np.empty(n)
        for block in blocks:
            d[block] = rng.uniform(0.5, 2.0)
        metrics = [PlusMinusMetric(
            d, _scaled_factors(rng, n, d, r1, 1.5 * k + 0.4) if r1 else [],
            _scaled_factors(rng, n, d, r2, 0.6) if r2 else [])]
        if ranks == (1, 1):
            metrics.append(_bfgs_metric(rng, n)[0])
        x = 2.0 * rng.standard_normal(n)
        for metric in metrics:
            assert metric.ranks == ranks
            for op in (L1Norm(0.5), NonNeg(), GroupL2(0.5, blocks)):
                x, weights = scaled._checked(metric, op, x, 0.9)
                for warm in (None, 0.1 * rng.standard_normal(r1 + r2)):
                    args = (op, x, 0.9, weights, metric.U, metric.W, r1,
                            1e-12, warm)
                    p, rep = scaled._joint_newton(*args)
                    want_p, want_ab, want_history = \
                        _joint_newton_by_matmul(*args)
                    assert p.tobytes() == want_p.tobytes()
                    assert rep.alpha_star.tobytes() == want_ab.tobytes()
                    assert rep.residual_history == want_history
                    steps += rep.iterations
    assert steps > 0


class _ProxOnlyL1(ProxOperator):
    """The l1 norm with a prox and neither Jacobian hook."""

    def _prox_diag(self, x, d, kappa):
        return L1Norm(0.5)._prox_diag(x, d, kappa)


def test_an_operator_without_a_jacobian_hook_raises(rng):
    # no numerical slope stands in for a missing Clarke product: both
    # Newtons raise at their first step, naming the two hooks; the
    # bisection oracle needs the prox alone
    metric = sample_metric(rng, 20)
    B, skipped = _bfgs_metric(rng, 20)
    assert not skipped
    x = 2.0 * rng.standard_normal(20)
    want, rep = scaled_prox(metric, L1Norm(0.5), x)
    assert rep.iterations > 0   # the root is not 0
    for entry, m in ((scaled_prox, metric), (scaled_prox_rank2, B)):
        with pytest.raises(NotImplementedError,
                           match="_jvp or its own _bind"):
            entry(m, _ProxOnlyL1(), x)
    p, _ = scaled_prox(metric, _ProxOnlyL1(), x, finder="bisection")
    np.testing.assert_allclose(p, want, atol=1e-9)


@pytest.mark.parametrize("op", [LinfNorm(0.7), MaxFunction(0.7)],
                         ids=["linf", "max"])
def test_support_function_proxes_end_at_rounding_in_few_steps(rng, op):
    # the exact Clarke products of the Moreau route put the Newtons on the
    # root's affine piece: at ranks 1 and 2 and both signs every prox ends
    # at a rounding-level residual within 3 steps
    for k in range(80):
        n = int(rng.integers(5, 60))
        d = rng.uniform(0.5, 2.0, n)
        rank, sign = 1 + k % 2, (+1, -1)[k // 2 % 2]
        U = _scaled_factors(rng, n, d, rank, rng.uniform(0.1, 0.8))
        x = 2.0 * rng.standard_normal(n)
        _, rep = scaled_prox(LowRankMetric(d, U, sign), op, x, kappa=1.3)
        assert rep.residual <= 1e-14 and rep.iterations <= 3, \
            (k, rep.residual, rep.iterations)


def _on_breakpoints(kind, rng, n, d, kappa, offset):
    """An operator and a point whose coordinates (block norms for the group
    norm) lie, for about half of them, at the diagonal prox's breakpoints
    moved by the relative ``offset``."""
    hit = rng.random(n) < 0.5
    z = 2.0 * rng.standard_normal(n)
    sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    lam = float(rng.uniform(0.2, 2.0))
    if kind == "group":
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(n - 1, n // 4),
                                  replace=False))
        blocks = np.split(np.arange(n), cuts)
        for blk in blocks:
            if hit[blk[0]]:
                z[blk] *= kappa * lam / d[blk[0]] * (1.0 + offset) \
                    / np.linalg.norm(z[blk])
        return GroupL2(lam, blocks), z
    if kind == "l1":
        op, bp = L1Norm(lam), sign * kappa * lam / d
    elif kind == "nonneg":
        op, bp = NonNeg(), np.zeros(n)
    elif kind == "hinge":
        op, bp = Hinge(lam), np.where(sign > 0, kappa * lam / d, 0.0)
    elif kind == "box_lo":
        lo = rng.standard_normal(n)
        op, bp = Box(lo, np.inf), lo
    else:
        hi = rng.standard_normal(n)
        op, bp = Box(-np.inf, hi), hi
    z[hit] = bp[hit] * (1.0 + offset) + offset * (bp[hit] == 0.0)
    return op, z


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40),
       kind=st.sampled_from(["l1", "nonneg", "hinge", "box_lo", "box_hi",
                             "group"]),
       offset=st.sampled_from([0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-3]),
       spread=st.floats(1.0, 10.0), kappa=st.floats(0.1, 3.0))
def test_rank2_joint_matches_recursive_near_breakpoints(seed, n, kind, offset,
                                                       spread, kappa):
    # the point x is built backwards from the solution's diagonal-prox
    # argument z, so that z sits on (or next to) the breakpoints where
    # the semi-smooth Newton's Jacobian jumps and p = prox^P(z) is known
    rng = np.random.default_rng(seed)
    B, skipped = _bfgs_metric(rng, n, spread)
    assume(not skipped)
    P = B.diag
    op, z = _on_breakpoints(kind, rng, n, P, kappa, offset)
    U1, U2 = B.U1, B.U2
    W1, W2 = U1 / P[:, None], B.W2
    p = op.prox_diag(z, P, kappa)
    a = -(U1.T @ (z - p)) / (1.0 + U1.T @ W1)[0]
    b = -(U2.T @ (z - p + W1 @ a)) / (1.0 - U2.T @ W2)[0]
    x = z - W2 @ b + W1 @ a

    p_joint, rep = scaled_prox_rank2(B, op, x, kappa=kappa)
    assert rep.method == "rank2-joint"
    assert rep.converged and rep.residual <= 1e-12
    # the recursive oracle, over the exact finder (bisection for the group
    # norm, which has no piecewise-affine descriptor)
    p_rec, rep_rec = scaled_prox_rank2(
        B, op, x, kappa=kappa,
        inner_finder="bisection" if kind == "group" else "exact")
    assert rep_rec.method == "rank2-recursive"
    np.testing.assert_allclose(p_joint, p_rec, atol=1e-9)
    np.testing.assert_allclose(p_joint, p, atol=1e-9)


@pytest.mark.parametrize("op", [L1Norm(0.6), NonNeg(), Box(-0.5, np.inf),
                                Box(-np.inf, 0.5), Box(-0.5, 0.7),
                                Hinge(0.8), Zero(),
                                GroupL2(0.6, np.split(np.arange(12), [3, 7])),
                                AffineConstraint(np.eye(2, 12), np.ones(2))])
def test_rank1_routing(rng, op):
    metric = sample_metric(rng, 12)
    if isinstance(op, GroupL2):
        # the group prox needs weights constant within each block
        d = np.repeat(rng.uniform(0.5, 2.0, 3), [3, 4, 5])
        u = rng.standard_normal(12)
        metric = LowRankMetric(d, [u * np.sqrt(0.6 / np.dot(u, u / d))], -1)
    x = rng.standard_normal(12)
    p, rep = scaled_prox(metric, op, x)
    assert rep.method == "ssnewton"
    # only the exact finder needs a piecewise-affine descriptor
    oracle = "exact" if op.pa_descriptor(metric.diag) is not None \
        else "bisection"
    q, rep_oracle = scaled_prox(metric, op, x, finder=oracle, tol=1e-13)
    assert rep_oracle.method == oracle
    np.testing.assert_allclose(p, q, atol=1e-12 if oracle == "exact"
                               else 1e-10)


@pytest.mark.parametrize("finder", ["ssnewton", "group", "closed_form"])
def test_unknown_finder_rejected(rng, finder):
    # the name is checked before the rank: a metric without factors, which
    # needs no finder, rejects it too
    x = rng.standard_normal(6)
    for metric in (sample_metric(rng, 6), LowRankMetric(np.ones(6))):
        with pytest.raises(ValueError, match="unknown finder"):
            scaled_prox(metric, L1Norm(0.5), x, finder=finder)
    for B in (_bfgs_metric(rng, 6)[0], PlusMinusMetric(np.ones(6))):
        with pytest.raises(ValueError, match="unknown finder"):
            scaled_prox_rank2(B, L1Norm(0.5), x, inner_finder=finder)


def test_rank1_newton_does_not_stop_on_equal_slopes_alone():
    # both outer pieces of the l1 prox have slope 1: from alpha = 100 the
    # Newton point alpha = 0.5 lands on the other outer piece, where the
    # map is 2, not 0; the root is -0.5 with the prox 2.5
    metric = LowRankMetric(np.ones(1), [np.array([1.0])], +1)
    p, rep = scaled_prox(metric, L1Norm(1.0), np.array([3.0]),
                         warm_alpha=[100.0])
    assert rep.residual_history[1] == 2.0
    assert rep.alpha_star[0] == -0.5 and p[0] == 2.5


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40),
       kind=st.sampled_from(["l1", "nonneg", "hinge", "box_lo", "box_hi"]),
       offset=st.sampled_from([0.0, 1e-12, -1e-12]),
       sign=st.sampled_from([+1, -1]), gram=st.floats(0.01, 0.999),
       warm=st.sampled_from([None, 0.0, -3.0, 1.0 + 1e-9, 1e3]),
       kappa=st.floats(0.1, 3.0))
def test_rank1_newton_matches_exact_sweep(seed, n, kind, offset, sign, gram,
                                          warm, kappa):
    # x is built backwards from the solution's diagonal-prox argument z,
    # which sits on (or within 1e-12 of) the breakpoints; the warm start
    # is 0 or a multiple of alpha*
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.5, 2.0, n)
    u = rng.standard_normal(n)
    u *= np.sqrt(gram / np.dot(u, u / d))
    metric = LowRankMetric(d, [u], sign)
    op, z = _on_breakpoints(kind, rng, n, d, kappa, offset)
    p = op.prox_diag(z, d, kappa)
    w = u / d
    alpha = -np.dot(u, z - p) / (1.0 + sign * np.dot(u, w))
    x = z + sign * alpha * w

    warm_alpha = None if warm is None else [warm * alpha]
    q, rep = scaled_prox(metric, op, x, kappa=kappa, warm_alpha=warm_alpha)
    assert rep.method == "ssnewton" and rep.converged
    _, rep_exact = scaled_prox(metric, op, x, kappa=kappa, finder="exact")
    np.testing.assert_allclose(q, rep_exact.point, atol=1e-9)
    np.testing.assert_allclose(q, p, atol=1e-9)


def _near_bound_case(kind, rng, n):
    """An operator with its diagonal weights: l1 at one weight for all
    coordinates, so that every threshold ties; the group norm on blocks of
    permuted coordinates; the orthant and boxes with an infinite side."""
    if kind == "group":
        blocks = _group_blocks(rng, n)
        d = np.empty(n)
        for b in blocks:
            d[b] = rng.uniform(0.5, 2.0)
        return GroupL2(float(rng.uniform(0.2, 2.0)), blocks), d
    d = rng.uniform(0.5, 2.0, n)
    if kind == "l1":
        return L1Norm(float(rng.uniform(0.2, 2.0))), np.full(n, d[0])
    if kind == "nonneg":
        return NonNeg(), d
    bound = rng.standard_normal(n)
    return (Box(-np.inf, bound) if kind == "box_hi" else Box(bound, np.inf)), d


def _near_bound_points(kind, op, d, kappa, spread, rng):
    """Two points ``spread`` apart, a third of the first on the kinks of
    the diagonal prox; for l1 also ties: coordinates at +-t and repeated
    values."""
    n = d.size
    x = 2.0 * rng.standard_normal(n)
    y = x + spread * rng.standard_normal(n)
    if kind == "l1":
        t = kappa * op.lam / d[0]
        x[::3] = t * np.where(rng.random(x[::3].size) < 0.5, -1.0, 1.0)
        y[1::3] = x[1::3] = x[1]
    elif kind != "group":
        x[::3] = np.broadcast_to(op.hi if kind == "box_hi" else op.lo,
                                 (n,))[::3]
    return x, y


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40),
       kind=st.sampled_from(["l1", "group", "nonneg", "box_hi", "box_lo"]),
       gram=st.floats(0.99, 1.0 - 1e-6), kappa=st.floats(0.1, 3.0),
       spread=st.sampled_from([1e-6, 1e-2, 1.0]))
def test_rank1_minus_prox_is_firmly_nonexpansive_near_the_gram_bound(
        seed, n, kind, gram, kappa, spread):
    # <p - q, V (x - y)> >= ||p - q||_V^2 for p, q the proxes of x, y in
    # V = P - u u^T with u^T P^-1 u = gram close to 1, where the Newton's
    # slope 1 - u^T J P^-1 u can fall to 1 - gram.  The gap is formed as
    # <p - q, V ((x - y) - (p - q))>.  A residual r of the dual map makes p
    # the exact prox of x + r V^-1 u, which moves the gap by at most
    # |r_x - r_y| |u^T (p - q)|; the rounding of the shifted points and
    # proxes moves it by a few ulps of |p - q|^T |V| (|x| + |alpha w| + |p|)
    # summed over both points.  A third of x sits on the kinks of the
    # diagonal prox
    rng = np.random.default_rng(seed)
    op, d = _near_bound_case(kind, rng, n)
    u = rng.standard_normal(n)
    u *= np.sqrt(gram / np.dot(u, u / d))
    metric = LowRankMetric(d, [u], -1)
    x, y = _near_bound_points(kind, op, d, kappa, spread, rng)
    p, rep_x = scaled_prox(metric, op, x, kappa=kappa)
    q, rep_y = scaled_prox(metric, op, y, kappa=kappa)
    assert rep_x.method == rep_y.method == "ssnewton"
    assert rep_x.converged and rep_y.converged
    dp, e = p - q, (x - y) - (p - q)
    ud = float(u @ dp)
    gap = float(dp @ (d * e)) - ud * float(u @ e)
    size = np.abs(x) + np.abs(y) + np.abs(p) + np.abs(q) + (
        abs(rep_x.alpha_star[0]) + abs(rep_y.alpha_star[0])) * np.abs(u / d)
    ulps = float(np.abs(dp) @ (d * size)) + \
        abs(ud) * float(np.abs(u) @ size)
    slack = (rep_x.residual + rep_y.residual) * abs(ud) + \
        4.0 * np.finfo(float).eps * ulps
    assert gap >= -slack, (gap, slack)


# The joint Newton misses about 1 % of these draws, on l1, the orthant and
# Box(lo, inf): a damped step crawls up to a kink of the diagonal prox
# with the Jacobian of the near side, and the search gives up (CHANGES.md,
# FOUND).  A miss marks the run xfailed; a point that breaks the property
# still fails it
@pytest.mark.xfail(raises=RootFinderError, strict=False,
                   reason="joint Newton stalls at a kink")
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40),
       kind=st.sampled_from(["l1", "group", "nonneg", "box_hi", "box_lo"]),
       gram=st.floats(0.99, 1.0 - 1e-6), plus=st.floats(0.1, 10.0),
       kappa=st.floats(0.1, 3.0), spread=st.sampled_from([1e-6, 1e-2, 1.0]),
       trusted=st.booleans())
def test_rank11_prox_is_firmly_nonexpansive_near_the_outer_gram_bound(
        seed, n, kind, gram, plus, kappa, spread, trusted):
    # the rank-1 property above for 0BFGS's shape V = P + u1 u1^T - u2 u2^T,
    # with u1^T P^-1 u1 = plus and the outer Gram u2^T (P + u1 u1^T)^-1 u2
    # = gram close to 1; trusted, a c I of the quasi-Newton constructions
    # (scalar bound steps), else the vector P.  The joint Newton's residual
    # F = (F1, F2) makes p the exact prox of x + V^-1 (U2 F2 - U1 F1),
    # which moves the gap by at most |F_x - F_y| (|u1^T dp| + |u2^T dp|);
    # the rounding term is the rank-1 one over both factors and both
    # multipliers' shift directions
    rng = np.random.default_rng(seed)
    op, d = _near_bound_case(kind, rng, n)
    if trusted:
        d = np.full(n, d[0])
    u1, u2 = rng.standard_normal((2, n))
    u1 *= np.sqrt(plus / np.dot(u1, u1 / d))
    w2 = u2 / d - (u1 / d) * (np.dot(u1, u2 / d) / (1.0 + plus))
    u2 *= np.sqrt(gram / np.dot(u2, w2))
    metric = PlusMinusMetric._trusted(d[0], u1.reshape(n, 1),
                                      u2.reshape(n, 1)) if trusted \
        else PlusMinusMetric(d, [u1], [u2])
    w1, w2 = u1 / d, metric.W2[:, 0]
    x, y = _near_bound_points(kind, op, d, kappa, spread, rng)
    p, rep_x = scaled_prox_rank2(metric, op, x, kappa=kappa)
    q, rep_y = scaled_prox_rank2(metric, op, y, kappa=kappa)
    assert rep_x.method == rep_y.method == "rank2-joint"
    assert rep_x.converged and rep_y.converged
    dp, e = p - q, (x - y) - (p - q)
    ud1, ud2 = float(u1 @ dp), float(u2 @ dp)
    gap = float(dp @ (d * e)) + ud1 * float(u1 @ e) - ud2 * float(u2 @ e)
    (a_x, b_x), (a_y, b_y) = rep_x.alpha_star, rep_y.alpha_star
    size = np.abs(x) + np.abs(y) + np.abs(p) + np.abs(q) + \
        (abs(a_x) + abs(a_y)) * np.abs(w1) + (abs(b_x) + abs(b_y)) * np.abs(w2)
    ulps = float(np.abs(dp) @ (d * size)) + \
        abs(ud1) * float(np.abs(u1) @ size) + \
        abs(ud2) * float(np.abs(u2) @ size)
    slack = (rep_x.residual + rep_y.residual) * (abs(ud1) + abs(ud2)) + \
        4.0 * np.finfo(float).eps * ulps
    assert gap >= -slack, (gap, slack)


def test_conjugate_identity_metric_reduces_to_plain_moreau(rng):
    metric = LowRankMetric(np.ones(6))
    op = L1Norm(0.9)
    x = rng.standard_normal(6)
    p, _ = scaled_prox_conjugate(metric, op, x)
    # prox of h* = indicator of the linf ball of radius 0.9
    np.testing.assert_allclose(p, np.clip(x, -0.9, 0.9), atol=1e-12)


def test_conjugate_rejects_a_nan_rho(rng):
    # a NaN rho fails its own test, not the kappa = 1/rho test behind it
    metric = sample_metric(rng, 6)
    for rho in (np.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="rho must be positive"):
            scaled_prox_conjugate(metric, L1Norm(0.5),
                                  rng.standard_normal(6), rho=rho)


def test_conjugate_route_linf_in_lowrank_metric(rng):
    d = rng.uniform(0.5, 2.0, 7)
    u = rng.standard_normal(7)
    u *= np.sqrt(0.6 / np.dot(u, u / d))
    metric = LowRankMetric(d, [u], +1)
    op = L1Ball(1.1)
    x = rng.standard_normal(7) * 2.0
    for rho in (1.0, 2.0):
        lhs, _ = scaled_prox_conjugate(metric, op, x, rho=rho, tol=1e-13)
        inv = metric.invert()
        q, _ = scaled_prox(inv, op, metric.apply(x) / rho, kappa=1.0 / rho,
                           tol=1e-13)
        np.testing.assert_allclose(lhs + rho * inv.apply(q), x, atol=1e-10)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
       sign=st.sampled_from([+1, -1]), trusted=st.booleans(),
       kind=st.sampled_from(["l1", "hinge", "nonneg"]),
       log_rho=st.floats(-1.0, 1.0), gram=st.floats(0.01, 0.95))
def test_metric_moreau_identity(seed, n, sign, trusted, kind, log_rho, gram):
    # the conjugate route (through invert()) and the direct prox of h*
    # give the same point, in public and trusted rank-1 metrics
    rng = np.random.default_rng(seed)
    h = {"l1": L1Norm(0.7), "hinge": Hinge(0.9), "nonneg": NonNeg()}[kind]
    c = float(np.exp(rng.uniform(-1.0, 1.0)))
    d = np.full(n, c) if trusted else np.exp(rng.uniform(-1.0, 1.0, n))
    u = rng.standard_normal(n)
    u *= np.sqrt(gram / np.dot(u, u / d))
    metric = LowRankMetric._trusted(c, u.reshape(n, 1), sign) if trusted \
        else LowRankMetric(d, [u], sign)
    x = 2.0 * rng.standard_normal(n)
    rho = float(np.exp(log_rho))
    lhs, _ = scaled_prox_conjugate(metric, h, x, rho=rho)
    rhs, _ = scaled_prox(metric, h.conjugate(), x, kappa=rho)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))


def test_trusted_metrics_keep_checks_and_bits(rng):
    n = 9
    blocks = [np.array([0, 3, 5]), np.array([1, 2]), np.array([4, 6, 7, 8])]
    op = GroupL2(0.8, blocks)
    u1 = rng.standard_normal(n)
    u1 *= np.sqrt(0.45 / np.dot(u1, u1))   # ||P^-1/2 u1||^2 = 0.5
    u2 = 0.5 * u1[::-1]
    x = 2.0 * rng.standard_normal(n)
    # a trusted c I skips the weight scan, with the same prox bits as the
    # public metric it equals
    for sign in (+1, -1):
        trusted = LowRankMetric._trusted(0.9, u1.reshape(n, 1), sign)
        public = LowRankMetric(np.full(n, 0.9), [u1], sign)
        p_t, rep_t = scaled_prox(trusted, op, x)
        p_p, rep_p = scaled_prox(public, op, x)
        assert np.array_equal(p_t, p_p)
        assert np.array_equal(rep_t.alpha_star, rep_p.alpha_star)
    pm_t = PlusMinusMetric._trusted(0.9, u1.reshape(n, 1), u2.reshape(n, 1))
    pm_p = PlusMinusMetric(np.full(n, 0.9), [u1], [u2])
    assert np.array_equal(scaled_prox_rank2(pm_t, op, x)[0],
                          scaled_prox_rank2(pm_p, op, x)[0])
    # but the group operator's dimension is still checked
    for m in (n - 1, n + 1):
        v1 = rng.standard_normal(m) * 0.3
        v2 = rng.standard_normal(m) * 0.1
        with pytest.raises(ValueError, match="dimension"):
            scaled_prox(LowRankMetric._trusted(0.9, v1.reshape(m, 1), +1),
                        op, np.ones(m))
        with pytest.raises(ValueError, match="dimension"):
            scaled_prox_rank2(PlusMinusMetric._trusted(
                0.9, v1.reshape(m, 1), v2.reshape(m, 1)), op, np.ones(m))
    # and a public diagonal that varies within a block still raises
    d = np.full(n, 0.9)
    d[blocks[2][1]] = 1.1
    with pytest.raises(ValueError, match="constant within blocks"):
        scaled_prox(LowRankMetric(d, [u1], +1), op, x)
    with pytest.raises(ValueError, match="constant within blocks"):
        scaled_prox_rank2(PlusMinusMetric(d, [u1], [u2]), op, x)


def _count_bound_calls(op):
    """Wrap ``op._bind`` so that prox steps and Jacobian products count."""
    counts = {"prox": 0, "jac": 0}
    bind = op._bind

    def counted_bind(d, kappa):
        step = bind(d, kappa)

        def counted_step(z, out=None, tmp=None):
            counts["prox"] += 1
            p, jac = step(z, out, tmp)

            def counted_jac(w, out=None):
                counts["jac"] += 1
                return jac(w, out)
            return p, counted_jac
        return counted_step
    op._bind = counted_bind
    return counts


def test_rank1_newton_skips_the_last_jacobian_product(rng):
    # a solve that ends at |L| <= tol asks for one Jacobian product fewer
    # than it makes prox steps: the last step's product would go unused
    n = 24
    blocks = np.split(rng.permutation(n), [3, 8, 12, 19])
    for op in (L1Norm(0.4), GroupL2(0.4, blocks)):
        for sign in (+1, -1):
            u = rng.standard_normal(n)
            u *= np.sqrt(0.6 / np.dot(u, u / 0.8))
            metric = LowRankMetric._trusted(0.8, u.reshape(n, 1), sign)
            counts = _count_bound_calls(op)
            _, report = scaled_prox(metric, op, 2.0 * rng.standard_normal(n))
            del op._bind
            assert report.method == "ssnewton" and report.residual <= 1e-12
            assert counts["prox"] == len(report.residual_history) >= 2
            assert counts["jac"] == counts["prox"] - 1


def test_base_binding_evaluates_the_prox_once_a_step(rng, monkeypatch):
    # the generic jac reads the prox of its step: a rank-1 solve on the
    # sorting projections evaluates it once per Newton step, iterations + 1
    # times, and no more inside the Jacobian products
    n = 20
    d = rng.uniform(0.5, 2.0, n)
    for op in (Simplex(1.5), L1Ball(1.5)):
        calls = []
        core = op._prox_diag
        monkeypatch.setattr(op, "_prox_diag",
                            lambda *args: calls.append(1) or core(*args))
        solves = 0
        for trial in range(10):
            u = rng.standard_normal(n)
            u *= np.sqrt(0.5 / np.dot(u, u / d))
            metric = LowRankMetric(d, [u], +1 if trial % 2 else -1)
            del calls[:]
            _, report = scaled_prox(metric, op, 3.0 * rng.standard_normal(n))
            assert report.method == "ssnewton" and report.converged
            assert len(calls) == report.iterations + 1, type(op).__name__
            solves += report.iterations > 0
        assert solves >= 5, type(op).__name__


@pytest.mark.parametrize("op", [LinfNorm(1.5), MaxFunction(1.5)],
                         ids=["linf", "max"])
def test_support_function_step_projects_once(rng, monkeypatch, op):
    # the bound step keeps its projection for the Clarke product: a rank-1
    # solve projects onto the inner set once per Newton step, iterations + 1
    # times, as the simplex does
    n = 20
    d = rng.uniform(0.5, 2.0, n)
    calls = []
    core = op._set._prox_diag
    monkeypatch.setattr(op._set, "_prox_diag",
                        lambda *args: calls.append(1) or core(*args))
    solves = 0
    for trial in range(10):
        u = rng.standard_normal(n)
        u *= np.sqrt(0.5 / np.dot(u, u / d))
        metric = LowRankMetric(d, [u], +1 if trial % 2 else -1)
        del calls[:]
        _, report = scaled_prox(metric, op, 3.0 * rng.standard_normal(n))
        assert report.method == "ssnewton" and report.converged
        assert len(calls) == report.iterations + 1
        solves += report.iterations > 0
    assert solves >= 5


def test_subgradient_inclusion_for_l1(rng):
    # V(x - p) must be an element of kappa * lam * sign structure at p
    kappa, lam = 1.4, 0.8
    for _ in range(10):
        n = int(rng.integers(3, 20))
        metric = sample_metric(rng, n)
        x = rng.standard_normal(n) * 2.0
        p, _ = scaled_prox(metric, L1Norm(lam), x, kappa=kappa)
        g = metric.apply(x - p) / (kappa * lam)
        on = np.abs(p) > 1e-12
        assert np.max(np.abs(g[on] - np.sign(p[on]))) <= 1e-8
        assert np.max(np.abs(g[~on]), initial=0.0) <= 1.0 + 1e-8


def test_monotonicity_and_lipschitz_constants(rng):
    # <L(a) - L(b), a - b> >= c ||a - b||^2 and
    # ||L(a) - L(b)|| <= Lip ||a - b|| for vector multipliers, with the
    # constants RootProblem carries
    n = 12
    d = np.repeat(rng.uniform(0.5, 2.0, 3), [3, 4, 5])
    ops = (L1Norm(0.7), Box(-0.5, 0.7),
           GroupL2(0.6, np.split(np.arange(n), [3, 7])))
    for rank in (1, 2, 3):
        for sign in (+1, -1):
            for op in ops:
                gram = rng.uniform(0.1, 0.9 if sign < 0 else 1.5)
                metric = LowRankMetric(
                    d, _scaled_factors(rng, n, d, rank, gram), sign)
                problem = RootProblem(metric, op, 2.0 * rng.standard_normal(n))
                c, lip = problem.monotonicity_modulus, problem.lipschitz_bound
                assert c == (1.0 if sign > 0 else pytest.approx(1.0 - gram))
                assert lip == pytest.approx(1.0 + gram)
                for _ in range(100):
                    a, b = rng.uniform(-3.0, 3.0, (2, rank))
                    dl, da = problem.map_L(a) - problem.map_L(b), a - b
                    assert dl @ da >= c * (da @ da) - 1e-9
                    assert np.linalg.norm(dl) <= \
                        lip * np.linalg.norm(da) + 1e-9


def test_warm_start_size_mismatch_ignored(rng):
    metric = sample_metric(rng, 5)
    p, _ = scaled_prox(metric, L1Norm(0.5), rng.standard_normal(5),
                       warm_alpha=np.zeros(0))
    assert p.shape == (5,)


def _group_blocks(rng, n):
    return np.split(rng.permutation(n), np.sort(rng.choice(
        np.arange(1, n), size=n // 4, replace=False)))


def _scalar_bind_cases(rng, n):
    """Every binding route: the clip family (scalar c), the group norm
    (scalar c), and the base binding of the affine factor cache (the
    vector)."""
    return [L1Norm(0.4), Hinge(0.3), GroupL2(0.4, _group_blocks(rng, n)),
            NonNeg(), Box(-0.2, 0.3),
            AffineConstraint(rng.standard_normal((2, n)),
                             rng.standard_normal(2))]


def _record_bound_weights(monkeypatch, op):
    weights = []
    bind = op._bind

    def recording(d, kappa):
        weights.append(d)
        return bind(d, kappa)
    monkeypatch.setattr(op, "_bind", recording)
    return weights


def test_scalar_binding_gives_the_bits_of_the_vector_diagonal(rng,
                                                              monkeypatch):
    # a trusted c I binds the clip family and the group norm with the
    # scalar c, the public metric with the same np.full(n, c) diagonal binds
    # the vector: the same points, multipliers, iterations and method
    n = 40
    for op in _scalar_bind_cases(rng, n):
        weights = _record_bound_weights(monkeypatch, op)
        for trial in range(6):
            c = float(np.exp(rng.uniform(-1.0, 1.0)))
            u1, u2 = rng.standard_normal((2, n))
            u1 *= np.sqrt(c * 0.6 / np.dot(u1, u1))
            u2 *= np.sqrt(c * 0.2 / np.dot(u2, u2))
            x = 2.0 * rng.standard_normal(n)
            sign = +1 if trial % 2 else -1
            pairs = [
                (scaled_prox,
                 LowRankMetric._trusted(c, u1.reshape(n, 1), sign),
                 LowRankMetric(np.full(n, c), [u1], sign)),
                (scaled_prox_rank2,
                 PlusMinusMetric._trusted(c, u1.reshape(n, 1),
                                          u2.reshape(n, 1)),
                 PlusMinusMetric(np.full(n, c), [u1], [u2])),
            ]
            for route, trusted, public in pairs:
                del weights[:]
                p_t, rep_t = route(trusted, op, x)
                scalar = np.ndim(weights[-1]) == 0
                p_p, rep_p = route(public, op, x)
                assert np.ndim(weights[-1]) == 1
                assert scalar == op._scalar_bind, type(op).__name__
                assert p_t.tobytes() == p_p.tobytes(), type(op).__name__
                assert rep_t.alpha_star.tobytes() == \
                    rep_p.alpha_star.tobytes()
                assert rep_t.iterations == rep_p.iterations
                assert rep_t.method == rep_p.method


def test_every_root_solver_evaluates_the_prox_through_its_binding(
        rng, monkeypatch):
    # the oracles, the bound and the map evaluate the prox in P through the
    # operator's one binding, and rank 0 is one bound step: none of them
    # calls the unchecked core
    def core(*args):
        raise AssertionError("the core _prox_diag was called")
    n = 12
    blocks = np.split(np.arange(n), [3, 7])
    d = np.repeat(rng.uniform(0.5, 2.0, 3), [3, 4, 5])
    u1, u2 = rng.standard_normal((2, n))
    u1 *= np.sqrt(0.5 / np.dot(u1, u1 / d))
    u2 *= np.sqrt(0.2 / np.dot(u2, u2 / d))
    x = 2.0 * rng.standard_normal(n)
    for op in (L1Norm(0.6), GroupL2(0.6, blocks)):
        monkeypatch.setattr(type(op), "_prox_diag", core)
        exact = ["exact"] if op.pa_descriptor(d, 1.0) is not None else []
        for sign in (+1, -1):
            rank1 = (LowRankMetric(d, [u1], sign),
                     LowRankMetric._trusted(0.9, u1.reshape(n, 1), sign))
            for metric in rank1:
                for finder in ["auto", "bisection"] + exact:
                    scaled_prox(metric, op, x, 1.3, finder)
                    scaled_prox_conjugate(metric, op, x, 0.7, finder)
                problem = RootProblem(metric, op, x, 1.3)
                root_bound(problem)
                problem.map_L([0.4])
        for metric in (LowRankMetric(d),
                       LowRankMetric._trusted(0.9, np.zeros((n, 0)))):
            scaled_prox(metric, op, x, 1.3)
        for metric in (PlusMinusMetric(d, [u1], [u2]), PlusMinusMetric._trusted(
                0.9, u1.reshape(n, 1), u2.reshape(n, 1))):
            for finder in ["auto", "bisection"] + exact:
                scaled_prox(metric, op, x, 1.3, finder)
                scaled_prox_rank2(metric, op, x, 1.3, inner_finder=finder)


def _vector_route(metric, op, x, kappa, finder, tol):
    """The oracles as they evaluated the prox before they bound the
    operator: the unchecked core at the vector ``diag(P)`` on every map
    evaluation, and on ``P + Q1 - Q2`` the recursion through this route."""
    if all(metric.ranks):
        inner = LowRankMetric(metric.diag, metric.U1.T, +1)
        problem = RootProblem(metric, op, x, kappa, base=lambda z: _vector_route(
            inner, op, z, kappa, finder, min(tol, 1e-13))[0])
        report = root_bisection(problem, eps=tol)
        return problem.prox_at(report.alpha_star), report
    problem = RootProblem(metric, op, x, kappa)
    diag = metric.diag
    problem.base = lambda z: op._prox_diag(z, diag, float(kappa))
    problem._step = lambda z: (problem.base(z), None)
    report = root_exact_piecewise_affine(problem) if finder == "exact" else \
        root_bisection(problem, eps=tol)
    return report.point if report.point is not None else \
        problem.prox_at(report.alpha_star), report


def _same_route(route, ref):
    (p, rep), (p_ref, rep_ref) = route, ref
    return p.tobytes() == p_ref.tobytes() and \
        rep.alpha_star.tobytes() == rep_ref.alpha_star.tobytes() and \
        rep.iterations == rep_ref.iterations


def test_the_oracles_keep_the_bits_of_the_vector_diagonal(rng):
    # the bound oracle points, on a trusted c I (which binds the clip family
    # and the group norm with the scalar c) and on a public diagonal, of
    # either sign, are those of the core at the vector diag(P)
    n = 16
    blocks = np.split(rng.permutation(n), [4, 9, 13])
    ops = [Zero(), L1Norm(0.6), NonNeg(), Box(-0.4, 0.5), Hinge(0.5),
           LinfBall(0.8), L1Ball(1.2), Simplex(1.2), LinfNorm(0.6),
           MaxFunction(0.6), GroupL2(0.6, blocks),
           AffineConstraint(rng.standard_normal((2, n)),
                            rng.standard_normal(2))]
    d = np.empty(n)
    for b in blocks:   # constant within the group norm's blocks
        d[b] = rng.uniform(0.5, 2.0)
    for op in ops:
        finders = ["bisection"]
        if op.pa_descriptor(d, 1.0) is not None:
            finders.append("exact")
        for trial in range(6):
            sign = +1 if trial % 2 else -1
            c, kappa = np.exp(rng.uniform(-1.0, 1.0, 2))
            u = rng.standard_normal(n)
            x = 2.0 * rng.standard_normal(n)
            for metric in (
                    LowRankMetric._trusted(c, (u * np.sqrt(
                        c * 0.6 / u.dot(u))).reshape(n, 1), sign),
                    LowRankMetric(d, [u * np.sqrt(0.6 / u.dot(u / d))], sign)):
                for finder in finders:
                    ref = _vector_route(metric, op, x, kappa, finder, 1e-12)
                    assert _same_route(scaled_prox(metric, op, x, kappa,
                                                   finder), ref), \
                        (type(op).__name__, finder)


@pytest.mark.parametrize("kind", ["l1", "group"])
def test_the_rank2_recursion_keeps_the_bits_of_the_vector_diagonal(rng, kind):
    n = 3000
    op = L1Norm(0.6) if kind == "l1" else GroupL2(0.6, _group_blocks(rng, n))
    for trusted in (True, False):
        u1, u2 = rng.standard_normal((2, n))
        u1 *= np.sqrt(0.6 * 0.9 / u1.dot(u1))
        u2 *= np.sqrt(0.2 * 0.9 / u2.dot(u2))
        metric = PlusMinusMetric._trusted(
            0.9, u1.reshape(n, 1), u2.reshape(n, 1)) if trusted else \
            PlusMinusMetric(np.full(n, 0.9), [u1], [u2])
        x = 2.0 * rng.standard_normal(n)
        for finder in ["bisection"] + (["exact"] if kind == "l1" else []):
            ref = _vector_route(metric, op, x, 1.3, finder, 1e-12)
            route = scaled_prox_rank2(metric, op, x, 1.3, inner_finder=finder)
            assert route[1].method == "rank2-recursive"
            assert _same_route(route, ref), (trusted, finder)


def _factors(metric):
    return np.hstack((metric.U1, metric.U2))


def test_prox_points_do_not_alias_across_calls_or_inputs(rng):
    # each call returns a point of its own and writes neither x nor U
    n = 30
    for op in _scalar_bind_cases(rng, n):
        u1, u2 = rng.standard_normal((2, n))
        u1 *= np.sqrt(0.4 / np.dot(u1, u1))
        u2 *= np.sqrt(0.1 / np.dot(u2, u2))
        metrics = [
            (scaled_prox, LowRankMetric._trusted(0.8, u1.reshape(n, 1), +1)),
            (scaled_prox, LowRankMetric(np.full(n, 0.8), [u1], -1)),
            (scaled_prox_rank2, PlusMinusMetric._trusted(
                0.8, u1.reshape(n, 1), u2.reshape(n, 1))),
        ]
        for route, metric in metrics:
            U = np.array(_factors(metric))
            x1, x2 = 2.0 * rng.standard_normal((2, n))
            x1_copy, x2_copy = x1.copy(), x2.copy()
            p1, _ = route(metric, op, x1)
            kept = p1.copy()
            p2, _ = route(metric, op, x2)
            assert not np.shares_memory(p1, p2)
            assert p1.tobytes() == kept.tobytes()
            assert x1.tobytes() == x1_copy.tobytes()
            assert x2.tobytes() == x2_copy.tobytes()
            assert U.tobytes() == _factors(metric).tobytes()


@pytest.mark.parametrize("max_iter", [0, 1])
def test_rank1_newton_budget_miss_raises(rng, max_iter, monkeypatch):
    # a rank-1 Newton that needs more than max_iter steps raises, on a
    # separable operator (L1Norm) and on one without a piecewise-affine
    # descriptor (GroupL2) alike; one that ends within the budget gives
    # the full run's point
    n, tol = 40, 1e-12
    missed = {L1Norm: 0, GroupL2: 0}
    budget = functools.partial(scaled._ssnewton, max_iter=max_iter)
    for op in (L1Norm(2.0), GroupL2(2.0, _group_blocks(rng, n))):
        for sign in (+1, -1) * 4:
            u = rng.standard_normal(n)
            u *= np.sqrt(0.7 / np.dot(u, u))
            metric = LowRankMetric(np.ones(n), [u], sign)
            x = 3.0 * rng.standard_normal(n)
            full = scaled_prox(metric, op, x, tol=tol)[1]
            with monkeypatch.context() as patch:
                patch.setattr(scaled, "_ssnewton", budget)
                if len(full.residual_history) <= max_iter + 1:
                    rep = scaled_prox(metric, op, x, tol=tol)[1]
                    assert rep.point.tobytes() == full.point.tobytes()
                    continue
                with pytest.raises(RootFinderError, match="missed"):
                    scaled_prox(metric, op, x, tol=tol)
            missed[type(op)] += 1
    assert missed[L1Norm] and missed[GroupL2]


# -- metrics of rank >= 2 against the dense oracle ----------------------------

_HIGH_RANK_OPS = ["l1", "box", "hinge", "group", "linf"]


def _high_rank_op(kind, rng, n):
    """An operator, its independent Euclidean prox and weights ``d`` it
    accepts (constant within each block for the group norm)."""
    blocks = np.split(np.arange(n), [3, 7])
    d = np.repeat(rng.uniform(0.5, 2.0, 3), [3, 4, n - 7])
    if kind == "l1":
        return L1Norm(0.6), euclidean_prox_for("l1", {"lam": 0.6}), d
    if kind == "box":
        return Box(-0.5, 0.7), \
            euclidean_prox_for("box", {"lo": -0.5, "hi": 0.7}), d
    if kind == "hinge":
        return Hinge(0.8), euclidean_prox_for("hinge", {"lam": 0.8}), d
    if kind == "group":
        return GroupL2(0.6, blocks), euclidean_prox_for(
            "group_l1l2", {"lam": 0.6, "blocks": blocks}), d
    # h = 0.7 ||.||_inf takes its Jacobian product through the l1-ball
    # projector; its Euclidean prox is v minus the projection onto the l1
    # ball of 0.7 t
    return LinfNorm(0.7), lambda v, t: v - _euclid_l1_ball(v, 0.7 * t), d


def _scaled_factors(rng, n, d, r, gram):
    """``r`` random factors with ``||P^{-1/2} U||^2 = gram``, as rows."""
    U = rng.standard_normal((n, r))
    U *= np.sqrt(gram / np.linalg.eigvalsh(U.T @ (U / d[:, None]))[-1])
    return U.T


@pytest.mark.parametrize("kind", _HIGH_RANK_OPS)
@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("rank", [2, 3])
def test_single_sign_high_rank_prox_against_brute_force(rng, kind, sign,
                                                        rank):
    n = 12
    op, euclid, d = _high_rank_op(kind, rng, n)
    for gram in (0.3, 0.8):
        metric = LowRankMetric(d, _scaled_factors(rng, n, d, rank, gram),
                               sign)
        x = 2.0 * rng.standard_normal(n)
        p, rep = scaled_prox(metric, op, x, kappa=1.3)
        assert rep.converged and rep.residual <= 1e-12
        z = brute_force_scaled_prox(dense_metric(metric), euclid, x, 1.3,
                                    tol=1e-15)
        np.testing.assert_allclose(p, z, atol=1e-8)


@pytest.mark.parametrize("kind", _HIGH_RANK_OPS)
@pytest.mark.parametrize("ranks", [(2, 2), (3, 1), (1, 2)])
def test_plus_minus_high_rank_prox_against_brute_force(rng, kind, ranks):
    n = 12
    op, euclid, d = _high_rank_op(kind, rng, n)
    for plus_gram in (0.4, 1.5):
        # ||P^{-1/2} U2||^2 < 1 keeps P - Q2, hence P + Q1 - Q2, SPD
        metric = PlusMinusMetric(
            d, _scaled_factors(rng, n, d, ranks[0], plus_gram),
            _scaled_factors(rng, n, d, ranks[1], 0.6))
        x = 2.0 * rng.standard_normal(n)
        p, rep = scaled_prox_rank2(metric, op, x, kappa=0.9)
        assert rep.converged and rep.residual <= 1e-12
        z = brute_force_scaled_prox(dense_metric(metric), euclid, x, 0.9,
                                    tol=1e-15)
        np.testing.assert_allclose(p, z, atol=1e-8)


def test_the_rank1_route_keeps_its_bits_on_a_column_of_a_block(rng):
    # an (N, 1) factor is C- and F-contiguous at once: the route on a
    # standalone column and on the same column inside a column-major block
    # gives the same point, multiplier and residual history bit for bit
    for n in (7, 100, 3000):
        for op in (L1Norm(0.4), NonNeg(), GroupL2(0.4, _group_blocks(rng, n))):
            for sign, warm in ((+1, None), (-1, None), (-1, np.array([0.2]))):
                c = float(np.exp(rng.uniform(-1.0, 1.0)))
                u = rng.standard_normal(n)
                u *= np.sqrt(c * rng.uniform(0.1, 0.95) / np.dot(u, u))
                m = LowRankMetric._trusted(c, u.reshape(n, 1), sign)
                U, W = (np.empty((n, 3), order="F") for _ in range(2))
                U[:, 1:2], W[:, 1:2] = m.U, m.W
                x = 2.0 * rng.standard_normal(n)
                outcomes = [_rank1_outcome(lambda: scaled._route(
                    op, x, 1.0, c, U_, W_, int(sign > 0), m.gram_norm_sq,
                    1e-12, warm)[1])
                    for U_, W_ in ((m.U, m.W), (U[:, 1:2], W[:, 1:2]))]
                assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("n", [7, 100, 3000])
def test_the_joint_newton_on_the_blocks_matches_the_dense_oracle(rng, n):
    # the joint Newton reads 0BFGS's column-major blocks as they are; its
    # prox agrees with the brute-force prox in the dense metric, whose step
    # the three operators share (the eigenvalues at N = 3000 take seconds)
    B, skipped = _bfgs_metric(rng, n)
    assert not skipped and B.U.flags.f_contiguous and B.W.flags.f_contiguous
    V = dense_metric(B)
    ew = np.linalg.eigvalsh(V)
    blocks = _group_blocks(rng, n)
    x = 2.0 * rng.standard_normal(n)
    for op, kind, params in ((L1Norm(0.5), "l1", {"lam": 0.5}),
                             (NonNeg(), "nonneg", {}),
                             (GroupL2(0.5, blocks), "group_l1l2",
                              {"lam": 0.5, "blocks": blocks})):
        p, rep = scaled_prox_rank2(B, op, x)
        assert rep.method == "rank2-joint" and rep.converged
        z = brute_force_scaled_prox(V, euclidean_prox_for(kind, params), x,
                                    step=2.0 / (ew[-1] + ew[0]))
        np.testing.assert_allclose(p, z, atol=1e-8)

import math
import time

import numpy as np
import pytest

from proxqn.bench import ProblemRecipe, generate
from proxqn.metric import LowRankMetric
from proxqn import solver
from proxqn.prox import GroupL2, L1Norm, NonNeg, ProxOperator, Zero
from proxqn.quasi_newton import (QNPair, _sr1_factors, _zbfgs_factors,
                                  sr1_metric, zbfgs_metric)
from proxqn.scaled import _checked, scaled_prox_rank2
from proxqn.solver import (
    SOLVERS,
    ProblemSpec,
    SolverOptions,
    fb_step,
    fixed_point_residual,
    line_search,
    run_fista_bb,
    run_ista,
    run_spg_sparsa,
    run_zero_bfgs,
    run_zero_sr1,
    solve,
)
from proxqn.validate import (
    brute_force_scaled_prox,
    dense_metric,
    euclidean_prox_for,
    _quadratic_l1_problem,
)

from _group_reference import RepeatGroupL2


def quadratic_problem(Q, b, h):
    return ProblemSpec(
        dim=len(b),
        f=lambda x: 0.5 * float(x @ Q @ x) - float(b @ x),
        grad=lambda x: Q @ x - b,
        h=h,
        lipschitz=float(np.linalg.eigvalsh(Q)[-1]),
    )


def _factored(H, B, h):
    """``fb_step``'s factored forms of the metric ``H`` and its inverse
    ``B``, with the weights that the checked route binds ``h`` with."""
    weights = _checked(B, h, np.zeros(B.dim), 1.0)[1]
    return ((H.diag if H.c is None else H.c, H.U1, H.U2),
            (weights, B.U, B.W, B.r1, B.gram_norm_sq))


def test_fb_step_plain_gradient(rng):
    Q = np.eye(3) * 2.0
    prob = quadratic_problem(Q, rng.standard_normal(3), Zero())
    x = rng.standard_normal(3)
    H = LowRankMetric(np.ones(3))
    xbar, _ = fb_step(x, prob.grad(x), *_factored(H, H.invert(), prob.h),
                      prob.h, kappa=1.0 / prob.lipschitz)
    np.testing.assert_allclose(
        xbar, x - prob.grad(x) / prob.lipschitz, atol=1e-14)


def test_fb_step_projected_gradient(rng):
    Q = np.diag([1.0, 3.0])
    prob = quadratic_problem(Q, np.array([-1.0, 2.0]), NonNeg())
    x = np.array([0.2, 0.1])
    H = LowRankMetric(np.ones(2))
    xbar, _ = fb_step(x, prob.grad(x), *_factored(H, H.invert(), prob.h),
                      prob.h, kappa=1.0 / 3.0)
    np.testing.assert_allclose(
        xbar, np.maximum(x - prob.grad(x) / 3.0, 0.0), atol=1e-14)


def test_fb_step_matches_model_minimizer(rng):
    # candidate = argmin of the quadratic model plus h, checked brute force
    s = rng.standard_normal(2)
    y = s + 0.3 * rng.standard_normal(2)
    H = sr1_metric(QNPair(s, y))
    B = H.invert()
    prob = quadratic_problem(np.diag([1.0, 2.0]), rng.standard_normal(2),
                             L1Norm(0.4))
    x = rng.standard_normal(2)
    kappa = 0.7
    xbar, _ = fb_step(x, prob.grad(x), *_factored(H, B, prob.h), prob.h,
                      kappa=kappa)
    forward = x - kappa * H.apply(prob.grad(x))
    z = brute_force_scaled_prox(dense_metric(B),
                                euclidean_prox_for("l1", {"lam": 0.4}),
                                forward, kappa)
    np.testing.assert_allclose(xbar, z, atol=1e-10)


def _newton_start(B, back):
    """``K^{-1} U^T back``, formed as the solvers' step forms it from the
    blocks of ``B``: the multipliers at which the prox in ``B`` at ``x``
    returns ``x + back``."""
    Ut, r1 = B.U.T, B.r1
    alpha = Ut.dot(back)
    if B.rank > 1:   # K - I is the block U1^T W2
        alpha[:r1] -= Ut[:r1].dot(B.W[:, r1:]).dot(alpha[r1:])
    return alpha


_N = 12
_BLOCKS = [range(0, 3), range(3, 4), range(4, 9), range(9, 12)]


@pytest.mark.parametrize("variant", ["sr1", "bfgs"])
@pytest.mark.parametrize("h, vector", [
    (L1Norm(0.3), False), (NonNeg(), False), (GroupL2(0.5, _BLOCKS), True),
], ids=["l1", "nonneg", "group-vector-weights"])
def test_fb_step_keeps_the_bits_of_the_checked_route(rng, variant, h, vector):
    # the loop's step on a builder's factored forms gives the point and
    # alpha* of the checked route, scaled_prox_rank2 on the public metrics
    # at x - kappa H.apply(g), byte for byte: cold, then warm from the
    # cold alpha* at a nearby point, as the loop continues it; the group
    # norm's Newton starts at K^-1 U^T kappa H g instead, on both passes
    ranks = set()
    for _ in range(15):
        s = rng.standard_normal(_N)
        pair = QNPair(s, s * rng.uniform(0.5, 2.0, _N)
                      + 0.3 * rng.standard_normal(_N))
        if variant == "sr1":
            H, B, _ = _sr1_factors(pair, 0.8, _N, 0.5)
            Hm = sr1_metric(pair, 0.8, tau0=0.5)
            Bm = Hm.invert()
        else:
            H, B, _ = _zbfgs_factors(pair, 1.0, _N, 0.5)
            Hm, Bm, _ = zbfgs_metric(pair, 1.0, 0.5)
        ranks.add(Bm.ranks)
        B = (np.full(_N, B[0]) if vector else B[0], *B[1:])
        kappa = float(rng.uniform(0.3, 1.5))
        x, g = 2.0 * rng.standard_normal((2, _N))
        warm = None
        for _ in ("cold", "warm"):
            p, report = fb_step(x, g, H, B, h, kappa, warm)
            back = kappa * Hm.apply(g)
            start = warm if h.separable else _newton_start(Bm, back)
            want_p, want = scaled_prox_rank2(Bm, h, x - back, kappa=kappa,
                                             warm=start)
            assert p.tobytes() == want_p.tobytes()
            assert report.alpha_star.tobytes() == want.alpha_star.tobytes()
            x, warm = x + 0.1 * rng.standard_normal(_N), report.alpha_star
    assert ranks == ({(0, 1)} if variant == "sr1" else {(1, 1)})


@pytest.mark.parametrize("variant", ["sr1", "bfgs"])
def test_the_group_newton_takes_no_step_at_a_fixed_point(rng, variant):
    # with g = -lam x_b/||x_b|| on the nonzero blocks of x and ||g_b|| < lam
    # on its zero blocks, -g is a subgradient of the group norm at x, so x
    # is the prox of the step in every metric: the Newton starts at the
    # multipliers at which the prox returns x, its root, and takes no step
    lam = 0.5
    h = GroupL2(lam, _BLOCKS)
    for draw in range(10):
        s = rng.standard_normal(_N)
        pair = QNPair(s, s * rng.uniform(0.5, 2.0, _N)
                      + 0.3 * rng.standard_normal(_N))
        build = _sr1_factors if variant == "sr1" else _zbfgs_factors
        H, B, _ = build(pair, 0.8 if variant == "sr1" else 1.0, _N, 0.5)
        B = (np.full(_N, B[0]), *B[1:])
        x, g = rng.standard_normal((2, _N))
        for k, block in enumerate(_BLOCKS):
            if (k + draw) % 2:   # a zero block, ||g_b|| < lam
                x[block] = 0.0
                g[block] *= rng.uniform(0.1, 0.9) * lam \
                    / np.linalg.norm(g[block])
            else:
                g[block] = -lam * x[block] / np.linalg.norm(x[block])
        p, report = fb_step(x, g, H, B, h, float(rng.uniform(0.3, 1.5)))
        assert report.iterations == 0 and report.converged
        np.testing.assert_allclose(p, x, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("solver_id", ["zero-sr1", "zero-bfgs"])
def test_the_group_newton_stays_cheap_on_the_desk_instance(monkeypatch,
                                                           solver_id):
    # started at the multipliers that return the current iterate, each
    # step's prox takes at most 3.5 group prox evaluations on average on
    # the desk group LASSO (from the last step's multipliers it took 6.2
    # for 0SR1 and 4.9 for 0BFGS); the counts are deterministic
    prob = generate(ProblemRecipe("group_lasso", m=64, n=100, lam=1.0,
                                  block_cap=12, seed=1))
    counts = {"steps": 0, "proxes": 0, "inside": False}
    step, prox_step = solver.fb_step, prob.h._step

    def counted_step(*args):
        counts["steps"] += 1
        counts["inside"] = True
        try:
            return step(*args)
        finally:
            counts["inside"] = False

    def counted_prox(*args):
        counts["proxes"] += counts["inside"]
        return prox_step(*args)

    monkeypatch.setattr(solver, "fb_step", counted_step)
    monkeypatch.setattr(prob.h, "_step", counted_prox)
    res = solve(prob, solver_id, SolverOptions(tol=1e-10, max_iters=12500))
    assert res.status == "converged"
    assert counts["proxes"] <= 3.5 * counts["steps"]


def test_line_search_modes(rng):
    prob = quadratic_problem(np.eye(2), np.zeros(2), Zero())
    x = np.array([1.0, 1.0])
    p = -x  # exact Newton direction: full step admissible
    f_x = prob.objective(x)
    t, f_new, stagnated = line_search(prob, x, p, f_x, kappa=1.0)
    assert t == 1.0 and not stagnated
    # overscaled direction forces backtracking
    t, _, _ = line_search(prob, x, -8.0 * x, f_x, kappa=1.0)
    assert t < 1.0
    t, f_new, _ = line_search(prob, x, -3.0 * x, f_x, kappa=0.5)
    assert f_new <= f_x - 1e-4 * t * np.dot(3.0 * x, 3.0 * x) / 0.5
    assert line_search(prob, x, p, f_x, kappa=1.0, mode="none")[0] == 1.0


def test_zero_sr1_scalar_quadratic():
    prob = quadratic_problem(np.eye(1), np.zeros(1), Zero())
    res = run_zero_sr1(prob, SolverOptions(x0=np.array([1.0]), tol=1e-12))
    assert res.converged
    assert abs(res.x[0]) <= 1e-10


def test_quasi_newton_solvers_reach_reference(rng):
    prob = _quadratic_l1_problem(rng, 25, mu=0.5, L=6.0, lam=0.4)
    for runner in (run_zero_sr1, run_zero_bfgs):
        res = runner(prob, SolverOptions(tol=1e-12, max_iters=3000))
        assert res.objective - prob.f_star <= 1e-8
        assert fixed_point_residual(prob, res.x) <= 1e-8


def test_monotone_objective_under_backtracking(rng):
    prob = _quadratic_l1_problem(rng, 15, mu=0.2, L=10.0, lam=0.3)
    opts = SolverOptions(max_iters=300, tol=0.0,
                         x0=rng.standard_normal(15) * 5.0)
    for runner in (run_zero_sr1, run_zero_bfgs):
        res = runner(prob, opts)
        obj = np.asarray(res.trace.objectives)
        assert np.all(np.diff(obj) <= 1e-8 * (1.0 + np.abs(obj[:-1])))


def test_ista_scalar_fixed_point():
    prob = quadratic_problem(np.eye(1), np.array([2.0]), L1Norm(0.5))
    res = run_ista(prob, SolverOptions(tol=1e-12, max_iters=2000))
    assert res.converged
    assert res.x[0] == pytest.approx(1.5, abs=1e-9)  # soft(2, 0.5)


def test_fista_beats_ista_iterations(rng):
    prob = _quadratic_l1_problem(rng, 40, mu=0.01, L=20.0, lam=0.2)
    opts = SolverOptions(tol=0.0, max_iters=4000)
    res_f = run_fista_bb(prob, opts)
    res_i = run_ista(prob, opts)
    res_f.trace.f_star = prob.f_star
    res_i.trace.f_star = prob.f_star
    k_f = res_f.trace.iterations_to_error(1e-6)
    k_i = res_i.trace.iterations_to_error(1e-6)
    assert k_f is not None
    assert k_i is None or k_f < k_i


def test_baselines_agree_with_reference(rng):
    prob = _quadratic_l1_problem(rng, 20, mu=0.3, L=5.0, lam=0.3)
    for runner in (run_ista, run_fista_bb, run_spg_sparsa):
        res = runner(prob, SolverOptions(tol=1e-12, max_iters=20000))
        assert res.objective - prob.f_star <= 1e-8


def test_solver_determinism(rng):
    prob = _quadratic_l1_problem(rng, 12, mu=0.5, L=4.0, lam=0.3)
    opts = SolverOptions(max_iters=80, tol=0.0)
    a = run_zero_sr1(prob, opts)
    b = run_zero_sr1(prob, opts)
    assert np.array_equal(a.x, b.x)
    assert a.trace.objectives == b.trace.objectives
    assert a.trace.step_norms == b.trace.step_norms


def test_unknown_solver_id():
    with pytest.raises(KeyError):
        solve(None, "nope")


@pytest.mark.parametrize("kwargs", [
    dict(tol=float("nan")), dict(tol=-1e-3), dict(budget_seconds=0.0),
    dict(budget_seconds=-1.0), dict(budget_seconds=float("nan")),
    dict(kappa=0.0), dict(kappa=-1.0), dict(kappa=float("nan")),
    dict(line_search="armijo"), dict(max_iters=0), dict(max_iters=-3),
    dict(gamma=0.0), dict(gamma=-1.0), dict(gamma=float("nan")),
], ids=["nan-tol", "negative-tol", "zero-budget", "negative-budget",
        "nan-budget", "zero-kappa", "negative-kappa", "nan-kappa",
        "unknown-line-search", "zero-max-iters", "negative-max-iters",
        "zero-gamma", "negative-gamma", "nan-gamma"])
def test_bad_options_are_rejected_at_construction(kwargs):
    # a NaN tol or budget would run a solve to its cap, a cap below 1 would
    # return an empty trace; tol 0 stays legal
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)
    SolverOptions(tol=0.0)


@pytest.mark.parametrize("gamma", [1.0, 1.5, float("inf")])
def test_zero_sr1_rejects_gamma_from_one_before_its_first_step(gamma):
    # 0SR1's step no longer builds sr1_metric, whose test this was; the
    # solve checks it once, with its message, before any gradient
    prob = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                  seed=3))
    grads = []
    grad = prob.grad
    prob.grad = lambda x: grads.append(1) or grad(x)
    with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\)"):
        run_zero_sr1(prob, SolverOptions(gamma=gamma))
    assert not grads
    if gamma < math.inf:   # 0BFGS takes gamma >= 1
        assert run_zero_bfgs(prob, SolverOptions(gamma=gamma, max_iters=5))


@pytest.mark.parametrize("lipschitz", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_a_bad_lipschitz_estimate_is_rejected(solver_id, lipschitz):
    # a NaN, infinite or negative estimate fed a step 1/L of NaN or 0 to
    # the first-order solvers and a zero or NaN diagonal to the metrics
    prob = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                  seed=3))
    prob.lipschitz = lipschitz
    with pytest.raises(ValueError, match=f"^{solver_id}: .*Lipschitz"):
        solve(prob, solver_id, SolverOptions(max_iters=5))


@pytest.mark.parametrize("lipschitz", [None, 0.0], ids=["none", "zero"])
@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_a_missing_lipschitz_estimate_keeps_its_meaning(solver_id,
                                                        lipschitz):
    # no estimate: tau0 = 1 for the quasi-Newton solvers, an error naming
    # the solver for the first-order ones
    prob = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                  seed=3))
    prob.lipschitz = lipschitz
    opts = SolverOptions(max_iters=5)
    if solver_id in ("zero-sr1", "zero-bfgs"):
        res = solve(prob, solver_id, opts)
        prob.lipschitz = 1.0   # tau0 = 1/L = 1: the same solve
        ref = solve(prob, solver_id, opts)
        assert res.x.tobytes() == ref.x.tobytes()
        assert np.array_equal(res.trace.objectives, ref.trace.objectives)
    else:
        with pytest.raises(ValueError, match=f"{solver_id} needs a gradient "
                           "Lipschitz estimate"):
            solve(prob, solver_id, opts)


@pytest.mark.parametrize("solver_id", ["zero-sr1", "zero-bfgs"])
@pytest.mark.parametrize("recipe", [
    ProblemRecipe("lasso_gaussian", m=40, n=80, lam=0.1, seed=4),
    ProblemRecipe("group_lasso", m=40, n=80, lam=1.0, block_cap=8, seed=4),
], ids=lambda r: r.family)
def test_recording_the_metrics_leaves_the_trace_byte_identical(recipe,
                                                              solver_id):
    # record_metrics stores the public H beside the step, never in its
    # place: the traces and points of a recorded and a plain solve agree
    # byte for byte, and 0SR1 records sr1_metric's H and the loop's pair
    problem = generate(recipe)
    plain = solve(problem, solver_id, SolverOptions(max_iters=300, tol=1e-10))
    recorded = solve(problem, solver_id, SolverOptions(
        max_iters=300, tol=1e-10, record_metrics=True))
    for name in ("iters", "objectives", "step_norms"):
        assert np.asarray(getattr(plain.trace, name)).tobytes() == \
            np.asarray(getattr(recorded.trace, name)).tobytes(), name
    assert plain.x.tobytes() == recorded.x.tobytes()
    assert (plain.status, plain.iterations) == \
        (recorded.status, recorded.iterations)
    assert not plain.metrics
    assert len(recorded.metrics) == recorded.iterations + 1
    H, pair = recorded.metrics[1]
    assert pair is not None and H.rank >= 1
    if solver_id == "zero-sr1":
        ref = sr1_metric(pair, 0.8, dim=problem.dim,
                         tau0=1.0 / problem.lipschitz)
        assert H.c == ref.c and np.array_equal(H.U1, ref.U1)


@pytest.mark.parametrize("runner", [run_fista_bb, run_spg_sparsa],
                         ids=["fista-bb", "spg"])
def test_first_order_solvers_reject_kappa(runner):
    # both pick their own steps, so a kappa would be dropped without a word
    prob = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                  seed=3))
    with pytest.raises(ValueError, match="takes no kappa"):
        runner(prob, SolverOptions(kappa=1.0 / prob.lipschitz))


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_budget_stops_early(rng, solver_id):
    # each objective value costs at least 1 ms of CPU time, so the 0.05 s
    # budget ends the solve within 50 iterations, before 0SR1 and 0BFGS
    # reach the objective's rounding floor (about iteration 85 here)
    prob = _quadratic_l1_problem(rng, 10, mu=0.1, L=10.0, lam=0.2)
    f = prob.f

    def slow_f(x):
        end = time.thread_time() + 1e-3
        while time.thread_time() < end:
            pass
        return f(x)

    prob.f = slow_f
    res = solve(prob, solver_id, SolverOptions(max_iters=10 ** 7, tol=0.0,
                                               budget_seconds=0.05))
    assert res.status == "budget"
    assert not res.converged
    assert len(res.trace) == res.iterations + 1


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_budget_reads_the_threads_cpu_clock(rng, monkeypatch, solver_id):
    # a clock that jumps by 1 s per reading ends the solve at its first
    # budget test, whatever the wall-clock time
    prob = _quadratic_l1_problem(rng, 10, mu=0.1, L=10.0, lam=0.2)
    ticks = iter(range(10 ** 6))
    monkeypatch.setattr(solver.time, "thread_time", lambda: float(next(ticks)))
    res = solve(prob, solver_id, SolverOptions(max_iters=10 ** 7, tol=0.0,
                                               budget_seconds=0.5))
    assert (res.status, res.iterations) == ("budget", 0)


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_budget_ignores_time_spent_waiting(rng, solver_id):
    # each objective value sleeps 5 ms, so 20 iterations take at least
    # 0.1 s of wall-clock time but far less than the 0.05 s CPU budget
    prob = _quadratic_l1_problem(rng, 10, mu=0.1, L=10.0, lam=0.2)
    f = prob.f

    def sleepy_f(x):
        time.sleep(5e-3)
        return f(x)

    prob.f = sleepy_f
    t0 = time.perf_counter()
    res = solve(prob, solver_id, SolverOptions(max_iters=20, tol=0.0,
                                               budget_seconds=0.05))
    assert time.perf_counter() - t0 > 0.1
    assert res.status == "max_iters"


@pytest.mark.parametrize("solver_id", ["zero-sr1", "zero-bfgs"])
def test_rounding_floor_ends_the_solve(solver_id):
    # on this grid LASSO the objective reaches its rounding floor while the
    # prox step stays above tol; the solve must end there, not repeat an
    # accepted step that leaves x unchanged until the iteration cap
    prob = generate(ProblemRecipe("lasso_diff3d", side=15, lam=1.0, seed=1))
    res = solve(prob, solver_id, SolverOptions(max_iters=300))
    assert res.status in ("converged", "stagnated")
    assert abs(res.objective - 4272.439286139566) <= 1e-9


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_max_iters_ends_the_solve(rng, solver_id):
    prob = _quadratic_l1_problem(rng, 10, mu=0.1, L=10.0, lam=0.2)
    res = solve(prob, solver_id, SolverOptions(max_iters=5, tol=0.0))
    assert res.status == "max_iters"
    assert not res.converged
    # iterations is the index of the last recorded iteration
    assert res.iterations == 4 and len(res.trace) == 5


def test_gradient_check_detects_mismatch(rng):
    prob = _quadratic_l1_problem(rng, 6, mu=0.5, L=2.0, lam=0.1)
    assert prob.check_gradient(rng)
    bad = ProblemSpec(dim=6, f=prob.f, grad=lambda x: prob.grad(x) + 0.1,
                      h=prob.h, lipschitz=2.0)
    assert not bad.check_gradient(rng)


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_nonfinite_objective_ends_the_solve(solver_id):
    prob = ProblemSpec(dim=4, f=lambda x: float("nan"), grad=lambda x: x,
                       h=L1Norm(0.1), lipschitz=1.0)
    res = solve(prob, solver_id, SolverOptions(max_iters=50))
    assert res.status == "nonfinite"
    assert not res.converged
    assert res.iterations == 0 and len(res.trace) == 1


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_nonfinite_gradient_ends_the_solve(solver_id):
    # the gradient turns NaN from its 4th call on; the quasi-Newton
    # solvers see it in <s, y> before any metric is built from the pair
    prob = generate(ProblemRecipe("lasso_gaussian", m=150, n=300, lam=0.1,
                                  seed=0))
    calls = [0]
    grad = prob.grad

    def nan_grad(x):
        calls[0] += 1
        g = grad(x)
        if calls[0] >= 4:
            g[0] = np.nan
        return g

    prob.grad = nan_grad
    res = solve(prob, solver_id, SolverOptions(max_iters=50))
    assert res.status == "nonfinite"
    assert not res.converged and res.iterations <= 4


class _TurnsNaN(ProxOperator):
    """l1 norm through the base binding whose prox points are NaN from its
    ``after + 1``-th call on."""

    separable = True

    def __init__(self, lam, after):
        self.l1, self.after, self.calls = L1Norm(lam), after, 0

    def evaluate(self, x):
        return self.l1.evaluate(x)

    def _prox_diag(self, x, d, kappa):
        self.calls += 1
        p = self.l1._prox_diag(x, d, kappa)
        return p if self.calls <= self.after else np.full_like(p, np.nan)

    def _jvp(self, z, p, d, kappa, M):
        return self.l1.prox_diag_jvp(z, d, kappa, M)


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_nonfinite_step_ends_the_solve_at_the_last_finite_point(solver_id):
    # the first NaN step norm ends the solve, which keeps the point and
    # objective it stepped from; the quasi-Newton solvers evaluate no
    # objective on the NaN point (no line search on it)
    prob = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                  seed=3))
    prob.h = _TurnsNaN(0.1, after=5)
    evaluations = []
    f = prob.f
    prob.f = lambda x: evaluations.append(prob.h.calls) or f(x)
    res = solve(prob, solver_id, SolverOptions(max_iters=200))
    assert res.status == "nonfinite" and not res.converged
    steps = np.array(res.trace.step_norms)
    assert np.isnan(steps[-1]) and np.isfinite(steps[:-1]).all()
    assert len(steps) >= 2
    assert np.isfinite(res.x).all()
    assert res.objective == res.trace.objectives[-1] == prob.objective(res.x)
    if solver_id in ("zero-sr1", "zero-bfgs"):
        first_nan = next(i for i, c in enumerate(evaluations) if c > 5)
        assert first_nan == len(evaluations) - 1   # only the check above


@pytest.mark.parametrize("after", range(1, 13))
@pytest.mark.parametrize("solver_id", ["zero-sr1", "zero-bfgs"])
def test_a_nan_prox_point_ends_the_quasi_newton_solve_nonfinite(solver_id,
                                                                after):
    # whichever prox evaluation of a step turns NaN first, a Newton's first
    # point or a trial of the joint Newton's damped search, ends the prox
    # call there, unconverged, and the solve "nonfinite" after that one
    # NaN evaluation: the search does not halve on through NaN trials to
    # end it "prox_failed"
    prob = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                  seed=3))
    prob.h = _TurnsNaN(0.1, after=after)
    res = solve(prob, solver_id, SolverOptions(max_iters=200))
    assert res.status == "nonfinite" and not res.converged
    assert prob.h.calls == after + 1


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_solve_ends_at_its_last_finite_objective(solver_id):
    # f is NaN for x_0 > 1, where the unconstrained minimizer lies: the line
    # search and FISTA-BB's step search stop at their first NaN trial, and
    # the solve ends "nonfinite" at the last point with a finite objective;
    # SPG's nonmonotone test halves its way back into the domain and
    # converges there
    Q = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([3.0, 1.0, -1.0, 2.0, 0.5])
    nan_calls = []

    def f(x):
        if x[0] > 1.0:
            nan_calls.append(x[0])
            return float("nan")
        return 0.5 * float(x @ Q @ x) - float(b @ x)

    prob = ProblemSpec(dim=5, f=f, grad=lambda x: Q @ x - b, h=L1Norm(0.1),
                       lipschitz=5.0)
    res = solve(prob, solver_id, SolverOptions(max_iters=500))
    assert res.x[0] <= 1.0 and np.isfinite(res.trace.objectives).all()
    if solver_id == "spg":
        assert res.status == "converged"
    else:
        assert res.status == "nonfinite"
        assert res.objective == res.trace.objectives[-1] \
            == prob.objective(res.x)
    if solver_id != "spg":   # its nonmonotone search halves on a NaN
        assert len(nan_calls) <= 1


def test_result_objective_is_that_of_the_returned_point():
    # FISTA-BB and SPG end a converged solve at the candidate point, and
    # report its objective, not that of the iterate before it
    problem = generate(ProblemRecipe("lasso_gaussian", m=150, n=300,
                                     lam=0.1, seed=0))
    for solver_id in sorted(SOLVERS):
        res = solve(problem, solver_id)
        assert res.status == "converged", solver_id
        assert res.objective == problem.objective(res.x), solver_id


@pytest.mark.parametrize("solver_id", sorted(SOLVERS))
def test_infeasible_start_is_not_nonfinite(solver_id):
    # F(x0) = +inf at an x0 outside dom h; the first prox step repairs it
    prob = quadratic_problem(np.diag([1.0, 2.0, 3.0]),
                             np.array([1.0, -1.0, 2.0]), NonNeg())
    res = solve(prob, solver_id, SolverOptions(max_iters=2000,
                                               x0=-np.ones(3)))
    assert res.status == "converged"
    np.testing.assert_allclose(res.x, [1.0, 0.0, 2.0 / 3.0], atol=1e-8)


_FIRST_ORDER = ["ista", "fista-bb", "spg"]


def _first_order_problem(kind):
    if kind == "l1":
        return generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                      seed=3))
    if kind == "group":
        return generate(ProblemRecipe("group_lasso", m=24, n=40, lam=1.0,
                                      block_cap=6, seed=3))
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 20))
    return quadratic_problem(A.T @ A + 0.1 * np.eye(20),
                             rng.standard_normal(20), NonNeg())


@pytest.mark.parametrize("kind", ["l1", "group", "nonneg"])
@pytest.mark.parametrize("solver_id", _FIRST_ORDER)
def test_first_order_checks_weights_once_per_solve(monkeypatch, kind,
                                                   solver_id):
    # the unit weights are checked once per solve and the loop calls the
    # unchecked core; the iterates are those of the public prox_diag with
    # a fresh vector of ones on every call
    prob = _first_order_problem(kind)
    check, checks = prob.h.check_weights, []
    monkeypatch.setattr(prob.h, "check_weights",
                        lambda d, n: checks.append(n) or check(d, n))
    opts = SolverOptions(max_iters=400, tol=1e-12)
    got = solve(prob, solver_id, opts)
    assert checks == [prob.dim]
    monkeypatch.setattr(solver, "_euclid_prox", lambda h, v, d, kappa:
                        h.prox_diag(v, np.ones(v.shape[0]), kappa))
    ref = solve(prob, solver_id, opts)
    assert got.x.tobytes() == ref.x.tobytes()
    assert (got.status, got.iterations) == (ref.status, ref.iterations)
    assert got.trace.iters == ref.trace.iters
    assert np.array_equal(got.trace.objectives, ref.trace.objectives)
    assert np.array_equal(got.trace.step_norms, ref.trace.step_norms)


def test_fista_bb_reuses_the_accepted_trials_f(monkeypatch):
    # per iteration: f at y and one f per backtracking trial (each one
    # prox call), and one h; F(x_new) reuses the accepted trial's f, and
    # the restart test reuses F(x_new)
    prob = _first_order_problem("l1")
    f, prox, h_eval = prob.f, solver._euclid_prox, prob.h.evaluate
    count = {"f": 0, "prox": 0, "h": 0}

    def counting_f(x):
        count["f"] += 1
        return f(x)

    def counting_prox(*args):
        count["prox"] += 1
        return prox(*args)

    def counting_h(x):
        count["h"] += 1
        return h_eval(x)

    prob.f = counting_f
    monkeypatch.setattr(solver, "_euclid_prox", counting_prox)
    monkeypatch.setattr(prob.h, "evaluate", counting_h)
    res = run_fista_bb(prob, SolverOptions(max_iters=50, tol=0.0))
    assert res.status == "max_iters" and len(res.trace) == 50
    # 1 for F(x0), then f(y) and the trials of each of the 50 proposals
    assert count["f"] == 1 + 50 + count["prox"]
    # 1 for F(x0), then F(x_new) of each of the 50 iterations
    assert count["h"] == 1 + 50


def _group_lasso(seed):
    return generate(ProblemRecipe("group_lasso", m=64, n=100, lam=1.0,
                                  block_cap=12, seed=seed))


@pytest.mark.parametrize("seed", range(6))
def test_fista_bb_converges_on_the_group_lasso(seed):
    # without a restart when the objective rises, FISTA-BB oscillates on
    # these instances and ends 0.02-0.5 above the optimum at 1000 iterations
    prob = _group_lasso(seed)
    f_star = min(runner(prob, SolverOptions(tol=1e-13)).objective
                 for runner in (run_zero_sr1, run_spg_sparsa))
    res = run_fista_bb(prob, SolverOptions(max_iters=1000))
    assert res.status == "converged"
    assert res.objective - f_star <= 1e-9


def test_fista_bb_restarts_where_the_objective_rises(monkeypatch):
    # after an iteration whose objective rises, the momentum is dropped:
    # the next gradient is taken at the new point x_new itself
    prob = _group_lasso(1)
    grads, points = [], []
    grad, h_eval = prob.grad, prob.h.evaluate
    prob.grad = lambda x: grads.append(x.copy()) or grad(x)
    # evaluate sees F(x0), then x_new of each iteration
    monkeypatch.setattr(prob.h, "evaluate",
                        lambda x: points.append(x.copy()) or h_eval(x))
    res = run_fista_bb(prob, SolverOptions(max_iters=1000))
    assert res.converged
    obj = res.trace.objectives
    rises = [k for k in range(len(obj) - 1) if obj[k + 1] > obj[k]]
    assert rises
    # grads[0] is the start's; iteration k's is grads[k + 1]
    for k in rises:
        assert np.array_equal(grads[k + 1], points[k + 1])
    # elsewhere the momentum moves the gradient's point off x_new
    assert any(not np.array_equal(grads[k + 1], points[k + 1])
               for k in range(len(obj) - 1) if k not in rises)


class _FivePassL1(L1Norm):
    """``L1Norm`` thresholding in the closed form's five array passes,
    ``sign(z) * max(|z| - t, 0)``."""

    def _kernel(self, z, lo, t, out=None, tmp=None):
        p = np.abs(z, out)
        np.maximum(np.subtract(p, t, p), 0.0, out=p)
        return np.multiply(np.sign(z, tmp), p, p)


def test_clip_threshold_leaves_every_solver_bit_identical():
    # the clip form's 0.0 where the closed form gives -0.0 reaches no trace
    recipe = ProblemRecipe("lasso_gaussian", m=40, n=80, lam=0.1, seed=4)
    problem, five_pass = generate(recipe), generate(recipe)
    five_pass.h = _FivePassL1(problem.h.lam)
    _assert_every_solver_bit_identical(problem, five_pass)


class _FormerRouteNonNeg(NonNeg):
    """``NonNeg`` on the route the box family had before it shared the
    thresholds' bound step: ``np.clip`` for the prox, and the slope rule's
    Jacobian product through the base binding (``_jvp``), which takes the
    vector diagonal."""

    _scalar_bind = False
    _bind = ProxOperator._bind

    def _prox_diag(self, x, d, kappa):
        return np.clip(x, self.lo, self.hi)

    def _jvp(self, z, p, d, kappa, M):
        return ((z >= self.lo) & (z < self.hi))[:, None] * M


def test_clip_kernel_leaves_every_solver_bit_identical_on_the_orthant():
    # min then max gives np.clip's values; at lo = 0 only the sign of a
    # zero may differ, and it reaches no trace
    recipe = ProblemRecipe("nnls", m=60, n=120, seed=4)
    problem, former = generate(recipe), generate(recipe)
    assert type(problem.h) is NonNeg
    former.h = _FormerRouteNonNeg()
    _assert_every_solver_bit_identical(problem, former)


def _assert_every_solver_bit_identical(problem, reference):
    opts = SolverOptions(max_iters=300, tol=1e-10)
    for solver_id, run in SOLVERS.items():
        got, want = run(problem, opts), run(reference, opts)
        for name in ("iters", "objectives", "step_norms"):
            assert np.asarray(getattr(got.trace, name)).tobytes() == \
                np.asarray(getattr(want.trace, name)).tobytes(), \
                (solver_id, name)
        assert got.status == want.status, solver_id
        assert np.array_equal(got.x, want.x), solver_id


@pytest.mark.parametrize("order", ["in-order", "permuted"])
def test_group_segment_map_leaves_every_solver_bit_identical(order):
    # the segment-map GroupL2 kernel against the np.repeat form it
    # replaced (tests/_group_reference.py), on the generated blocks and on
    # the same sizes over permuted coordinates
    problem, repeat_form = _group_lasso(2), _group_lasso(2)
    blocks = problem.h.blocks
    if order == "permuted":
        perm = np.random.default_rng(7).permutation(problem.dim)
        blocks = [perm[b] for b in blocks]
        problem.h = GroupL2(problem.h.lam, blocks)
    assert isinstance(problem.h._perm, slice) == (order == "in-order")
    repeat_form.h = RepeatGroupL2(problem.h.lam, blocks)
    _assert_every_solver_bit_identical(problem, repeat_form)

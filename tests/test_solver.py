import time

import numpy as np
import pytest

from proxqn.bench import ProblemRecipe, generate
from proxqn.metric import LowRankMetric
from proxqn import solver
from proxqn.prox import L1Norm, NonNeg, ProxOperator, Zero
from proxqn.quasi_newton import QNPair, SR1Config, sr1_metric
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


def quadratic_problem(Q, b, h):
    return ProblemSpec(
        dim=len(b),
        f=lambda x: 0.5 * float(x @ Q @ x) - float(b @ x),
        grad=lambda x: Q @ x - b,
        h=h,
        lipschitz=float(np.linalg.eigvalsh(Q)[-1]),
        strong_convexity=float(np.linalg.eigvalsh(Q)[0]),
    )


def test_fb_step_plain_gradient(rng):
    Q = np.eye(3) * 2.0
    prob = quadratic_problem(Q, rng.standard_normal(3), Zero())
    x = rng.standard_normal(3)
    H = LowRankMetric(np.ones(3))
    xbar, _ = fb_step(x, prob.grad(x), H, H.invert(), prob.h,
                      kappa=1.0 / prob.lipschitz)
    np.testing.assert_allclose(
        xbar, x - prob.grad(x) / prob.lipschitz, atol=1e-14)


def test_fb_step_projected_gradient(rng):
    Q = np.diag([1.0, 3.0])
    prob = quadratic_problem(Q, np.array([-1.0, 2.0]), NonNeg())
    x = np.array([0.2, 0.1])
    H = LowRankMetric(np.ones(2))
    xbar, _ = fb_step(x, prob.grad(x), H, H.invert(), prob.h, kappa=1.0 / 3.0)
    np.testing.assert_allclose(
        xbar, np.maximum(x - prob.grad(x) / 3.0, 0.0), atol=1e-14)


def test_fb_step_matches_model_minimizer(rng):
    # candidate = argmin of the quadratic model plus h, checked brute force
    s = rng.standard_normal(2)
    y = s + 0.3 * rng.standard_normal(2)
    H = sr1_metric(QNPair(s, y), SR1Config())
    B = H.invert()
    prob = quadratic_problem(np.diag([1.0, 2.0]), rng.standard_normal(2),
                             L1Norm(0.4))
    x = rng.standard_normal(2)
    kappa = 0.7
    xbar, _ = fb_step(x, prob.grad(x), H, B, prob.h, kappa=kappa)
    forward = x - kappa * H.apply(prob.grad(x))
    z = brute_force_scaled_prox(dense_metric(B),
                                euclidean_prox_for("l1", {"lam": 0.4}),
                                forward, kappa)
    np.testing.assert_allclose(xbar, z, atol=1e-10)


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

    def slope_rule(self, z, d, kappa):
        return self.l1.slope_rule(z, d, kappa)


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

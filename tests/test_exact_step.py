"""The exact step along the quasi-Newton ray: the searches against a dense
brute-force minimizer of phi(t) = a t + c t^2 / 2 + h(x + t p), the
fallback to backtracking, and the residual that a ray step leaves in a
generated problem."""

import dataclasses

import numpy as np
import pytest

from proxqn import solver
from proxqn.bench import ProblemRecipe, generate
from proxqn.cli import main
from proxqn.prox import Box, GroupL2, L1Norm, NonNeg
from proxqn.solver import (RAY_CAP, RAY_SEARCHES, SOLVERS, SolverOptions,
                           _ray_box, _ray_group, _ray_l1, _ray_step,
                           run_zero_bfgs, run_zero_sr1)
from proxqn.validate import _quadratic_l1_problem

BLOCKS = [[0, 1, 2], [3, 4], [5, 6, 7, 8], [9], [10, 11]]


def _search(h):
    return next(s for family, s in RAY_SEARCHES if isinstance(h, family))


def _phi(h, x, p, a, c, t):
    z = x + t * p
    # a box at rounding level, not at evaluate's feasibility tolerance
    # 1e-8, which the brute force would find lower than the box's end
    if isinstance(h, Box) and not (np.all(z >= h.lo - 1e-12)
                                   and np.all(z <= h.hi + 1e-12)):
        return np.inf
    return a * t + 0.5 * c * t * t + h.evaluate(z)


def _phi_slopes(h, x, p, a, c, t, eps=1e-7):
    """phi's one-sided difference quotients at t."""
    return ((_phi(h, x, p, a, c, t) - _phi(h, x, p, a, c, t - eps)) / eps,
            (_phi(h, x, p, a, c, t + eps) - _phi(h, x, p, a, c, t)) / eps)


def _brute_force(h, x, p, a, c, points=40_001):
    """The minimum of phi over a dense grid of [0, RAY_CAP] and its t."""
    ts = np.linspace(0.0, RAY_CAP, points)
    z = x + ts[:, None] * p
    if isinstance(h, L1Norm):
        hz = h.lam * np.abs(z).sum(axis=1)
    elif isinstance(h, GroupL2):
        hz = h.lam * sum(np.linalg.norm(z[:, b], axis=1) for b in h.blocks)
    else:
        inside = np.all((z >= h.lo - 1e-12) & (z <= h.hi + 1e-12), axis=1)
        hz = np.where(inside, 0.0, np.inf)
    values = a * ts + 0.5 * c * ts * ts + hz
    k = int(np.argmin(values))
    return ts[k], values[k]


def _assert_minimizes(h, x, p, a, c):
    t = _search(h)(h, x, p, a, c)
    assert 0.0 <= t <= RAY_CAP
    t_grid, phi_grid = _brute_force(h, x, p, a, c)
    value = _phi(h, x, p, a, c, t)
    scale = 1.0 + abs(phi_grid)
    assert value <= phi_grid + 1e-12 * scale
    # phi is strongly convex (c > 0): its minimizer is the grid's, to the
    # grid's spacing
    assert abs(t - t_grid) <= 1e-4
    # no point beside it is lower
    for side in (-1e-7, 1e-7):
        if 0.0 <= t + side <= RAY_CAP:
            assert value <= _phi(h, x, p, a, c, t + side) + 1e-13 * scale
    return t


def _l1_case(rng):
    n = 12
    x = rng.standard_normal(n) * (rng.random(n) < 0.7)
    # a prox point: zeros where the step ends a coordinate
    xbar = np.where(rng.random(n) < 0.4, 0.0, x + rng.standard_normal(n))
    return L1Norm(rng.uniform(0.1, 2.0)), x, xbar - x


def _group_case(rng):
    x = rng.standard_normal(12)
    xbar = x + rng.standard_normal(12)
    x[3:5] = 0.0          # a zero block: its kink sits at t = 0
    xbar[9] = x[9]        # p_g = 0: the block does not move
    xbar[5:9] = 0.0       # the prox zeroes a block: a kink at t = 1
    return GroupL2(rng.uniform(0.1, 2.0), BLOCKS), x, xbar - x


def _box_case(rng):
    if rng.random() < 0.5:
        h = NonNeg()
        x = np.maximum(rng.standard_normal(12), 0.0)
        xbar = np.maximum(x + rng.standard_normal(12), 0.0)
    else:
        h = Box(-1.0, 2.0)
        x = rng.uniform(-1.0, 2.0, 12)
        # short steps leave the box past RAY_CAP, if at all
        scale = rng.choice([0.02, 2.0])
        xbar = np.clip(x + scale * rng.standard_normal(12), -1.0, 2.0)
    return h, x, xbar - x


@pytest.mark.parametrize("case", [_l1_case, _group_case, _box_case],
                         ids=["l1", "group", "box"])
def test_the_search_finds_the_brute_force_minimizer(rng, case):
    # roots inside (0, RAY_CAP), at 0 and at RAY_CAP, on random rays and
    # slopes; each family meets every kind over the draws
    ends = set()
    for _ in range(40):
        h, x, p = case(rng)
        a = float(rng.standard_normal()) * 3.0
        c = float(rng.uniform(0.05, 5.0))
        t = _assert_minimizes(h, x, p, a, c)
        ends.add(0.0 if t == 0.0 else RAY_CAP if t == RAY_CAP else 1.0)
    assert ends == {0.0, 1.0, RAY_CAP}


def test_the_l1_search_stops_at_the_kink_at_one():
    # the prox point zeroes two coordinates, and phi' changes sign at
    # their common kink: phi'(1-) = -1.6, phi'(1+) = 4.4
    h = L1Norm(1.0)
    x = np.array([1.0, -2.0, 0.5, 0.0, 3.0])
    p = np.array([-1.0, 2.0, 0.3, 0.2, -0.1])
    assert _ray_l1(h, x, p, 0.0, 1.0) == 1.0
    _assert_minimizes(h, x, p, 0.0, 1.0)
    # no curvature: phi' is constant past the kinks, so the cap or a kink
    assert _ray_l1(h, x, p, -10.0, 0.0) == RAY_CAP
    assert _ray_l1(h, x, p, 0.0, 0.0) == 1.0


def test_the_group_search_stops_at_the_kink_at_one(monkeypatch):
    # the prox point zeroes block 2, whose jump 2 lam ||p_g|| encloses 0;
    # the search's first evaluation, at t = 1, finds it
    h = GroupL2(1.0, BLOCKS)
    x = np.linspace(-1.0, 1.0, 12)
    p = np.zeros(12)
    p[5:9] = -x[5:9]
    p[[0, 10]] = 0.1
    slopes = _phi_slopes(h, x, p, 0.0, 0.5, 1.0)
    assert slopes[0] < 0 < slopes[1]
    _assert_minimizes(h, x, p, 0.0, 0.5)
    monkeypatch.setattr(solver, "RAY_MAX_EVALS", 1)
    assert _ray_group(h, x, p, 0.0, 0.5) == 1.0


def test_the_group_search_at_zero_and_still_blocks():
    # every block at zero or not moving: phi'(0+) >= 0 returns 0, and a
    # steep enough slope a reaches the cap
    h = GroupL2(1.0, BLOCKS)
    x = np.zeros(12)
    x[9] = 2.0
    p = np.zeros(12)
    p[:5] = 1.0
    assert _ray_group(h, x, p, 0.0, 1.0) == 0.0
    assert _ray_group(h, x, p, -50.0, 1.0) == RAY_CAP
    _assert_minimizes(h, x, p, -3.0, 1.0)


def test_the_group_search_on_a_flat_slope():
    # A p = 0 and one block moving straight to its zero at t = 1.5: phi'
    # is constant on each side of that kink, with no curvature for a
    # Newton step
    h = GroupL2(1.0, BLOCKS)
    x = np.zeros(12)
    x[3:5] = [0.6, -0.3]
    p = np.zeros(12)
    p[3:5] = -x[3:5] / 1.5
    assert _ray_group(h, x, p, 0.0, 0.0) == pytest.approx(1.5, abs=1e-12)
    assert _ray_group(h, x, p, 1.0, 0.0) == 0.0
    x[3:5] = -x[3:5]
    assert _ray_group(h, x, p, 0.0, 0.0) == 0.0
    assert _ray_group(h, x, p, -1.0, 0.0) == RAY_CAP
    # no block moves: phi = a t, with no curvature at all
    assert _ray_group(h, x, np.zeros(12), -1.0, 0.0) == RAY_CAP


def test_the_box_search_stops_where_the_ray_leaves_the_box():
    h = Box(-1.0, 2.0)
    x = np.array([0.0, 1.5, -0.5])
    p = np.array([1.0, 0.25, -0.25])   # leaves at t = 2 (coordinates 1, 2)
    p[0] = 1.25                         # and at t = 1.6 (coordinate 0)
    assert _ray_box(h, x, p, -10.0, 1.0) == pytest.approx(1.6, abs=1e-15)
    assert _ray_box(h, x, p, -1.0, 1.0) == 1.0
    assert _ray_box(h, x, p, 1.0, 1.0) == 0.0
    _assert_minimizes(h, x, p, -10.0, 1.0)


def test_a_refused_exact_step_backtracks_bit_for_bit():
    # an f raised above F(x0) at the point of each exact step: every one
    # is refused, and the solve is the backtracking one, bit for bit
    recipe = ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1, seed=3)
    problem, plain = generate(recipe), generate(recipe)
    f, ray, spoiled = problem.f, problem.ray, [None]

    def raised_f(x):
        return f(x) + (1e6 if x is spoiled[0] else 0.0)

    def marking_ray(x, p):
        c, take = ray(x, p)

        def take_and_mark(t):
            spoiled[0] = take(t)
            return spoiled[0]
        return c, take_and_mark

    problem.f, problem.ray = raised_f, marking_ray
    opts = SolverOptions(max_iters=300, tol=1e-10)
    got = run_zero_bfgs(problem, opts)
    assert spoiled[0] is not None
    want = run_zero_bfgs(plain, dataclasses.replace(
        opts, line_search="backtracking"))
    _assert_same_solve(got, want)


def _assert_same_solve(got, want):
    for name in ("iters", "objectives", "step_norms"):
        assert np.asarray(getattr(got.trace, name)).tobytes() == \
            np.asarray(getattr(want.trace, name)).tobytes(), name
    assert got.status == want.status
    assert got.x.tobytes() == want.x.tobytes()


def test_the_ray_step_refuses_a_rise_of_the_objective():
    problem = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1,
                                     seed=3))
    x = np.zeros(problem.dim)
    g = problem.grad(x)
    f_x = problem.objective(x)
    p = -0.01 * g
    step = _ray_step(problem, _ray_l1, x, p, g, f_x)
    assert step is not None and step[2] < f_x
    assert step[2] == problem.objective(step[1])
    # the same step from a lower F(x): refused
    assert _ray_step(problem, _ray_l1, x, p, g, step[2] - 1.0) is None
    # a direction of ascent: t = 0, refused
    assert _ray_step(problem, _ray_l1, x, -p, g, f_x) is None


def test_box_ray_points_stay_in_the_box():
    # x + t_max p rounds an ulp past the bound it reaches on these NNLS
    # solves: the loop moves it back onto the bound, and the gradient there
    # is that of A x - b formed anew, not of r + t A p
    for seed in (3, 5, 7):
        moved = 0
        recipe = ProblemRecipe("nnls", m=30, n=60, seed=seed)
        problem, fresh = generate(recipe), generate(recipe)
        grad, ray, taken = problem.grad, problem.ray, [None, None]

        def keeping_ray(x, p):
            c, take = ray(x, p)

            def take_and_keep(t):
                taken[0] = take(t)
                taken[1] = taken[0].copy()
                return taken[0]
            return c, take_and_keep

        def checking_grad(x):
            nonlocal moved
            assert x.min() >= 0.0
            g = grad(x)
            if x is taken[0] and x.tobytes() != taken[1].tobytes():
                moved += 1
                assert g.tobytes() == fresh.grad(x.copy()).tobytes()
            return g

        problem.grad, problem.ray = checking_grad, keeping_ray
        result = run_zero_bfgs(problem, SolverOptions(max_iters=2000,
                                                      tol=1e-10))
        assert result.status == "converged" and result.x.min() >= 0.0
        assert result.objective == problem.objective(result.x)
        assert moved, seed


@pytest.mark.parametrize("recipe", [
    ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1, seed=3),
    ProblemRecipe("group_lasso", m=24, n=40, lam=1.0, block_cap=6, seed=3),
    ProblemRecipe("nnls", m=30, n=60, seed=3),
], ids=lambda r: r.family)
def test_a_problem_without_the_hook_backtracks_bit_for_bit(recipe):
    # without the ray hook 0BFGS's default is today's backtracking search;
    # so is a user-built problem's (no hook)
    problem = dataclasses.replace(generate(recipe), ray=None)
    got = run_zero_bfgs(problem, SolverOptions(max_iters=300, tol=1e-10))
    want = run_zero_bfgs(generate(recipe), SolverOptions(
        max_iters=300, tol=1e-10, line_search="backtracking"))
    _assert_same_solve(got, want)
    quadratic = _quadratic_l1_problem(np.random.default_rng(5), 20, mu=0.1,
                                      L=4.0, lam=0.2)
    got = run_zero_bfgs(quadratic, SolverOptions())
    want = run_zero_bfgs(quadratic, SolverOptions(line_search="backtracking"))
    _assert_same_solve(got, want)


@pytest.mark.parametrize("recipe", [
    ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1, seed=3),
    ProblemRecipe("group_lasso", m=24, n=40, lam=1.0, block_cap=6, seed=3),
    ProblemRecipe("nnls", m=30, n=60, seed=3),
    ProblemRecipe("lasso_diff3d", side=4, lam=1.0, seed=3),
    # lam >= ||A^T b||_inf: the optimum is x = 0
    ProblemRecipe("lasso_gaussian", m=30, n=60, lam=1000.0, seed=3),
], ids=["lasso", "group", "nnls", "diff3d", "zero-optimum"])
def test_an_exact_solve_leaves_the_next_solve_bit_identical(recipe):
    # the residual r + t A p of the last ray step stays with its array, so
    # every solve after a 0BFGS solve on the same problem object is that
    # of a fresh problem, and the result's objective is its point's
    problem = generate(recipe)
    x0 = np.full(problem.dim, 0.5)
    first = run_zero_bfgs(problem, SolverOptions(max_iters=300, tol=1e-10,
                                                 x0=x0))
    assert first.objective == problem.objective(first.x)
    if recipe.lam == 1000.0:
        assert np.max(np.abs(problem.A.T @ problem.b)) <= recipe.lam
        # the last ray step ends on the optimum's bits, where the solves
        # below start
        assert first.status == "converged" and not first.x.any()
    zero = np.zeros(problem.dim)
    assert problem.grad(zero).tobytes() == \
        generate(recipe).grad(zero).tobytes()
    opts = SolverOptions(max_iters=300, tol=1e-10)
    for solver_id, run in SOLVERS.items():
        got, want = run(problem, opts), run(generate(recipe), opts)
        _assert_same_solve(got, want)
        assert got.objective == problem.objective(got.x), solver_id


def test_the_line_search_option_values():
    # None is the method's own step: exact for 0BFGS, backtracking for
    # 0SR1; the exact step has no value of its own
    for mode in (None, "backtracking", "none"):
        assert SolverOptions(line_search=mode).line_search == mode
    for mode in ("exact", "armijo", "Backtracking", ""):
        with pytest.raises(ValueError, match="line-search"):
            SolverOptions(line_search=mode)
    recipe = ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1, seed=3)
    opts = SolverOptions(max_iters=300, tol=1e-10)
    got = run_zero_sr1(generate(recipe), opts)
    want = run_zero_sr1(generate(recipe),
                        dataclasses.replace(opts, line_search="backtracking"))
    _assert_same_solve(got, want)
    exact = run_zero_bfgs(generate(recipe), opts)
    backtracking = run_zero_bfgs(generate(recipe), dataclasses.replace(
        opts, line_search="backtracking"))
    assert exact.iterations != backtracking.iterations


def test_the_cli_line_search_follows_the_option_default(tmp_path, cache_dir):
    common = ["solve", "--family", "lasso_gaussian", "--m", "30", "--n",
              "60", "--seed", "3", "--cache-dir", cache_dir]
    outputs = {}
    for solver in ("zero-bfgs", "zero-sr1"):
        for mode in (None, "backtracking"):
            out = tmp_path / f"{solver}-{mode}.csv"
            args = common + ["--solver", solver, "--out", str(out)]
            assert main(args + (["--line-search", mode] if mode else [])) == 0
            outputs[solver, mode] = out.read_bytes()
    assert outputs["zero-bfgs", None] != outputs["zero-bfgs", "backtracking"]
    assert outputs["zero-sr1", None] == outputs["zero-sr1", "backtracking"]
    # the exact step is each solver's default or nothing
    with pytest.raises(SystemExit):
        main(common + ["--solver", "zero-bfgs", "--line-search", "exact"])

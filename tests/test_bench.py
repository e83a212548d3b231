import json
import os

import numpy as np
import pytest
import scipy.sparse as sp

from proxqn import __version__
from proxqn.bench import (
    ProblemRecipe,
    desk_recipes,
    diff3d_operator,
    estimate_sq_norm,
    generate,
    race,
    read_trace_csv,
    reference_solution,
    write_manifest,
    write_trace_csv,
)
from proxqn import prox, scaled
from proxqn.prox import L1Norm, NonNeg
from proxqn.solver import SOLVERS, ProblemSpec, SolverOptions
from proxqn.trace import ConvergenceTrace


def test_recipe_validation():
    with pytest.raises(ValueError):
        ProblemRecipe("unknown", m=2, n=2)
    with pytest.raises(ValueError):
        ProblemRecipe("lasso_gaussian", m=0, n=2)
    with pytest.raises(ValueError):
        ProblemRecipe("lasso_diff3d")


def test_generation_is_deterministic():
    recipe = ProblemRecipe("lasso_gaussian", m=2, n=2, lam=0.1, seed=11)
    a = generate(recipe)
    b = generate(recipe)
    assert a.A.tobytes() == b.A.tobytes()
    assert a.b.tobytes() == b.b.tobytes()
    assert recipe.digest() == ProblemRecipe("lasso_gaussian", m=2, n=2,
                                            lam=0.1, seed=11).digest()


SHARED_RESIDUAL_RECIPES = [
    ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.1, seed=3),
    ProblemRecipe("group_lasso", m=24, n=40, lam=1.0, block_cap=6, seed=3),
    ProblemRecipe("lasso_diff3d", side=4, lam=1.0, seed=3),
]


def _plain_problem(problem):
    """The generated problem with uncached ``f`` and ``grad`` over the same
    ``A`` and ``b``."""
    A, b = problem.A, problem.b

    def f(x):
        r = A @ x - b
        return 0.5 * float(np.dot(r, r))

    def grad(x):
        return A.T @ (A @ x - b)

    return ProblemSpec(dim=problem.dim, f=f, grad=grad, h=problem.h,
                       lipschitz=problem.lipschitz, name=problem.name)


def _same_bits(got, want):
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("recipe", SHARED_RESIDUAL_RECIPES,
                         ids=lambda r: r.family)
def test_shared_residual_matches_plain_expressions_bitwise(rng, recipe):
    problem = generate(recipe)
    plain = _plain_problem(problem)
    x, y = rng.standard_normal(problem.dim), rng.standard_normal(problem.dim)
    # f -> grad, grad -> f, alternating points, an equal point in a copy
    for name, point in [("f", x), ("grad", x), ("grad", y), ("f", y),
                        ("f", x), ("grad", y), ("grad", x.copy()),
                        ("f", x), ("f", x)]:
        got = getattr(problem, name)(point)
        assert _same_bits(got, getattr(plain, name)(point)), name

    # an in-place change between the calls is a new point
    z = x.copy()
    problem.f(z)
    z[0] += 1.0
    assert _same_bits(problem.grad(z), plain.grad(z))
    z *= 2.0
    assert _same_bits(problem.f(z), plain.f(z))

    # equal bytes under another dtype are another point
    xi = np.arange(problem.dim, dtype=np.int64)
    xf = xi.view(np.float64)
    problem.f(xf)
    assert _same_bits(problem.grad(xi), plain.grad(xi))
    assert _same_bits(problem.f(xi), plain.f(xi))


@pytest.mark.parametrize("recipe", SHARED_RESIDUAL_RECIPES,
                         ids=lambda r: r.family)
def test_shared_residual_leaves_every_solver_bit_identical(recipe):
    problem = generate(recipe)
    plain = _plain_problem(problem)
    opts = SolverOptions(max_iters=300, tol=1e-10)
    for solver_id, run in SOLVERS.items():
        got, want = run(problem, opts), run(plain, opts)
        assert _same_bits(got.trace.objectives, want.trace.objectives), \
            solver_id
        assert _same_bits(got.trace.step_norms, want.trace.step_norms), \
            solver_id
        assert _same_bits(got.x, want.x), solver_id


@pytest.mark.parametrize("recipe", [
    ProblemRecipe("lasso_gaussian", m=40, n=80, lam=0.1, seed=4),
    ProblemRecipe("lasso_diff3d", side=7, lam=1.0, seed=4),
    ProblemRecipe("nnls", m=40, n=80, seed=4),
], ids=lambda r: r.family)
def test_column_products_leave_the_quasi_newton_solvers_bit_identical(
        monkeypatch, recipe):
    # the Jacobian products of L1Norm's binding and of the slope-rule
    # path (NonNeg) against the broadcast they replace
    problem = generate(recipe)
    opts = SolverOptions(max_iters=300, tol=1e-10)
    calls = []

    def broadcast(v, M):
        calls.append(M.shape)
        return v[:, None] * M

    for solver_id in ("zero-bfgs", "zero-sr1"):
        got = SOLVERS[solver_id](problem, opts)
        with monkeypatch.context() as patch:
            patch.setattr(prox, "_scale_rows", broadcast)
            want = SOLVERS[solver_id](problem, opts)
        assert _same_bits(got.trace.iters, want.trace.iters), solver_id
        assert _same_bits(got.trace.objectives, want.trace.objectives), \
            solver_id
        assert _same_bits(got.trace.step_norms, want.trace.step_norms), \
            solver_id
        assert _same_bits(got.x, want.x), solver_id
    # the joint rank-2 Newton took N x 2 products through the patch
    assert (problem.dim, 2) in calls


@pytest.mark.parametrize("recipe", [
    ProblemRecipe("lasso_gaussian", m=40, n=80, lam=0.1, seed=5),
    ProblemRecipe("lasso_diff3d", side=7, lam=1.0, seed=5),
    ProblemRecipe("group_lasso", m=40, n=80, lam=1.0, block_cap=8, seed=5),
    ProblemRecipe("nnls", m=40, n=80, seed=5),
], ids=lambda r: r.family)
def test_scalar_binding_leaves_the_quasi_newton_solvers_bit_identical(
        monkeypatch, recipe):
    # every root problem bound with the vector diagonal instead of the
    # scalar c of a trusted c I: the same traces and final points
    problem = generate(recipe)
    opts = SolverOptions(max_iters=300, tol=1e-10)
    checked = scaled._checked
    scalar = []

    def vector_weights(metric, op, x, kappa):
        x, d, weights = checked(metric, op, x, kappa)
        scalar.append(np.ndim(weights) == 0)
        return x, d, d

    for solver_id in ("zero-bfgs", "zero-sr1"):
        got = SOLVERS[solver_id](problem, opts)
        with monkeypatch.context() as patch:
            patch.setattr(scaled, "_checked", vector_weights)
            want = SOLVERS[solver_id](problem, opts)
        assert _same_bits(got.trace.iters, want.trace.iters), solver_id
        assert _same_bits(got.trace.objectives, want.trace.objectives), \
            solver_id
        assert _same_bits(got.trace.step_norms, want.trace.step_norms), \
            solver_id
        assert _same_bits(got.x, want.x), solver_id
    # the patch saw scalar weights, exactly where the operator takes them
    assert any(scalar) == problem.h._scalar_bind


def _triplet_diff3d_operator(side):
    """The triplet-list builder that ``diff3d_operator`` replaced."""
    n = side ** 3
    idx = np.arange(n).reshape(side, side, side)
    rows, cols, vals = [], [], []
    row = 0
    for axis in range(3):
        shifted = np.roll(idx, -1, axis=axis)
        interior = np.ones((side, side, side), dtype=bool)
        sl = [slice(None)] * 3
        sl[axis] = side - 1
        interior[tuple(sl)] = False
        src = idx[interior].ravel()
        dst = shifted[interior].ravel()
        r = row + np.nonzero(interior.ravel())[0]
        rows.extend(np.repeat(r, 2))
        cols.extend(np.column_stack([src, dst]).ravel())
        vals.extend(np.tile([-1.0, 1.0], src.size))
        row += n
    return sp.csr_matrix((vals, (rows, cols)), shape=(3 * n, n))


@pytest.mark.parametrize("side", range(1, 8))
def test_diff3d_operator_matches_the_triplet_builder_bytewise(side):
    got, want = diff3d_operator(side), _triplet_diff3d_operator(side)
    assert got.shape == want.shape
    assert got.has_sorted_indices == want.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        # side 1 has no interior: empty arrays, whose dtypes still count
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.nnz == 6 * side ** 2 * (side - 1)


def test_diff3d_structure():
    A = diff3d_operator(3)
    assert A.shape == (81, 27)
    prob = generate(ProblemRecipe("lasso_diff3d", side=3, lam=1.0))
    assert prob.dim == 27
    rows = sp.csr_matrix(A)
    for i in range(rows.shape[0]):
        vals = rows.data[rows.indptr[i]:rows.indptr[i + 1]]
        assert sorted(vals.tolist()) in ([], [-1.0, 1.0])
    # constant vectors sit in the null space (Neumann rows are zero)
    assert np.max(np.abs(A @ np.ones(27))) == 0.0


def test_group_blocks_partition():
    prob = generate(ProblemRecipe("group_lasso", m=16, n=24, lam=1.0,
                                  block_cap=12, seed=5))
    sizes = [len(b) for b in prob.blocks]
    assert sum(sizes) == 24
    assert max(sizes) <= 12
    assert np.array_equal(np.sort(np.concatenate(prob.blocks)), np.arange(24))


def test_power_iteration_matches_dense(rng):
    A = rng.standard_normal((12, 8))
    got = estimate_sq_norm(A, iters=200, tol=1e-12)
    want = np.linalg.norm(A.T @ A, 2)
    assert got == pytest.approx(want, rel=1e-6)


def test_reference_scalar_lasso_analytic(cache_dir):
    # 1-d lasso: x* = soft(b/a, lam/a^2)
    a_val, b_val, lam = 2.0, 3.0, 0.8
    prob = ProblemSpec(
        dim=1,
        f=lambda x: 0.5 * (a_val * x[0] - b_val) ** 2,
        grad=lambda x: np.array([a_val * (a_val * x[0] - b_val)]),
        h=L1Norm(lam), lipschitz=a_val ** 2, name="scalar")
    prob.A = np.array([[a_val]])
    prob.b = np.array([b_val])
    ref = reference_solution(prob, use_cache=False)
    want = np.sign(b_val / a_val) * max(abs(b_val / a_val) -
                                        lam / a_val ** 2, 0.0)
    assert ref.x_star[0] == pytest.approx(want, abs=1e-9)


def test_reference_nnls_identity(cache_dir):
    b = np.array([1.0, 2.0, 0.5])
    prob = ProblemSpec(
        dim=3,
        f=lambda x: 0.5 * float(np.sum((x - b) ** 2)),
        grad=lambda x: x - b,
        h=NonNeg(), lipschitz=1.0, name="nnls_eye")
    prob.A = np.eye(3)
    prob.b = b
    ref = reference_solution(prob, use_cache=False)
    np.testing.assert_allclose(ref.x_star, b, atol=1e-9)


def test_reference_cache_roundtrip(cache_dir):
    recipe = ProblemRecipe("lasso_gaussian", m=20, n=30, lam=0.2, seed=2)
    prob = generate(recipe)
    first = reference_solution(prob, cache_dir=cache_dir)
    assert not first.cache_hit
    second = reference_solution(prob, cache_dir=cache_dir)
    assert second.cache_hit
    assert second.f_star == first.f_star
    assert np.array_equal(second.x_star, first.x_star)


def _cache_files(cache_dir, recipe):
    key = f"{recipe.digest()}_t{1e-12:g}"
    return (os.path.join(cache_dir, key + ".npy"),
            os.path.join(cache_dir, key + ".json"))


def test_reference_cache_truncated_npy_is_recomputed(tmp_path):
    recipe = ProblemRecipe("lasso_gaussian", m=20, n=30, lam=0.2, seed=4)
    prob = generate(recipe)
    first = reference_solution(prob, cache_dir=str(tmp_path))
    xpath, _ = _cache_files(str(tmp_path), recipe)
    with open(xpath, "rb") as fh:
        blob = fh.read()
    with open(xpath, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    again = reference_solution(prob, cache_dir=str(tmp_path))
    assert not again.cache_hit
    assert again.f_star == first.f_star
    assert reference_solution(prob, cache_dir=str(tmp_path)).cache_hit
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


def test_reference_cache_version_mismatch_is_recomputed(tmp_path):
    recipe = ProblemRecipe("lasso_gaussian", m=20, n=30, lam=0.2, seed=4)
    prob = generate(recipe)
    first = reference_solution(prob, cache_dir=str(tmp_path))
    _, jpath = _cache_files(str(tmp_path), recipe)
    with open(jpath) as fh:
        meta = json.load(fh)
    meta["version"], meta["f_star"] = "0.0.0-stale", 123.0
    with open(jpath, "w") as fh:
        json.dump(meta, fh)
    again = reference_solution(prob, cache_dir=str(tmp_path))
    assert not again.cache_hit
    assert again.f_star == first.f_star
    with open(jpath) as fh:
        assert json.load(fh)["version"] == __version__


def test_race_single_pair(cache_dir):
    prob = generate(ProblemRecipe("lasso_gaussian", m=20, n=30, lam=0.2,
                                  seed=2))
    entries = race([prob], ["ista"], max_iters=20000, tol=1e-9,
                   cache_dir=cache_dir)
    assert len(entries) == 1
    entry = entries[0]
    assert entry.error is None
    assert np.all(np.diff(entry.trace.seconds) >= 0)
    assert np.all(np.diff(entry.trace.iters) > 0)
    assert entry.trace.objective_errors()[-1] <= 1e-6


def test_race_records_failures(cache_dir, monkeypatch):
    from proxqn.solver import SOLVERS

    prob = generate(ProblemRecipe("lasso_gaussian", m=10, n=12, lam=0.2,
                                  seed=3))

    def boom(problem, opts):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(SOLVERS, "ista", boom)
    entries = race([prob], ["ista", "zero-sr1"], max_iters=2000,
                   cache_dir=cache_dir, tol=1e-6)
    by_solver = {e.solver_id: e for e in entries}
    assert "synthetic failure" in by_solver["ista"].error
    assert by_solver["zero-sr1"].error is None


def test_trace_csv_roundtrip(tmp_path):
    trace = ConvergenceTrace(solver_id="s", problem_id="p", f_star=1.0)
    trace.append(0, 2.0, 0.5, 0.0)
    trace.append(1, 1.5, 0.25, 0.1)
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    data = read_trace_csv(path)
    np.testing.assert_allclose(data["obj_err"], [1.0, 0.5])
    np.testing.assert_allclose(data["step_norm"], [0.5, 0.25])
    with pytest.raises(ValueError):
        trace.append(1, 1.0, 0.1, 0.2)
    with pytest.raises(ValueError):
        trace.append(5, 1.0, 0.1, 0.01)


def test_manifest(tmp_path, cache_dir):
    prob = generate(ProblemRecipe("lasso_gaussian", m=10, n=12, lam=0.2,
                                  seed=3))
    entries = race([prob], ["ista"], max_iters=5000, cache_dir=cache_dir,
                   tol=1e-8)
    path = tmp_path / "manifest.json"
    write_manifest(path, entries, [prob], {"tol": 1e-8})
    manifest = json.loads(path.read_text())
    assert manifest["problems"][0]["digest"] == prob.recipe.digest()
    assert manifest["runs"][0]["solver"] == "ista"


def test_desk_recipes_families():
    fams = [r.family for r in desk_recipes()]
    assert fams == ["lasso_gaussian", "lasso_diff3d", "group_lasso"]

"""Which paths load scipy.  The package, the benchmark module, the CLI and
all five solvers run on numpy alone for every generated family; the affine
constraint, validate's simplex oracle and the manifest import scipy where
they use it.  Each check runs in a fresh interpreter, since this process
has scipy loaded already."""

import json
import os
import subprocess
import sys

import proxqn

SRC = os.path.dirname(os.path.dirname(os.path.abspath(proxqn.__file__)))
# the scipy modules loaded so far, printed as the script's last line
LOADED = ("print(json.dumps(sorted(m for m in sys.modules "
          "if m.split('.')[0] == 'scipy')))")


def _fresh(code):
    """The JSON values that ``code`` prints, one a line, when run in a new
    interpreter with the package's source on its path."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path
                                              else "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_dense_solves_load_no_scipy():
    # every solver on every dense family, 0BFGS's joint Newton included
    [methods, loaded] = _fresh(f"""
import json, sys
import proxqn, proxqn.bench, proxqn.cli
from proxqn import scaled
from proxqn.bench import ProblemRecipe, generate
from proxqn.solver import SOLVERS, SolverOptions
methods = set()
route = scaled._route
def traced(*args):
    point, report = route(*args)
    methods.add(report.method)
    return point, report
scaled._route = traced
proxqn.solver._route = traced
for recipe in (ProblemRecipe("lasso_gaussian", m=30, n=60, seed=0),
               ProblemRecipe("group_lasso", m=20, n=40, lam=1.0, seed=1),
               ProblemRecipe("nnls", m=30, n=60, seed=0)):
    problem = generate(recipe)
    for solve in SOLVERS.values():
        solve(problem, SolverOptions(max_iters=50))
print(json.dumps(sorted(methods)))
{LOADED}
""")
    assert "rank2-joint" in methods and "ssnewton" in methods
    assert loaded == []


def test_the_grid_family_loads_no_scipy():
    # its operator is matrix-free; every solver runs on it too
    [loaded] = _fresh(f"""
import json, sys
from proxqn.bench import ProblemRecipe, generate
from proxqn.solver import SOLVERS, SolverOptions
problem = generate(ProblemRecipe("lasso_diff3d", side=4, lam=1.0, seed=0))
for solve in SOLVERS.values():
    solve(problem, SolverOptions(max_iters=50))
{LOADED}
""")
    assert loaded == []


def test_the_affine_constraint_loads_scipy_linalg_where_it_factors():
    # its prox and Jacobian product keep the bytes of the Cholesky formula
    # they evaluate, with scipy's factor and solve
    [before, same, after] = _fresh(f"""
import json, sys
import numpy as np
from proxqn.prox import AffineConstraint
rng = np.random.default_rng(5)
A, b = rng.standard_normal((3, 8)), rng.standard_normal(3)
x, d, M = rng.standard_normal(8), rng.uniform(0.5, 2.0, 8), \\
    rng.standard_normal((8, 2))
op = AffineConstraint(A, b)
{LOADED}
p = op.prox_diag(x, d)
jm = op.prox_diag_jvp(x, d, 1.0, M)
from scipy.linalg import cho_factor, cho_solve
AinvD = A / d[None, :]
factor = cho_factor(AinvD @ A.T)
want_p = x + AinvD.T @ cho_solve(factor, b - A @ x)
want_jm = M - AinvD.T @ cho_solve(factor, A @ M)
print(json.dumps([p.tobytes() == want_p.tobytes(),
                  jm.tobytes() == want_jm.tobytes()]))
{LOADED}
""")
    assert before == []
    assert same == [True, True]
    assert "scipy.linalg" in after


def test_the_manifest_environment_still_reports_scipy():
    [env, want] = _fresh("""
import json
from proxqn.bench import _environment
print(json.dumps(_environment()))
import scipy
blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"version": scipy.__version__, "name": blas["name"],
                  "blas_version": blas["version"]}))
""")
    assert env["scipy"]["version"] == want["version"]
    assert env["scipy"]["blas"]["name"] == want["name"]
    assert env["scipy"]["blas"]["version"] == want["blas_version"]

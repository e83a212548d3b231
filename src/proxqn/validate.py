"""Invariant suites and the independent oracles they check against.

Everything here exists to *verify* the production code: dense metric
assembly, Euclidean proximal maps written independently of the library's
weighted implementations, a brute-force primal minimizer for scaled
proxes, and one suite per family of invariants (metric algebra, prox
calculus, root finders, quasi-Newton bounds, convergence rates,
experiment reproduction).  The CLI ``validate`` subcommand and the
pytest acceptance module both run these suites.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass

import numpy as np

from .bench import _group_blocks, desk_recipes, generate, race
from .metric import LowRankMetric, PlusMinusMetric
from .prox import (
    AffineConstraint,
    Box,
    GroupL2,
    Hinge,
    L1Ball,
    L1Norm,
    LinfBall,
    NonNeg,
    Simplex,
)
from .quasi_newton import (
    QNPair,
    contraction_rate,
    sr1_eigen_bounds,
    zbfgs_eigen_bounds,
    zbfgs_metric,
)
from .scaled import (
    RootProblem,
    root_bisection,
    root_bound,
    root_exact_piecewise_affine,
    scaled_prox,
    scaled_prox_conjugate,
    scaled_prox_rank2,
)
from .solver import ProblemSpec, SolverOptions, run_zero_bfgs, run_zero_sr1

__all__ = [
    "SuiteResult",
    "SUITES",
    "run_suites",
    "dense_metric",
    "euclidean_prox_for",
    "brute_force_scaled_prox",
    "sample_metric",
    "sample_instance",
    "exhaustive_simplex_qp",
    "PROX_KINDS",
]

PROX_KINDS = ("l1", "nonneg", "box", "hinge", "simplex", "l1_ball",
              "group_l1l2", "affine")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: {self.detail} ({self.seconds:.1f}s)"


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def dense_metric(metric):
    """Dense assembly of a factored metric (oracle use only)."""
    V = np.diag(metric.diag).astype(float)
    for u in metric.U1.T:
        V += np.outer(u, u)
    for u in metric.U2.T:
        V -= np.outer(u, u)
    return V


def _euclid_soft(v, t):
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _euclid_simplex(v, radius):
    # continuous bisection on the shift, independent of the library's
    # sort-based projection; scipy is imported here, so that the CLI that
    # imports this module starts without it
    from scipy.optimize import bisect

    lo = float(np.min(v)) - (radius + 1.0) / v.size
    hi = float(np.max(v))
    theta = bisect(
        lambda c: float(np.sum(np.maximum(v - c, 0.0))) - radius,
        lo, hi, xtol=1e-15, maxiter=400)
    return np.maximum(v - theta, 0.0)


def _euclid_l1_ball(v, radius):
    if float(np.sum(np.abs(v))) <= radius:
        return v.copy()
    return np.sign(v) * _euclid_simplex(np.abs(v), radius)


def euclidean_prox_for(kind, params):
    """Independent Euclidean prox ``(v, t) -> argmin t h + 1/2||.-v||^2``."""
    if kind == "l1":
        lam = params["lam"]
        return lambda v, t: _euclid_soft(v, t * lam)
    if kind == "nonneg":
        return lambda v, t: np.maximum(v, 0.0)
    if kind == "box":
        lo, hi = params["lo"], params["hi"]
        return lambda v, t: np.clip(v, lo, hi)
    if kind == "hinge":
        lam = params["lam"]

        def _hinge(v, t):
            c = t * lam
            return np.where(v > c, v - c, np.minimum(v, 0.0))

        return _hinge
    if kind == "simplex":
        radius = params["radius"]
        return lambda v, t: _euclid_simplex(v, radius)
    if kind == "l1_ball":
        radius = params["radius"]
        return lambda v, t: _euclid_l1_ball(v, radius)
    if kind == "group_l1l2":
        lam, blocks = params["lam"], params["blocks"]

        def _group(v, t):
            out = np.zeros_like(v)
            for blk in blocks:
                nb = float(np.linalg.norm(v[blk]))
                if nb > t * lam:
                    out[blk] = (1.0 - t * lam / nb) * v[blk]
            return out

        return _group
    if kind == "affine":
        A, b = params["A"], params["b"]
        AAt = A @ A.T

        def _affine(v, t):
            return v + A.T @ np.linalg.solve(AAt, b - A @ v)

        return _affine
    raise ValueError(f"unknown prox kind {kind!r}")


def brute_force_scaled_prox(V, euclid_prox, x, kappa=1.0, tol=1e-13,
                            max_iters=200_000, step=None):
    """Minimize ``kappa h(z) + 1/2 ||x - z||_V^2`` by projected/proximal
    gradient descent with the optimal constant step (dense V; independent
    of the low-rank reduction it is used to check).  ``step`` is that step
    of ``V``, ``2 / (lambda_max + lambda_min)``, where the caller has it."""
    if step is None:
        ew = np.linalg.eigvalsh(V)
        step = 2.0 / (ew[-1] + ew[0])
    z = np.array(x, dtype=float, copy=True)
    for _ in range(max_iters):
        z_new = euclid_prox(z - step * (V @ (z - x)), step * kappa)
        if float(np.max(np.abs(z_new - z))) <= tol * (1.0 + np.max(np.abs(z))):
            return z_new
        z = z_new
    return z


def exhaustive_simplex_qp(y, d, radius):
    """Active-set enumeration oracle for the weighted simplex projection
    (N <= 6): try every support, solve the KKT system, keep the feasible
    candidate with the smallest objective."""
    n = len(y)
    best, best_obj = None, np.inf
    for mask in range(1, 2 ** n):
        support = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        w = 1.0 / d[support]
        theta = (float(np.sum(y[support])) - radius) / float(np.sum(w))
        z = np.zeros(n)
        z[support] = y[support] - theta / d[support]
        if np.any(z[support] < -1e-12):
            continue
        obj = 0.5 * float(np.sum(d * (z - y) ** 2))
        if obj < best_obj - 1e-15:
            best, best_obj = z, obj
    return best


# ---------------------------------------------------------------------------
# instance sampling
# ---------------------------------------------------------------------------


def sample_metric(rng, n, sign=None, g_sq_minus_max=0.5, d=None):
    """Random valid diag +- u u^T metric, on the diagonal ``d`` if given.

    Minus-sign factors are scaled so ``||P^{-1/2}u||^2 <= g_sq_minus_max``
    (0.5 keeps the strong-monotonicity modulus >= 1/2, which the
    bisection iteration-count bound requires).
    """
    if d is None:
        d = rng.uniform(0.5, 2.0, n)
    if sign is None:
        sign = +1 if rng.random() < 0.5 else -1
    u = rng.standard_normal(n)
    g_sq = float(np.dot(u, u / d))
    target = rng.uniform(0.05, g_sq_minus_max) if sign < 0 else \
        rng.uniform(0.1, 1.5)
    u *= np.sqrt(target / g_sq)
    return LowRankMetric(d, [u], sign)


def sample_instance(rng, kind, max_n=50):
    """One random (metric, operator, x, kappa) tuple plus oracle data."""
    n = int(rng.integers(2, max_n + 1))
    kappa = float(rng.choice([0.5, 1.0, 2.0]))
    params = {}
    blocks = None
    if kind == "l1":
        params["lam"] = float(rng.uniform(0.3, 1.5))
        op = L1Norm(params["lam"])
    elif kind == "nonneg":
        op = NonNeg()
    elif kind == "box":
        params["lo"] = -float(rng.uniform(0.2, 1.0))
        params["hi"] = float(rng.uniform(0.2, 1.0))
        op = Box(params["lo"], params["hi"])
    elif kind == "hinge":
        params["lam"] = float(rng.uniform(0.3, 1.5))
        op = Hinge(params["lam"])
    elif kind == "simplex":
        params["radius"] = float(rng.uniform(0.5, 2.0))
        op = Simplex(params["radius"])
    elif kind == "l1_ball":
        params["radius"] = float(rng.uniform(0.5, 2.0))
        op = L1Ball(params["radius"])
    elif kind == "group_l1l2":
        blocks = _group_blocks(rng, n, 6)
        params["lam"] = float(rng.uniform(0.3, 1.5))
        params["blocks"] = blocks
        op = GroupL2(params["lam"], blocks)
    elif kind == "affine":
        k = int(rng.integers(1, min(4, n)))
        A = rng.standard_normal((k, n))
        z0 = rng.standard_normal(n)
        params["A"], params["b"] = A, A @ z0
        op = AffineConstraint(A, A @ z0)
    else:
        raise ValueError(kind)

    # a group norm's weights are constant within its contiguous blocks
    d = None if blocks is None else np.repeat(
        rng.uniform(0.5, 2.0, len(blocks)), [len(b) for b in blocks])
    metric = sample_metric(rng, n, d=d)
    x = rng.standard_normal(n) * float(rng.choice([1.0, 3.0]))
    return metric, op, x, kappa, params


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result
    return wrapper


@_timed
def suite_metric(seed=0, count=50):
    """Dense PD, inverse-identity on random probes, and sign flip."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 30))
        r = int(rng.integers(0, 3))
        d = rng.uniform(0.5, 2.0, n)
        factors = []
        for _ in range(r):
            u = rng.standard_normal(n) * 0.4
            factors.append(u)
        sign = +1 if rng.random() < 0.5 else -1
        try:
            metric = LowRankMetric(d, factors, sign)
        except Exception:
            continue  # invalid minus-sign draws are rejected by design
        V = dense_metric(metric)
        if np.linalg.eigvalsh(V)[0] <= 0:
            return SuiteResult("metric", False, "dense assembly not PD")
        inv = metric.invert()
        if metric.rank and inv.sign != -metric.sign:
            return SuiteResult("metric", False, "sign did not flip")
        for _ in range(3):
            p = rng.standard_normal(n)
            err = float(np.max(np.abs(inv.apply(metric.apply(p)) - p)))
            worst = max(worst, err / (1.0 + np.max(np.abs(p))))
    passed = worst <= 1e-10
    return SuiteResult("metric", passed, f"worst inverse residual {worst:.2e}")


@_timed
def suite_prox_library(seed=0, count=60):
    """Sorted breakpoints with the prox affine between them (zero second
    difference at half the distance to the nearest one), non-expansiveness,
    diagonal Moreau identity, and permutation equivariance of separable
    proxes."""
    rng = np.random.default_rng(seed)
    worst_bp = worst_moreau = worst_exp = worst_perm = 0.0
    kinds = ("l1", "nonneg", "box", "hinge", "l1_ball", "simplex",
             "group_l1l2")
    for _ in range(count):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        metric, op, x, kappa, params = sample_instance(rng, kind, max_n=30)
        d = metric.diag
        n = d.shape[0]
        bp = op.pa_descriptor(d, kappa)
        if bp is not None:
            if np.any(np.diff(bp, axis=1) < 0):
                worst_bp = np.inf
            for _ in range(max(1000 // (count * n), 3)):
                z = rng.standard_normal(n) * 3.0
                step = 0.5 * np.min(np.abs(z[:, None] - bp), axis=1)
                step[np.isinf(step)] = 1.0   # no finite breakpoint (Zero)
                lo, mid, hi = (op.prox_diag(z + s * step, d, kappa)
                               for s in (-1.0, 0.0, 1.0))
                err = np.max(np.abs(lo - 2.0 * mid + hi))
                worst_bp = max(worst_bp, float(err))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        pa, pb = op.prox_diag(a, d, kappa), op.prox_diag(b, d, kappa)
        lhs = float(np.dot(pa - pb, d * (pa - pb)))
        rhs = float(np.dot(a - b, d * (a - b)))
        worst_exp = max(worst_exp, lhs - rhs * (1.0 + 1e-12))
        if op.separable:
            perm = rng.permutation(n)
            direct = op.prox_diag(a, d, kappa)[perm]
            permuted = op.prox_diag(a[perm], d[perm], kappa)
            worst_perm = max(worst_perm, float(np.max(np.abs(direct - permuted))))
        conj = op.conjugate()
        if conj is not None and not isinstance(op, GroupL2):
            ones = np.ones(n)
            for rho in (0.5, 1.0, 2.0):
                # Euclidean Moreau identity
                plain = conj.prox_diag(a, ones, rho) + \
                    rho * op.prox_diag(a / rho, ones, 1.0 / rho)
                worst_moreau = max(worst_moreau,
                                   float(np.max(np.abs(plain - a))))
                # diagonal-metric form: the conjugate side flips to 1/d
                weighted = conj.prox_diag(a, d, rho) + \
                    rho * op.prox_diag(d * a / rho, 1.0 / d, 1.0 / rho) / d
                worst_moreau = max(worst_moreau,
                                   float(np.max(np.abs(weighted - a))))
    passed = (worst_bp <= 1e-12 and worst_exp <= 1e-10 and
              worst_perm <= 1e-14 and worst_moreau <= 1e-12)
    return SuiteResult(
        "prox-library", passed,
        f"breakpoints {worst_bp:.2e}, moreau {worst_moreau:.2e}, "
        f"expansiveness slack {worst_exp:.2e}, permutation {worst_perm:.2e}")


def _battery_instances(seed, count, max_n):
    rng = np.random.default_rng(seed)
    for kind in PROX_KINDS:
        for _ in range(count):
            yield (kind,) + sample_instance(rng, kind, max_n=max_n)


@functools.lru_cache(maxsize=4)
def run_scaled_prox_battery(seed=0, count=200, max_n=50, oracle_tol=1e-13,
                            bisect_eps=1e-10):
    """Shared engine for the oracle-equivalence, method-agreement, and
    root-bound suites (they reuse one instance set; results are cached
    per parameter tuple so the three suites pay for one pass)."""
    worst_primal = 0.0
    worst_agree = 0.0
    worst_exact_res = 0.0
    bound_violations = 0
    count_violations = 0
    checked = {"oracle": 0, "agree": 0, "bound": 0}
    for kind, metric, op, x, kappa, params in _battery_instances(
            seed, count, max_n):
        p, report = scaled_prox(metric, op, x, kappa=kappa)
        V = dense_metric(metric)
        z_star = brute_force_scaled_prox(
            V, euclidean_prox_for(kind, params), x, kappa, tol=oracle_tol)
        worst_primal = max(worst_primal, float(np.max(np.abs(p - z_star))))
        checked["oracle"] += 1

        problem = RootProblem(metric, op, x, kappa)
        rep_bis = root_bisection(problem, eps=bisect_eps)
        alphas = [float(rep_bis.alpha_star[0])]
        alphas.append(float(report.alpha_star[0]))
        if op.pa_descriptor(metric.diag, kappa) is not None:
            rep_exact = root_exact_piecewise_affine(problem)
            alphas.append(float(rep_exact.alpha_star[0]))
            worst_exact_res = max(worst_exact_res, rep_exact.residual)
        spread = max(alphas) - min(alphas)
        worst_agree = max(worst_agree, spread)
        checked["agree"] += 1

        beta = root_bound(problem)
        alpha_best = alphas[-1]
        if abs(alpha_best) > beta * (1.0 + 1e-12) + 1e-12:
            bound_violations += 1
        c = problem.monotonicity_modulus
        if beta > 0:
            allowed = int(np.ceil(np.log2(2.0 * c * beta / bisect_eps))) + 2
            if rep_bis.iterations > allowed:
                count_violations += 1
        checked["bound"] += 1
    return {
        "worst_primal": worst_primal,
        "worst_agree": worst_agree,
        "worst_exact_res": worst_exact_res,
        "bound_violations": bound_violations,
        "count_violations": count_violations,
        "checked": checked,
    }


@_timed
def suite_prox_oracle(seed=0, count=200, max_n=50):
    """Scaled prox vs brute-force primal minimizer, 1e-7 sup-norm."""
    stats = run_scaled_prox_battery(seed, count, max_n)
    passed = stats["worst_primal"] <= 1e-7
    return SuiteResult(
        "prox-oracle", passed,
        f"{stats['checked']['oracle']} instances, worst gap "
        f"{stats['worst_primal']:.2e}")


@_timed
def suite_method_agreement(seed=0, count=200, max_n=50):
    """Exact / bisection / semi-smooth Newton agreement within 1e-8 and
    exact-method residual below 1e-12."""
    stats = run_scaled_prox_battery(seed, count, max_n)
    passed = (stats["worst_agree"] <= 1e-8 and
              stats["worst_exact_res"] <= 1e-12)
    return SuiteResult(
        "method-agreement", passed,
        f"alpha spread {stats['worst_agree']:.2e}, exact residual "
        f"{stats['worst_exact_res']:.2e}")


@_timed
def suite_root_bound(seed=0, count=200, max_n=50):
    """|alpha*| within the bracket radius and the bisection count within
    ceil(log2(2 c beta / eps)) + 2."""
    stats = run_scaled_prox_battery(seed, count, max_n)
    passed = (stats["bound_violations"] == 0 and
              stats["count_violations"] == 0)
    return SuiteResult(
        "root-bound", passed,
        f"{stats['checked']['bound']} instances, "
        f"{stats['bound_violations']} bound / "
        f"{stats['count_violations']} count violations")


@_timed
def suite_monotonicity(seed=0, instances=20, pairs=1000):
    """Strong monotonicity and Lipschitz bounds of the dual map with the
    exact theorem constants on random pairs, tolerance 1e-9."""
    rng = np.random.default_rng(seed)
    kinds = PROX_KINDS
    worst = 0.0
    for i in range(instances):
        kind = kinds[i % len(kinds)]
        metric, op, x, kappa, _ = sample_instance(rng, kind, max_n=30)
        problem = RootProblem(metric, op, x, kappa)
        c = problem.monotonicity_modulus
        lip = problem.lipschitz_bound
        scale = 1.0 + float(np.linalg.norm(x))
        for _ in range(pairs):
            a = rng.uniform(-2.0, 2.0) * scale
            b = rng.uniform(-2.0, 2.0) * scale
            if a == b:
                continue
            la = float(problem.map_L([a])[0])
            lb = float(problem.map_L([b])[0])
            mono_gap = c * (a - b) ** 2 - (la - lb) * (a - b)
            lip_gap = abs(la - lb) - lip * abs(a - b)
            worst = max(worst, mono_gap, lip_gap)
    passed = worst <= 1e-9
    return SuiteResult("monotonicity", passed,
                       f"worst constant violation {worst:.2e}")


@_timed
def suite_moreau_metric(seed=0, count=100):
    """Moreau identity in the low-rank metric: the prox of ``rho h*`` in
    ``V`` against :func:`scaled_prox_conjugate`'s, through ``V^{-1}``."""
    rng = np.random.default_rng(seed)
    pairs = [
        lambda r: L1Norm(r.uniform(0.3, 1.5)),
        lambda r: NonNeg(),
        lambda r: L1Ball(r.uniform(0.5, 2.0)),
        lambda r: Simplex(r.uniform(0.5, 2.0)),
        lambda r: Hinge(r.uniform(0.3, 1.5)),
        lambda r: LinfBall(r.uniform(0.5, 2.0)),
    ]
    rhos = (0.5, 1.0, 2.0)
    worst = 0.0
    for i in range(count):
        n = int(rng.integers(2, 25))
        metric = sample_metric(rng, n)
        op = pairs[i % len(pairs)](rng)
        conj = op.conjugate()
        x = rng.standard_normal(n) * 2.0
        rho = rhos[i % len(rhos)]
        lhs, _ = scaled_prox(metric, conj, x, kappa=rho, tol=1e-13)
        residual = lhs - scaled_prox_conjugate(metric, op, x, rho,
                                               tol=1e-13)[0]
        worst = max(worst, float(np.max(np.abs(residual))))
    passed = worst <= 1e-10
    return SuiteResult("moreau", passed, f"worst identity residual {worst:.2e}")


def _quadratic_l1_problem(rng, n, mu, L, lam):
    q = np.concatenate([[mu, L], rng.uniform(mu, L, n - 2)])
    rng.shuffle(q)
    b = rng.standard_normal(n) * 2.0
    h = L1Norm(lam)

    def f(x):
        return float(0.5 * np.dot(q * x, x) - np.dot(b, x))

    def grad(x):
        return q * x - b

    x_star = np.sign(b / q) * np.maximum(np.abs(b / q) - lam / q, 0.0)
    problem = ProblemSpec(dim=n, f=f, grad=grad, h=h, lipschitz=L,
                          name="quadratic_l1")
    problem.f_star = problem.objective(x_star)
    return problem


@_timed
def suite_secant(seed=0, steps=200, n=40):
    """Secant identity H y = s (1e-12 relative) and B H = I (1e-10) along
    solver trajectories on a strongly convex quadratic + l1."""
    rng = np.random.default_rng(seed)
    problem = _quadratic_l1_problem(rng, n, mu=0.05, L=5.0, lam=0.3)
    opts = SolverOptions(max_iters=steps, tol=0.0, record_metrics=True,
                         x0=rng.standard_normal(n) * 10.0)
    worst_secant = worst_inverse = 0.0
    skipped = 0
    for variant, runner in (("sr1", run_zero_sr1), ("bfgs", run_zero_bfgs)):
        result = runner(problem, opts)
        for H, pair in result.metrics:
            if pair is None:
                continue
            if H.rank == 0:
                skipped += 1
                continue
            res = np.max(np.abs(H.apply(pair.y) - pair.s))
            worst_secant = max(worst_secant,
                               float(res) / (1.0 + np.max(np.abs(pair.s))))
            B = H.invert() if variant == "sr1" else zbfgs_metric(pair)[1]
            probe = rng.standard_normal(n)
            err = np.max(np.abs(B.apply(H.apply(probe)) - probe))
            worst_inverse = max(worst_inverse,
                                float(err) / (1.0 + np.max(np.abs(probe))))
    passed = worst_secant <= 1e-12 and worst_inverse <= 1e-10
    return SuiteResult(
        "secant", passed,
        f"secant {worst_secant:.2e}, inverse {worst_inverse:.2e}, "
        f"{skipped} skips")


@_timed
def suite_eigen_bounds(seed=0, steps=200):
    """Dense eigenvalues of the trajectory metrics inside the uniform
    intervals of the eigenvalue lemmas (tolerance 1e-9).

    The instance is conditioned so that all recorded steps stay well above
    rounding level; pairs from vanishing steps carry no curvature
    information in floating point and are skipped by the solver.
    """
    dim = 40  # a smaller instance converges before it records ``steps`` pairs
    rng = np.random.default_rng(seed)
    mu, L = 0.05, 5.0
    problem = _quadratic_l1_problem(rng, dim, mu=mu, L=L, lam=0.3)
    worst = 0.0
    pairs_checked = 0
    for variant, runner, bounds, gamma in (
            ("sr1", run_zero_sr1, sr1_eigen_bounds, 0.8),
            ("bfgs", run_zero_bfgs, zbfgs_eigen_bounds, 1.0)):
        a, b = bounds(mu, L, gamma)
        opts = SolverOptions(max_iters=steps, tol=0.0, record_metrics=True,
                             gamma=gamma, x0=rng.standard_normal(dim) * 10.0)
        result = runner(problem, opts)
        for H, pair in result.metrics:
            if pair is None:
                continue  # first iteration or a skipped rounding-level step
            ew = np.linalg.eigvalsh(dense_metric(H))
            worst = max(worst, a - ew[0], ew[-1] - b)
            pairs_checked += 1
    passed = worst <= 1e-9 and pairs_checked >= steps
    return SuiteResult(
        "eigen-bounds", passed,
        f"{pairs_checked} metrics, worst interval violation {worst:.2e}")


@_timed
def suite_rates(seed=0, n=20, cond=8.0, iters=6000):
    """Per-step contraction of the objective error below the rate computed
    from the convergence theorems (gamma = 1/2, t = 1, kappa = 1/(L b))."""
    rng = np.random.default_rng(seed)
    mu, L = 1.0, float(cond)
    problem = _quadratic_l1_problem(rng, n, mu=mu, L=L, lam=0.2)
    detail = []
    passed = True
    for variant, runner in (("sr1", run_zero_sr1), ("bfgs", run_zero_bfgs)):
        gamma = 0.5
        bounds = sr1_eigen_bounds if variant == "sr1" else zbfgs_eigen_bounds
        _, b = bounds(mu, L, gamma)
        kappa = 1.0 / (L * b)
        rho = contraction_rate(mu, L, gamma, kappa, kappa, variant=variant)
        opts = SolverOptions(max_iters=iters, tol=0.0, line_search="none",
                             gamma=gamma, kappa=kappa,
                             x0=rng.standard_normal(n))
        result = runner(problem, opts)
        errs = np.asarray(result.trace.objectives) - problem.f_star
        ratios = [errs[k + 1] / errs[k]
                  for k in range(len(errs) - 1) if errs[k] > 1e-12]
        worst = max(ratios) if ratios else 0.0
        ok = worst <= rho + 1e-6
        passed &= ok
        detail.append(f"{variant}: max ratio {worst:.8f} vs rho {rho:.8f}")
    return SuiteResult("rates", passed, "; ".join(detail))


_BALL_FRACTIONS = (0.5, 1.0, -1.0, 0.25, 0.75, -0.5, 0.85, 0.35, -0.75,
                   0.6, 0.15, 0.95)


@_timed
def suite_ssnewton_local(seed=0, count=50):
    """Superlinear tail of semi-smooth Newton on group-norm prox
    instances: last three residual ratios strictly decreasing, final one
    below 0.1, convergence to 1e-10 within 20 iterations.

    Convergence within budget is asserted for every sampled instance from
    every bound-ball starting point tried.  The three-ratio pattern is
    asserted on ``count`` *instrumentable* runs: a run's tail is only
    measurable when it has at least four residuals and the penultimate one
    sits well above the map-evaluation rounding floor; when the root lies
    next to a breakpoint the iteration finishes in one or two steps from
    any starting point and saturates at rounding level, so such instances
    are skipped (the skip rule never looks at the ratio pattern itself).

    The starts are fractions of the norm radius ``||u|| 2 ||x||``, not of
    :func:`root_bound`'s ``2 |L(0)| / c``, and the thresholds hold for
    these starts.  From a start far out but inside a valid bracket the
    Newton on a group norm need not show a superlinear tail: with
    ``root_bound``-based single-sign starts, draw #36 of seed 0 fails the
    tail test, its residual rising before the final step (4.2e-3, 6.1e-3,
    9.6e-9).
    """
    rng = np.random.default_rng(seed)
    failures = []
    measured = 0
    drawn = 0
    while measured < count and drawn < 4 * count and len(failures) < 8:
        i = drawn
        drawn += 1
        n = int(rng.integers(10, 60))
        blocks = _group_blocks(rng, n, 6)
        op = GroupL2(float(rng.uniform(0.5, 2.0)), blocks)
        d = np.repeat(rng.uniform(0.5, 2.0, len(blocks)),
                      [len(b) for b in blocks])
        x = rng.standard_normal(n)
        reach = 2.0 * float(np.linalg.norm(x))

        if i % 2 == 0:
            sign = +1 if rng.random() < 0.5 else -1
            u = rng.standard_normal(n)
            target = rng.uniform(0.1, 0.4) if sign < 0 else \
                rng.uniform(0.5, 1.5)
            u *= np.sqrt(target / float(np.dot(u, u / d)))
            metric = LowRankMetric(d, [u], sign)
            beta = float(np.linalg.norm(u)) * reach

            def newton_from(frac):
                return scaled_prox(metric, op, x, tol=1e-10,
                                   warm_alpha=[frac * beta])[1]
        else:
            u1 = rng.standard_normal(n)
            u1 *= np.sqrt(rng.uniform(0.5, 1.5) / float(np.dot(u1, u1 / d)))
            u2 = rng.standard_normal(n)
            u2 *= np.sqrt(rng.uniform(0.2, 0.45) / float(np.dot(u2, u2 / d)))
            metric = PlusMinusMetric(d, [u1], [u2])
            b1 = float(np.linalg.norm(u1)) * reach
            b2 = float(np.linalg.norm(u2)) * reach

            def newton_from(frac):
                _, rep = scaled_prox_rank2(metric, op, x, tol=1e-10,
                                           warm=[frac * b1, frac * b2])
                return rep

        chosen = None
        for frac in _BALL_FRACTIONS:
            rep = newton_from(frac)
            history = rep.residual_history
            if rep.residual > 1e-10 or len(history) - 1 > 20:
                failures.append(
                    f"#{i}: residual {rep.residual:.1e} in "
                    f"{len(history) - 1} steps from {frac:+.2f}*beta")
                chosen = None
                break
            if chosen is None and len(history) >= 4 and \
                    history[-2] >= 1e-6 and history[-1] <= 1e-10:
                chosen = history
        if chosen is None:
            continue
        measured += 1
        ratios = [chosen[k + 1] / chosen[k] for k in range(len(chosen) - 1)
                  if chosen[k] > 0]
        tail = ratios[-3:]
        if not (len(tail) == 3 and tail[0] > tail[1] > tail[2]
                and tail[2] < 0.1):
            failures.append(f"#{i}: tail {['%.1e' % t for t in tail]}")
    if measured < count:
        failures.append(f"only {measured}/{count} instrumentable instances")
    passed = not failures
    detail = f"{measured} instances from {drawn} draws" if passed \
        else "; ".join(failures[:4])
    return SuiteResult("ssnewton-local", passed, detail)


@_timed
def suite_experiments(seed=0, cache_dir=None):
    """Desk-scale reproduction: all solvers reach the cached reference
    within 1e-6 objective error and the 0SR1 iteration count to 1e-4
    never exceeds the ISTA count."""
    problems = [generate(r) for r in desk_recipes(seed)]
    solver_ids = ["zero-sr1", "zero-bfgs", "ista", "fista-bb", "spg"]
    opts = SolverOptions(max_iters=400_000, budget_seconds=120.0, tol=1e-9)
    entries = race(problems, solver_ids, opts, cache_dir=cache_dir)
    by_key = {}
    failures = []
    for e in entries:
        if e.error is not None:
            failures.append(f"{e.solver_id}/{e.problem_id}: {e.error}")
            continue
        err = float(e.trace.objective_errors()[-1])
        final = e.result.objective - e.trace.f_star
        by_key[(e.solver_id, e.problem_id)] = e
        if final > 1e-6:
            failures.append(
                f"{e.solver_id}/{e.problem_id}: final error {final:.2e}")
    for problem in problems:
        sr1 = by_key.get(("zero-sr1", problem.name))
        ista = by_key.get(("ista", problem.name))
        if sr1 is None or ista is None:
            continue
        k_sr1 = sr1.trace.iterations_to_error(1e-4)
        k_ista = ista.trace.iterations_to_error(1e-4)
        if k_sr1 is None or (k_ista is not None and k_sr1 > k_ista):
            failures.append(
                f"{problem.name}: 0SR1 {k_sr1} its vs ISTA {k_ista} to 1e-4")
    passed = not failures
    detail = f"{len(entries)} runs on {len(problems)} families" if passed \
        else "; ".join(failures[:4])
    return SuiteResult("experiments", passed, detail)


@_timed
def suite_complexity(seed=0, small=10_000, large=100_000, repeats=21):
    """Sub-quadratic growth of the l1 exact path: timing ratio between
    N = large and N = small at most 15.

    Rounds of the two sizes are interleaved and the minimum per size is
    used, which suppresses allocator and cache noise.
    """
    rng = np.random.default_rng(seed)

    def instance(n):
        d = rng.uniform(0.5, 2.0, n)
        u = rng.standard_normal(n)
        u *= np.sqrt(0.8 / float(np.dot(u, u / d)))
        return LowRankMetric(d, [u], +1), L1Norm(0.5), rng.standard_normal(n)

    cases = {n: instance(n) for n in (small, large)}

    def one(n):
        metric, op, x = cases[n]
        t0 = time.perf_counter()
        scaled_prox(metric, op, x, finder="exact")
        return time.perf_counter() - t0

    one(small), one(large)  # warm-up
    times = {small: np.inf, large: np.inf}
    for _ in range(repeats):
        for n in (small, large):
            times[n] = min(times[n], one(n))
    ratio = times[large] / times[small]
    passed = ratio <= 15.0
    return SuiteResult(
        "complexity", passed,
        f"{large}/{small} timing ratio {ratio:.1f} "
        f"({times[small] * 1e3:.1f}ms -> {times[large] * 1e3:.1f}ms)")


SUITES = {
    "metric": suite_metric,
    "prox-library": suite_prox_library,
    "prox-oracle": suite_prox_oracle,
    "method-agreement": suite_method_agreement,
    "root-bound": suite_root_bound,
    "monotonicity": suite_monotonicity,
    "moreau": suite_moreau_metric,
    "secant": suite_secant,
    "eigen-bounds": suite_eigen_bounds,
    "rates": suite_rates,
    "ssnewton-local": suite_ssnewton_local,
    "experiments": suite_experiments,
    "complexity": suite_complexity,
}


def run_suites(names=None, seed=0, **overrides):
    """Run the named suites (all by default) and return their results.

    Extra keyword overrides are forwarded to each suite that accepts them.
    """
    names = list(SUITES) if not names else list(names)
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        fn = SUITES[name]
        params = inspect.signature(fn).parameters
        kwargs = {"seed": seed}
        kwargs.update({k: v for k, v in overrides.items() if k in params})
        results.append(fn(**kwargs))
    return results

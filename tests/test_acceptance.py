"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria, with tolerances pinned here:
  1  scaled-prox vs brute-force primal minimizer, 1e-7 sup-norm,
     200 instances per function family, N <= 50, < 2 min
  2  exact / bisection(1e-10) / semi-smooth Newton agreement within 1e-8;
     exact residual <= 1e-12
  3  root bound |alpha*| <= beta and bisection count within
     ceil(log2(2 c beta / eps)) + 2
  4  strong-monotonicity / Lipschitz constants on 1000 pairs per
     instance, tolerance 1e-9
  5  metric Moreau identity residual <= 1e-10, 100 tuples,
     rho in {0.5, 1, 2}
  6  secant <= 1e-12 relative; trajectory metric eigenvalues inside the
     lemma intervals, tolerance 1e-9
  7  per-step objective contraction below the theorem rate
     (gamma = 1/2, t = 1, kappa = 1/(L b)), tolerance 1e-6, < 30 s
  8  semi-smooth Newton superlinear tail on 50 group instances and
     convergence to 1e-10 within 20 iterations
  9  desk-scale experiments: every solver within 1e-6 of the cached
     reference and 0SR1 <= ISTA iterations to 1e-4, < 5 min
  10 l1 exact-path timing ratio 1e5/1e4 at most 15, < 1 min
"""

import time

import pytest

from proxqn.validate import (
    suite_complexity,
    suite_eigen_bounds,
    suite_experiments,
    suite_method_agreement,
    suite_monotonicity,
    suite_moreau_metric,
    suite_prox_oracle,
    suite_rates,
    suite_root_bound,
    suite_secant,
    suite_ssnewton_local,
)

SEED = 0


def _report(criterion, result, budget=None):
    line = f"criterion {criterion}: {result.line()}"
    print(line)
    assert result.passed, line
    if budget is not None:
        assert result.seconds < budget, \
            f"criterion {criterion} exceeded its {budget}s budget " \
            f"({result.seconds:.1f}s)"


def test_criterion_1_scaled_prox_oracle_equivalence():
    _report(1, suite_prox_oracle(seed=SEED, count=200, max_n=50), budget=120)


def test_criterion_2_method_agreement():
    _report(2, suite_method_agreement(seed=SEED, count=200, max_n=50))


def test_criterion_3_root_bound_and_bisection_count():
    _report(3, suite_root_bound(seed=SEED, count=200, max_n=50))


def test_criterion_4_monotonicity_and_lipschitz_constants():
    _report(4, suite_monotonicity(seed=SEED, instances=20, pairs=1000))


def test_criterion_5_moreau_identity_in_metric():
    _report(5, suite_moreau_metric(seed=SEED, count=100))


def test_criterion_6_secant_and_eigenvalue_bounds():
    _report("6a", suite_secant(seed=SEED, steps=200))
    _report("6b", suite_eigen_bounds(seed=SEED, steps=200))


def test_criterion_7_linear_rate_contraction():
    _report(7, suite_rates(seed=SEED, cond=8.0), budget=30)


def test_criterion_8_ssnewton_local_behavior():
    _report(8, suite_ssnewton_local(seed=SEED, count=50))


def test_criterion_9_desk_scale_experiments(cache_dir):
    _report(9, suite_experiments(seed=SEED, cache_dir=cache_dir),
            budget=300)


def test_criterion_10_exact_path_complexity():
    _report(10, suite_complexity(seed=SEED), budget=60)

"""Tests of the benchmark's scoring rules on synthetic solver outcomes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE),
                os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

from proxqn.scaled import RootSolverReport  # noqa: E402
from proxqn.trace import ConvergenceTrace  # noqa: E402

import scoring  # noqa: E402
from scoring import SolveOutcome  # noqa: E402


def _outcome(objectives, seconds, status="converged", duration=None,
             solver_id="ista"):
    trace = ConvergenceTrace(solver_id=solver_id)
    for k, (f, t) in enumerate(zip(objectives, seconds)):
        trace.append(k, f, 1.0, t)
    return SolveOutcome(solver_id, status, objectives[-1], len(objectives) - 1,
                        seconds[-1] if duration is None else duration, trace)


def test_time_to_error_reads_the_first_iterate_under_the_threshold():
    o = _outcome([10.0, 1.0 + 1e-3, 1.0 + 5e-7, 1.0 + 1e-10, 1.0],
                 [0.1, 0.2, 0.3, 0.4, 0.5], duration=9.0)
    assert scoring.time_to_error(o, 1.0, 1e-6) == (0.3, 2)
    assert scoring.time_to_error(o, 1.0, 1e-9) == (0.4, 3)


def test_time_to_error_threshold_is_inclusive():
    o = _outcome([2.0, 1.5, 1.0 + 2.0 ** -20], [0.1, 0.2, 0.3])
    assert scoring.time_to_error(o, 1.0, 2.0 ** -20) == (0.3, 2)


def test_a_solve_that_never_reaches_the_threshold_adds_its_whole_duration():
    # ends within FAIL_GAP of f* (not failed) but never within 1e-9
    o = _outcome([3.0, 1.0 + 5e-7], [0.1, 0.2], status="stagnated",
                 duration=7.5)
    assert not scoring.solve_failed(o, 1.0)
    assert scoring.time_to_error(o, 1.0, 1e-6) == (0.2, 1)
    assert scoring.time_to_error(o, 1.0, 1e-9) == (7.5, 1)


def test_a_capped_solve_fails_and_adds_its_whole_duration():
    # accurate early, then runs to the iteration cap
    o = _outcome([3.0, 1.0, 1.0, 1.0], [0.1, 0.2, 0.3, 0.4],
                 status="max_iters", duration=76.0)
    assert scoring.solve_failed(o, 1.0)
    assert not scoring.silently_wrong(o, 1.0)
    assert scoring.time_to_error(o, 1.0, 1e-9) == (76.0, 3)


def test_time_to_error_reads_a_repetition_where_the_judged_solve_got_there():
    judged = _outcome([3.0, 1.5, 1.0 + 1e-7, 1.0], [0.5, 0.6, 0.7, 0.8])
    early = _outcome([3.0, 1.5, 1.0 + 1e-7], [0.1, 0.2, 0.25],
                     status="max_iters", duration=0.3)
    assert scoring.time_to_error(judged, 1.0, 1e-6, early) == (0.25, 2)
    capped = _outcome([3.0, 2.0], [0.5, 0.6], status="max_iters", duration=0.7)
    assert scoring.time_to_error(capped, 1.0, 1e-6, early) == (0.3, 1)


def test_a_repetition_stops_at_the_tightest_threshold_unless_the_solve_failed():
    o = _outcome([10.0, 1.0 + 1e-3, 1.0 + 1e-10, 1.0], [0.1, 0.2, 0.3, 0.4])
    assert scoring.repeat_iterations(o, 1.0) == 3
    near = _outcome([10.0, 1.0 + 5e-7], [0.1, 0.2])
    assert scoring.repeat_iterations(near, 1.0) is None
    capped = _outcome([10.0, 1.0], [0.1, 0.2], status="max_iters")
    assert scoring.repeat_iterations(capped, 1.0) is None


def test_a_repetition_must_record_the_same_iterates():
    first = _outcome([3.0, 2.0, 1.0], [0.1, 0.2, 0.3])
    assert scoring.repeats(first, _outcome([3.0, 2.0], [0.5, 0.6]))
    assert not scoring.repeats(first, _outcome([3.0, 2.5], [0.1, 0.2]))
    raised = SolveOutcome("ista", "error", math.nan, 0, 0.05, error="boom")
    assert not scoring.repeats(first, raised)


def test_a_solve_that_raised_fails():
    o = SolveOutcome("zero-bfgs", "error", math.nan, 0, 0.5,
                     error="SolverError: objective increased")
    assert scoring.solve_failed(o, 1.0)
    assert scoring.time_to_error(o, 1.0, 1e-6) == (0.5, 0)


def test_nan_objective_fails_whatever_the_status():
    for status in ("converged", "max_iters", "stagnated"):
        o = _outcome([3.0, math.nan], [0.1, 0.2], status=status)
        assert scoring.solve_failed(o, 1.0)
    # a NaN reported as converged is a wrong answer presented as right
    assert scoring.silently_wrong(_outcome([3.0, math.nan], [0.1, 0.2]), 1.0)


def test_ending_above_f_star_by_more_than_the_gap_fails():
    assert not scoring.solve_failed(_outcome([2.0, 1.0 + 1e-6], [0.1, 0.2]), 1.0)
    stalled = _outcome([2.0, 1.0 + 0.036], [0.1, 0.2])
    assert scoring.solve_failed(stalled, 1.0)
    assert scoring.silently_wrong(stalled, 1.0)


def test_f_star_is_the_best_of_reference_and_solver_finals():
    outcomes = [_outcome([6.0, 4.5111742198], [0.1, 0.2]),
                _outcome([6.0, 4.547], [0.1, 0.2], status="max_iters")]
    # a reference that stalled above what the solvers reach
    assert scoring.reconcile_f_star(5.795, outcomes) == 4.5111742198
    # a reference below every solver
    assert scoring.reconcile_f_star(4.0, outcomes) == 4.0


def test_f_star_ignores_failed_and_non_finite_outcomes():
    broken = [_outcome([3.0, math.nan], [0.1, 0.2]),
              _outcome([3.0, -math.inf], [0.1, 0.2]),
              SolveOutcome("spg", "error", math.nan, 0, 0.1, error="boom")]
    assert scoring.reconcile_f_star(2.0, broken) == 2.0
    assert scoring.reconcile_f_star(math.nan, broken[:1] + [
        _outcome([3.0, 2.5], [0.1, 0.2])]) == 2.5
    with pytest.raises(ValueError):
        scoring.reconcile_f_star(math.nan, broken)


def test_known_group_lasso_stall_is_counted_against_the_reconciled_f_star():
    # FISTA-BB stalls ~0.036 above the optimum the other solvers reach
    f_opt = 4.5111742198
    outcomes = [_outcome([6.0, f_opt], [0.1, 0.2], solver_id=s)
                for s in ("zero-sr1", "zero-bfgs", "ista", "spg")]
    outcomes.append(_outcome([6.0, f_opt + 0.036], [0.1, 10.0],
                             status="max_iters", solver_id="fista-bb"))
    f_star = scoring.reconcile_f_star(f_opt + 0.0017, outcomes)
    assert [scoring.solve_failed(o, f_star) for o in outcomes] == \
        [False] * 4 + [True]


def test_prox_failure_rule():
    ok = RootSolverReport([0.0], 5e-12, 3, "group", converged=True)
    assert not scoring.prox_failed(ok, 1e-12)
    assert scoring.prox_failed(
        RootSolverReport([0.0], 2e-11, 3, "exact", converged=True), 1e-12)
    assert scoring.prox_failed(
        RootSolverReport([0.0], 0.0, 3, "rank2-recursive", converged=False),
        1e-12)
    assert scoring.prox_failed(
        RootSolverReport([0.0], math.nan, 3, "exact"), 1e-12)


def test_lower_quartile():
    assert scoring.lower_quartile([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0]) == 3.0
    assert scoring.lower_quartile([2.0]) == 2.0
    with pytest.raises(ValueError):
        scoring.lower_quartile([])


def test_median_and_percentile():
    assert scoring.median([3.0, 1.0, 2.0]) == 2.0
    assert scoring.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    values = list(range(1, 101))
    assert scoring.percentile(values, 90) == 90
    assert scoring.percentile([5.0], 90) == 5.0

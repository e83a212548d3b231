"""Scoring rules of the benchmark: the reference optimum of an instance,
when a solve or a prox call counts as failed, and time to accuracy.

Everything here is a pure function of solver outcomes, so the rules are
tested without running a solver (see ``tests/test_scoring.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# objective-error thresholds of the time-to-accuracy metrics
THRESHOLDS = {"t6": 1e-6, "t9": 1e-9}
# a solve that ends further than this above f* has failed
FAIL_GAP = 1e-6
# a kernel result further than this from the bisection oracle is wrong
# (the method-agreement tolerance of acceptance criterion 2)
ORACLE_TOL = 1e-8


@dataclass
class SolveOutcome:
    """What one solve call returned, or the error it raised."""

    solver_id: str
    status: str
    objective: float
    iterations: int
    duration: float
    trace: object = None          # proxqn.trace.ConvergenceTrace
    error: str | None = None


def reconcile_f_star(reference_f, outcomes):
    """``f* = min(cached reference F, best finite final F of any solve)``.

    The cached reference is itself a solver run and may stall above the
    optimum that other solvers reach; taking the minimum scores every
    solver against the best point anyone found.
    """
    finals = [o.objective for o in outcomes
              if o.error is None and math.isfinite(o.objective)]
    candidates = finals + ([reference_f] if math.isfinite(reference_f) else [])
    if not candidates:
        raise ValueError("no finite objective to take f* from")
    return min(candidates)


def solve_failed(outcome, f_star):
    """A solve fails when it raised, ended with a non-finite objective
    (whatever its status), hit the iteration cap, or ended more than
    ``FAIL_GAP`` above ``f*``."""
    if outcome.error is not None or not math.isfinite(outcome.objective):
        return True
    return outcome.status == "max_iters" or outcome.objective - f_star > FAIL_GAP


def silently_wrong(outcome, f_star):
    """A solve that reports ``converged`` but fails the rule above: the
    program presented a wrong answer as right."""
    return outcome.status == "converged" and solve_failed(outcome, f_star)


def repeat_iterations(outcome, f_star):
    """How many iterations a timing repetition of a solve has to run: up to
    its first iterate with ``F - f*`` at the tightest threshold, or ``None``
    (the whole solve) when it failed or never got there, since its whole
    duration then counts."""
    if solve_failed(outcome, f_star):
        return None
    outcome.trace.f_star = f_star
    k = outcome.trace.iterations_to_error(min(THRESHOLDS.values()))
    return None if k is None else k + 1


def repeats(first, rep):
    """Whether ``rep`` ran without error and recorded the same iterates as
    the start of ``first`` (timing columns aside)."""
    if first.trace is None or rep.trace is None or rep.error is not None:
        return False
    n = len(rep.trace)
    return n > 0 and all(getattr(rep.trace, col) == getattr(first.trace, col)[:n]
                         for col in ("iters", "objectives", "step_norms"))


def time_to_error(outcome, f_star, threshold, rep=None):
    """``(seconds, iterations)`` from the start of the solve to its first
    recorded iterate with ``F - f* <= threshold``.

    Read from the trace, not from the call's wall time, so that how long a
    solver keeps going after it is accurate does not count. A solve that
    failed, or never reached the threshold, contributes its whole duration
    and its whole iteration count. ``rep``, a repetition of the same solve
    (see :func:`repeat_iterations`), gives the seconds in place of
    ``outcome``, which is judged.
    """
    rep = outcome if rep is None else rep
    if solve_failed(outcome, f_star):
        return rep.duration, outcome.iterations
    trace = outcome.trace
    trace.f_star = f_star
    k = trace.iterations_to_error(threshold)
    if k is None:
        return rep.duration, outcome.iterations
    return rep.trace.seconds[trace.iters.index(k)], k


def prox_failed(report, tol):
    """A scaled-prox call fails when its report is not converged or its
    residual exceeds ``10 * tol``, the library's own convergence test for
    the iterative finders (a NaN residual fails too)."""
    return not report.converged or not report.residual <= 10.0 * tol


def lower_quartile(values):
    """The value a quarter of the way up the sorted ``values``: the time of
    a quiet repetition, less at the mercy of one lucky sample than the
    minimum."""
    values = sorted(values)
    if not values:
        raise ValueError("lower quartile of no values")
    return values[len(values) // 4]


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return 0.5 * (values[mid - 1] + values[mid])


def percentile(values, q):
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1]

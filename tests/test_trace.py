"""The typed columns of ``ConvergenceTrace``: their size, the bytes of the
trace CSV, and the list operations that the benchmark's scoring reads."""

import math
import os
import tracemalloc
from array import array

import numpy as np
import pytest

from proxqn.bench import ProblemRecipe, generate, write_trace_csv
from proxqn.solver import SOLVERS, SolverOptions
from proxqn.trace import ConvergenceTrace

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
COLUMNS = ("iters", "objectives", "step_norms", "seconds")


class _ListTrace:
    """A trace whose columns are lists of Python numbers, as they were
    before the typed columns: the reference of the tests below."""

    def __init__(self, trace):
        self.solver_id, self.problem_id = trace.solver_id, trace.problem_id
        self.f_star = trace.f_star
        for name in COLUMNS:
            setattr(self, name, list(getattr(trace, name)))

    def __len__(self):
        return len(self.iters)

    def objective_errors(self):
        return np.asarray(self.objectives) - self.f_star

    def iterations_to_error(self, threshold):
        hit = np.nonzero(self.objective_errors() <= threshold)[0]
        return int(self.iters[hit[0]]) if hit.size else None


def test_columns_are_typed_and_cost_at_most_40_bytes_a_row():
    trace = ConvergenceTrace()
    assert [getattr(trace, c).typecode for c in COLUMNS] == list("qddd")
    rows = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(rows):
            trace.append(k, 1.0 + 1e-9 * k, 0.5 / (k + 1), 1e-6 * k)
        per_row = (tracemalloc.get_traced_memory()[0] - before) / rows
    finally:
        tracemalloc.stop()
    assert len(trace) == rows and per_row <= 40, per_row


def test_lists_given_to_the_constructor_are_coerced():
    iters, objectives = [0, 1, 2], [3.0, 2.0, -0.0]
    trace = ConvergenceTrace("s", "p", 1.0, iters, objectives,
                             [1, 0.5, math.nan], [0.0, 0.1, 0.2])
    assert [getattr(trace, c).typecode for c in COLUMNS] == list("qddd")
    assert trace.iters == array("q", [0, 1, 2])
    assert math.copysign(1.0, trace.objectives[2]) == -1.0
    assert trace.step_norms[1] == 0.5 and math.isnan(trace.step_norms[2])
    trace.append(3, 1.0, 0.1, 0.3)   # the caller's lists stay its own
    assert iters == [0, 1, 2] and objectives == [3.0, 2.0, -0.0]
    with pytest.raises(TypeError):   # an iteration number is an integer
        ConvergenceTrace(iters=[0.5])


@pytest.mark.parametrize("solver_id", ["zero-sr1", "ista"])
def test_trace_csv_bytes_equal_those_of_a_list_backed_copy(tmp_path,
                                                           solver_id):
    problem = generate(ProblemRecipe("lasso_gaussian", m=30, n=60, lam=0.2,
                                     seed=4))
    trace = SOLVERS[solver_id](problem, SolverOptions(max_iters=3000,
                                                      tol=1e-9)).trace
    trace.f_star = min(trace.objectives) - 1e-3
    copy = _ListTrace(trace)
    for timed in (False, True):
        got, want = tmp_path / "typed.csv", tmp_path / "lists.csv"
        write_trace_csv(trace, got, timed=timed)
        write_trace_csv(copy, want, timed=timed)
        assert got.read_bytes() == want.read_bytes()
    assert len(trace) > 10
    assert trace.iterations_to_error(1e-2) == copy.iterations_to_error(1e-2)


def _rows(*objectives, step_norms=None):
    """A trace of the rows ``objectives``, with a fresh NaN object where
    one is given, as two runs of a solve make them."""
    def fresh(v):
        return float("nan") if math.isnan(v) else v

    trace = ConvergenceTrace(solver_id="ista")
    norms = step_norms or [1.0] * len(objectives)
    for k, (f, s) in enumerate(zip(objectives, norms)):
        trace.append(k, fresh(f), fresh(s), 0.1 * (k + 1))
    return trace


def test_scoring_reads_the_columns_as_it_read_lists(monkeypatch):
    # scoring.repeats compares column slices with ==, and
    # scoring.time_to_error reads the seconds at iters.index(k): both give
    # the answers of list columns, -0.0 equal to 0.0 and a NaN row equal
    # to no other
    monkeypatch.syspath_prepend(PERFBENCH)
    import scoring

    nan = math.nan
    first = _rows(3.0, -0.0, 1e-7, 0.0, step_norms=[1.0, -0.0, 0.5, nan])
    same = _rows(3.0, 0.0, 1e-7, step_norms=[1.0, 0.0, 0.5])
    cases = [(same, True),
             (_rows(3.0, 0.0, 1e-7, 0.0, step_norms=[1.0, 0.0, 0.5, nan]),
              False),
             (_rows(3.0, 1.0), False), (_rows(nan), False)]
    def outcome(trace):
        return scoring.SolveOutcome("ista", "converged", 0.0, len(trace) - 1,
                                    9.0, trace)

    for rep, expected in cases:
        for a, b in ((first, rep), (_ListTrace(first), _ListTrace(rep))):
            assert scoring.repeats(outcome(a), outcome(b)) is expected
    for trace in (first, _ListTrace(first)):
        assert scoring.time_to_error(outcome(trace), 0.0, 0.0) == (0.2, 1)
        assert scoring.time_to_error(outcome(trace), 0.0, 1e-6) == (0.2, 1)
        assert scoring.time_to_error(outcome(trace), 0.0, -1.0) == (9.0, 3)
    assert first.iters[1:3] == array("q", [1, 2])
    assert first.iters.index(2) == 2 and len(first) == 4
    assert first.objectives[:2] == same.objectives[:2]


def test_append_works_after_the_readers_and_not_under_a_view():
    trace = ConvergenceTrace(f_star=1.0)
    trace.append(0, 2.0, 1.0, 0.0)
    trace.append(1, 1.0, 0.5, 0.1)
    errs = trace.objective_errors()
    assert trace.iterations_to_error(0.5) == 1
    trace.append(2, 1.0, 0.25, 0.2)   # no buffer export lingers
    errs[0] = -5.0   # a new array, not the column
    assert trace.objectives[0] == 2.0 and len(trace) == 3
    view = np.asarray(trace.objectives)
    with pytest.raises(BufferError):
        trace.objectives.append(1.0)
    del view
    trace.append(3, 1.0, 0.125, 0.3)
    assert list(trace.iters) == [0, 1, 2, 3]

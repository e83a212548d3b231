"""Per-iteration convergence records.

A trace keeps its rows in four typed columns, 8 bytes a value:
``iters`` is an ``array('q')`` of int64 and ``objectives``,
``step_norms`` and ``seconds`` are ``array('d')`` of float64.  A column
reads like a list (``len``, indexing, slicing, ``==`` and ``.index``), and
NumPy reads it without a copy through the buffer protocol.  One rule comes
with the format: while a NumPy view of a column is alive (``np.asarray``
or ``np.frombuffer`` of it), ``append`` raises ``BufferError``, so no
reader may hold such a view while a solve is still recording.  The
readers here drop theirs before they return.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceTrace"]


@dataclass
class ConvergenceTrace:
    """One record per iteration: objective, prox-step norm, elapsed time.

    Columns given to the constructor (lists, say) are copied into typed
    ones.  Objective errors require a reference value ``f_star``; the
    harness attaches it before persisting.
    """

    solver_id: str = ""
    problem_id: str = ""
    f_star: float | None = None
    iters: array = ()   # each column made an array by __post_init__
    objectives: array = ()
    step_norms: array = ()
    seconds: array = ()

    def __post_init__(self):
        self.iters = array("q", self.iters)
        self.objectives = array("d", self.objectives)
        self.step_norms = array("d", self.step_norms)
        self.seconds = array("d", self.seconds)

    def append(self, k, objective, step_norm, elapsed):
        iters, seconds = self.iters, self.seconds
        if iters and k <= iters[-1]:
            raise ValueError("iteration numbers must be strictly increasing")
        if seconds and elapsed < seconds[-1]:
            raise ValueError("elapsed times must be non-decreasing")
        iters.append(k)
        self.objectives.append(objective)
        self.step_norms.append(step_norm)
        seconds.append(elapsed)

    def __len__(self):
        return len(self.iters)

    def objective_errors(self):
        """``F - f_star`` per row, as a new array."""
        if self.f_star is None:
            raise ValueError("trace has no reference objective attached")
        return np.frombuffer(self.objectives) - self.f_star

    def iterations_to_error(self, threshold):
        """First recorded iteration whose objective error is <= threshold,
        or None if never reached."""
        hit = np.flatnonzero(self.objective_errors() <= threshold)
        return self.iters[hit[0]] if hit.size else None

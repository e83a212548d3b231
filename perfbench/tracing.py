"""Per-module timing wrappers for the traced run.

The wrappers are installed from outside the package, around the calls the
solvers make into each module, and removed afterwards; nothing under
``src/`` knows about them. Each span records its calls and its self time,
its own duration minus the time of the wrapped calls nested inside it.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from proxqn import metric, scaled, solver


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)   # layer-specific counters
        self.max_residual = 0.0
        self._child = []                   # nested time, one entry per open span
        self._open = defaultdict(int)      # open spans by name
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name, fn, classify=None, observe=None):
        """A wrapper around ``fn`` recording a span.

        ``classify(result)`` may refine the span name from the result;
        ``observe(result)`` updates layer counters.
        """
        def span(*args, **kwargs):
            self._child.append(0.0)
            self._open[name] += 1
            t0 = time.perf_counter()
            label = name
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    label = classify(result)
                if observe is not None:
                    observe(result)
                return result
            finally:
                elapsed = time.perf_counter() - t0
                self._open[name] -= 1
                nested = self._child.pop()
                if self._child:
                    self._child[-1] += elapsed
                self.calls[label] += 1
                self.self_s[label] += elapsed - nested
        return span

    def patch(self, owner, attr, name, **hooks):
        had_own = attr in vars(owner)
        old = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, old, **hooks))
        self._undo.append((owner, attr, old, had_own))

    def uninstall(self):
        while self._undo:
            owner, attr, old, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    # -- layer hooks ---------------------------------------------------------

    def _rank1_label(self, result):
        # the rank-2 recursion's inner solves are its own layer
        if self._open["scaled.rank2"]:
            return "scaled.rank2.inner"
        method = result[1].method
        if method in ("exact", "group"):
            return f"scaled.rank1.{method}"
        return "scaled.other"

    def _observe_rank1(self, result):
        self.max_residual = max(self.max_residual, result[1].residual)

    def _observe_rank2(self, result):
        self.max_residual = max(self.max_residual, result[1].residual)
        self.counts["scaled.rank2.outer_iters"] += result[1].iterations

    def _observe_sr1(self, H):
        self.counts["quasi_newton.sr1_metric.updates"] += H.rank == 1

    def _observe_zbfgs(self, result):
        self.counts["quasi_newton.zbfgs_metric.skipped"] += bool(result[2])

    def _observe_line_search(self, result):
        self.counts["solver.line_search.halvings"] += -math.log2(result[0])

    def install(self, problems, ops):
        """Wrap the solver's module calls, ``LowRankMetric.invert``, the
        ``prox_diag``/``pa_descriptor``/``evaluate`` of every operator in
        ``ops`` and the ``f``/``grad`` of every problem."""
        rank1 = dict(classify=self._rank1_label, observe=self._observe_rank1)
        rank2 = dict(observe=self._observe_rank2)
        self.patch(solver, "fb_step", "solver.fb_step")
        self.patch(solver, "line_search", "solver.line_search",
                   observe=self._observe_line_search)
        self.patch(solver, "_euclid_prox", "solver._euclid_prox")
        self.patch(solver, "sr1_metric", "quasi_newton.sr1_metric",
                   observe=self._observe_sr1)
        self.patch(solver, "zbfgs_metric", "quasi_newton.zbfgs_metric",
                   observe=self._observe_zbfgs)
        # the rank-2 recursion calls scaled.scaled_prox for its inner
        # solves, so both module names are wrapped
        for owner in (solver, scaled):
            self.patch(owner, "scaled_prox", "scaled.rank1", **rank1)
            self.patch(owner, "scaled_prox_rank2", "scaled.rank2", **rank2)
        self.patch(metric.LowRankMetric, "invert", "metric.invert")
        for op in {id(op): op for op in ops}.values():
            self.patch(op, "prox_diag", f"prox.prox_diag.{type(op).__name__}")
            self.patch(op, "pa_descriptor", "prox.pa_descriptor")
            self.patch(op, "evaluate", "prox.evaluate")
        for problem in problems:
            self.patch(problem, "f", "bench.f")
            self.patch(problem, "grad", "bench.grad")

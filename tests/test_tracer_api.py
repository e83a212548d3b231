"""The names that the benchmark's tracer (``perfbench/tracing.py``) wraps:
a renamed solver call or operator method would otherwise break only the
traced benchmark runs."""

import os

import numpy as np

from proxqn import metric, scaled, solver
from proxqn.bench import ProblemRecipe, generate
from proxqn.prox import GroupL2
from proxqn.quasi_newton import QNPair

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _own_attributes(owners):
    return [dict(vars(owner)) for owner in owners]


def test_tracer_wraps_every_layer_and_restores_it(monkeypatch):
    # install() finds every name it wraps (the operator's prox_diag,
    # pa_descriptor and evaluate among them), 20 iterations each of 0SR1,
    # 0BFGS and ISTA on a small group LASSO call the solver-side layers of
    # their loops (the quasi-Newton step fb_step among them), one call of
    # each public metric entry and of scaled_prox_rank2 through its owner,
    # which the quasi-Newton loop does not call, finds its wrapper, and
    # uninstall() gives every owner back its attributes, the very objects,
    # and drops the ones it added
    monkeypatch.syspath_prepend(PERFBENCH)
    from tracing import Tracer

    problem = generate(ProblemRecipe("group_lasso", m=30, n=40, lam=1.0,
                                     block_cap=6, seed=0))
    assert isinstance(problem.h, GroupL2)
    owners = [solver, scaled, metric.LowRankMetric, problem.h, problem]
    before = _own_attributes(owners)
    tracer = Tracer()
    tracer.install([problem], [problem.h])
    try:
        opts = solver.SolverOptions(max_iters=20, tol=0.0)
        for run in (solver.run_zero_sr1, solver.run_zero_bfgs,
                    solver.run_ista):
            run(problem, opts)
        loop_calls = dict(tracer.calls)
        x0, x1 = np.zeros(40), np.full(40, 0.1)
        g0, g1 = problem.grad(x0), problem.grad(x1)
        pair = QNPair(x1 - x0, g1 - g0)
        H = solver.sr1_metric(pair, dim=40)
        solver.scaled_prox_rank2(H.invert(), problem.h, x1)
        solver.zbfgs_metric(pair)
    finally:
        tracer.uninstall()
    for name in ("solver.fb_step", "solver.line_search",
                 "solver._euclid_prox", "prox.evaluate", "bench.f",
                 "bench.grad"):
        assert loop_calls.get(name, 0) > 0, name
    for name in ("scaled.rank2", "quasi_newton.sr1_metric",
                 "quasi_newton.zbfgs_metric", "metric.invert"):
        assert tracer.calls[name] > 0, name
    for owner, old, new in zip(owners, before, _own_attributes(owners)):
        assert new.keys() == old.keys(), owner
        assert all(new[k] is v for k, v in old.items()), owner

"""Benchmark of proxqn: time to accuracy of the five solvers and per-call
prox latency, on one named workload.

    python3 perfbench/run.py --workload lasso-dense --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The line before it records the environment and details.
"""

from __future__ import annotations

import os
import sys

# BLAS runs on one thread; this must precede the first numpy import
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

# a run that is still measuring after this many times --seconds stops
# after its current round, so that it ends well within three minutes
HARD_STOP = 3
# traced rounds of a traced run; the per-layer counts repeat exactly, so a
# few rounds suffice
TRACED_ROUNDS = 3

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def _environment(args, workload):
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES":
                            os.path.dirname(ROOT)})
        commit = out.stdout.strip() or None
    src_hash = hashlib.sha256()
    pkg = os.path.join(SRC, "proxqn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src_hash.update(name.encode() + b"\0" + fh.read())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "max_iters": workload.max_iters,
        "rounds": workload.rounds,
        "instances": [r.label() for r in workload.recipes],
    }


def _finite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _measure(harness, workload, state, seed, seconds, tracer=None):
    """The workload's fixed number of rounds, so that every run does the
    same work whatever the speed of the program or the machine; only a run
    that passes ``HARD_STOP`` times ``seconds`` stops early. The first
    round runs every solve whole; later rounds repeat them as far as
    ``harness.repeat_plan`` says. With a tracer, ``TRACED_ROUNDS`` of the
    later untraced rounds are each followed by a traced one. Returns f*
    per instance, the untraced and the traced rounds."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        plain = [harness.run_round(workload, state, cpus, seed)]
        f_stars, caps = harness.repeat_plan(state, plain[0])
        traced = []
        while len(plain) < 2 or len(plain) < workload.rounds and (
                time.perf_counter() - start < HARD_STOP * seconds):
            plain.append(harness.run_round(workload, state, cpus, seed, caps))
            if tracer is None or len(traced) == TRACED_ROUNDS:
                continue
            tracer.install(state.problems, [k.op for k in state.kernels]
                           + [p.h for p in state.problems])
            try:
                traced.append(harness.run_round(workload, state, cpus, seed,
                                                caps, setups=0))
            finally:
                tracer.uninstall()
    finally:
        os.sched_setaffinity(0, cpus)
    return f_stars, plain, traced


def _end_to_end(harness, scoring, solves, kernels, setup_s):
    metrics = {"setup_s": (setup_s, "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0, "MB")}
    for t in scoring.THRESHOLDS:
        for sid in harness.SOLVER_IDS:
            metrics[f"{sid}.{t}_s"] = (solves["totals"][f"{sid}.{t}_s"], "s")
    for kind, (med, _, _) in kernels.items():
        metrics[f"{kind}_prox_ms"] = (med, "ms")
    return metrics


def _per_layer(harness, scoring, tracer, solves, kernels, rounds, traced, extra):
    n = len(traced)

    def calls(name):
        return tracer.calls[name] / n

    def self_s(name):
        return tracer.self_s[name] / n

    m = {}
    for name in ("scaled.rank1.exact", "scaled.rank1.group", "scaled.other",
                 "scaled.rank2", "scaled.rank2.inner", "prox.prox_diag.L1Norm",
                 "prox.prox_diag.GroupL2", "prox.pa_descriptor",
                 "prox.evaluate", "quasi_newton.sr1_metric",
                 "quasi_newton.zbfgs_metric", "metric.invert", "bench.f",
                 "bench.grad", "solver.fb_step", "solver.line_search",
                 "solver._euclid_prox"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    exact = tracer.calls["scaled.rank1.exact"]
    m["scaled.rank1.exact.us_per_call"] = (
        tracer.self_s["scaled.rank1.exact"] / exact * 1e6 if exact else 0.0,
        "us")
    rank2 = tracer.calls["scaled.rank2"]
    m["scaled.rank2.inner_per_call"] = (
        tracer.calls["scaled.rank2.inner"] / rank2 if rank2 else 0.0, "count")
    m["scaled.rank2.outer_iters"] = (
        tracer.counts["scaled.rank2.outer_iters"] / n, "count")
    m["scaled.max_residual"] = (tracer.max_residual, "1")
    sr1 = tracer.calls["quasi_newton.sr1_metric"]
    m["quasi_newton.sr1_metric.update_frac"] = (
        tracer.counts["quasi_newton.sr1_metric.updates"] / sr1 if sr1 else 0.0,
        "ratio")
    m["quasi_newton.zbfgs_metric.skipped"] = (
        tracer.counts["quasi_newton.zbfgs_metric.skipped"] / n, "count")
    m["solver.line_search.halvings"] = (
        tracer.counts["solver.line_search.halvings"] / n, "count")
    for sid in harness.SOLVER_IDS:
        for t in scoring.THRESHOLDS:
            key = f"{sid}.iters{t[1:]}"
            m[f"solver.{key}"] = (solves["totals"][key], "count")
    for sid in harness.SOLVER_IDS:
        m[f"solver.{sid}.call_s"] = (solves["totals"][f"{sid}.call_s"], "s")
    for kind, (med, p90, count) in kernels.items():
        m[f"{kind}_prox_p90_ms"] = (p90, "ms")
        m[f"{kind}_prox_samples"] = (count, "count")
    m["rank1_over_diag"] = (kernels["rank1"][0] / kernels["diag"][0], "ratio")
    m["rank2_over_rank1"] = (kernels["rank2"][0] / kernels["rank1"][0], "ratio")
    plain_s = scoring.median([r.seconds for r in rounds[1:]])
    m["trace.overhead_frac"] = (
        (scoring.median([r.seconds for r in traced]) - plain_s) / plain_s,
        "ratio")
    m.update(extra)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so that the reference fill's child is
    # killed and waited for (subprocess.run does both on any exception)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isdir(os.path.join(SRC, "proxqn")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import harness
    import scoring
    from tracing import Tracer

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]

    fill_s = harness.fill_references(workload)
    state = harness.setup(workload, args.seed)
    tracer = Tracer() if args.trace else None
    f_stars, rounds, traced = _measure(harness, workload, state, args.seed,
                                       args.seconds, tracer)
    every_round = rounds + traced
    setups = [t for r in rounds for t in r.setups]
    setup_s = scoring.lower_quartile(
        [harness.at_reference(s, unit) for s, _, unit in setups])
    generate_s = scoring.lower_quartile(
        [harness.at_reference(g, unit) for _, g, unit in setups])

    solves = harness.score_solves(state, every_round, f_stars)
    kernels = harness.kernel_times(every_round)
    oracle_ok = harness.kernel_oracle_ok(state)
    attempted = solves["attempted"] + sum(r.prox_attempted for r in every_round)
    failed = solves["failed"] + sum(r.prox_failed for r in every_round)
    correct = solves["silent"] == 0 and solves["deterministic"] and oracle_ok

    if args.trace:
        extra = {
            "fail_frac": (failed / attempted, "ratio"),
            "solve.fail_frac": (solves["failed"] / solves["attempted"], "ratio"),
            "bench.generate_s": (generate_s, "s"),
            "bench.reference_cold_s": (sum(fill_s), "s"),
            "bench.reference_approx": (
                sum(r.approximate for r in state.references), "count"),
            "bench.reference_gap": (solves["reference_gap"], "1"),
        }
        metrics = _per_layer(harness, scoring, tracer, solves, kernels, rounds, traced,
                             extra)
    else:
        metrics = _end_to_end(harness, scoring, solves, kernels, setup_s)
    calibration = [c for r in every_round for c in r.calibration]
    if args.trace:
        metrics["bench.calibration_ms"] = (
            scoring.median(calibration) * 1e3, "ms")

    info = _environment(args, workload)
    info.update(rounds_run=len(rounds), traced_rounds=len(traced),
                trace_fingerprint=solves["fingerprint"],
                deterministic=solves["deterministic"], kernel_oracle=oracle_ok,
                f_star=f_stars, solves=solves["outcomes"], setups=len(setups),
                kernel_samples={k: v[2] for k, v in kernels.items()},
                calibration_min_ms=1e3 * min(calibration),
                calibration_med_ms=1e3 * scoring.median(calibration),
                reference_fill_s=fill_s)
    print(json.dumps({"info": _finite(info)}))
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

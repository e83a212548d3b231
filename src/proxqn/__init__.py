"""Proximal quasi-Newton forward-backward splitting with diagonal +/- rank-r
metrics: the scaled-prox calculus, zero-memory SR1/BFGS solvers, first-order
baselines, and a benchmark harness."""

__version__ = "0.1.0"

from .metric import (  # noqa: F401
    LowRankMetric,
    NotPositiveDefiniteError,
    PlusMinusMetric,
)
from .prox import (  # noqa: F401
    AffineConstraint,
    Box,
    GroupL2,
    Hinge,
    L1Ball,
    L1Norm,
    LinfBall,
    LinfNorm,
    MaxFunction,
    NonNeg,
    ProxOperator,
    Simplex,
    Zero,
)
from .quasi_newton import (  # noqa: F401
    QNPair,
    bb_stepsizes,
    sr1_metric,
    zbfgs_metric,
)
from .scaled import (  # noqa: F401
    RootProblem,
    RootSolverReport,
    root_bisection,
    root_exact_piecewise_affine,
    scaled_prox,
    scaled_prox_conjugate,
    scaled_prox_rank2,
)
from .solver import (  # noqa: F401
    ProblemSpec,
    SolverOptions,
    SolverResult,
    run_fista_bb,
    run_ista,
    run_spg_sparsa,
    run_zero_bfgs,
    run_zero_sr1,
)

"""Multi-time distributions of a discrete growth interface.

The package simulates the corner growth model with geometric weights,
evaluates its exact finite-size multi-point distribution as a contour
integral of a block Fredholm determinant, and evaluates the limiting
multi-time law under KPZ scaling, together with independent oracles
(dynamic programming, Monte Carlo, determinantal sums, the Tracy-Widom
marginal).  The per-family kernel oracles of the limit law (the contour
and Airy-operator forms) are private to ``asymptotic`` and serve its tests;
``LimitSettings`` holds the limit law's controls ``extent``,
``block_nodes``, ``theta_radius``, ``mu``, ``tol`` and ``max_levels``.
Both Fredholm routes return one ``FredholmResult``.
"""

from .asymptotic import (
    LimitSettings,
    fredholm_det_F,
    multitime_cdf,
    tracy_widom,
)
from .errors import BudgetError, ConvergenceError, SchemaError
from .exact import det_theta, multipoint_prob_exact
from .growth import MCResult, mc_multipoint, sample_weights
from .linalg import FredholmResult
from .oracle import dp_exact_prob, truncated_sum_prob
from .params import (
    KPZParams,
    LimitParams,
    ModelParams,
    ScalingConstants,
    compute_constants,
    discretize,
    instance_digest,
    parse_instance,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ConvergenceError",
    "FredholmResult",
    "KPZParams",
    "LimitParams",
    "LimitSettings",
    "MCResult",
    "ModelParams",
    "ScalingConstants",
    "SchemaError",
    "compute_constants",
    "det_theta",
    "discretize",
    "dp_exact_prob",
    "fredholm_det_F",
    "instance_digest",
    "mc_multipoint",
    "multipoint_prob_exact",
    "multitime_cdf",
    "parse_instance",
    "sample_weights",
    "tracy_widom",
    "truncated_sum_prob",
    "__version__",
]

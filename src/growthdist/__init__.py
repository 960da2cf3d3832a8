"""Multi-time distributions of a discrete growth interface.

The package simulates the corner growth model with geometric weights,
evaluates its exact finite-size multi-point distribution as a contour
integral of a block Fredholm determinant, and evaluates the limiting
multi-time law under KPZ scaling, together with independent oracles
(dynamic programming, Monte Carlo, determinantal sums, Airy-operator
forms) for every layer.
"""

from .asymptotic import (
    AsymptoticResult,
    LimitSettings,
    airy_form_kernel,
    d_for_eps,
    eval_basic_kernel,
    fredholm_det_F,
    multitime_cdf,
    tracy_widom,
)
from .errors import BudgetError, ConvergenceError, SchemaError
from .exact import ExactResult, det_theta, multipoint_prob_exact, single_point_prob
from .growth import MCResult, mc_multipoint, sample_weights
from .oracle import dp_exact_prob, schutz_determinant, truncated_sum_prob
from .params import (
    KPZParams,
    LimitParams,
    ModelParams,
    ScalingConstants,
    compute_constants,
    discretize,
    instance_digest,
    nu_scale,
    parse_instance,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticResult",
    "BudgetError",
    "ConvergenceError",
    "ExactResult",
    "KPZParams",
    "LimitParams",
    "LimitSettings",
    "MCResult",
    "ModelParams",
    "ScalingConstants",
    "SchemaError",
    "airy_form_kernel",
    "compute_constants",
    "d_for_eps",
    "det_theta",
    "discretize",
    "dp_exact_prob",
    "eval_basic_kernel",
    "fredholm_det_F",
    "instance_digest",
    "mc_multipoint",
    "multipoint_prob_exact",
    "multitime_cdf",
    "nu_scale",
    "parse_instance",
    "sample_weights",
    "schutz_determinant",
    "single_point_prob",
    "tracy_widom",
    "truncated_sum_prob",
    "__version__",
]

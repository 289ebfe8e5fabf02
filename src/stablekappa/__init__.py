"""stablekappa: the ladder-process Laplace exponent of stable processes.

Evaluates g(beta), g'(beta), and kappa(gamma, beta) = gamma^rho
exp(g(beta gamma^(-1/alpha))) by four cross-validating routes: adaptive
quadrature of the defining integral, a small-divisor power series for
irrational stability indices, a split series for rational ones, and
Doney-case closed forms.  Continued-fraction conditioning analysis picks
the method automatically.
"""

from .diophantine import (
    AlphaClass,
    AlphaKind,
    ContinuedFraction,
    cf_expand,
    classify,
    estimate_exponent,
    min_abs_sin,
)
from .kappa import KappaQuery, exit_transform, g_any_beta, gprime_any_beta, kappa, plan
from .params import (
    ConvergenceFailureError,
    DegenerateLogError,
    EvalResult,
    IllConditionedSeriesError,
    InsufficientDataError,
    MethodChoice,
    MethodNotApplicableError,
    OutOfRangeError,
    StableParams,
    Tolerance,
    validate,
)
from .quadrature import g_quad, gprime_quad
from .series import (
    SeriesReport,
    aux_int0b,
    aux_intbinfty,
    g_series,
    gprime_series,
    kernel_alt_sine,
    kernel_cosecant,
    kernel_geom_sine,
    kernel_poisson,
)
from .special import (
    DoneyCase,
    RationalAlpha,
    find_doney_case,
    g_doney,
    g_k_closed,
    g_k_series,
    gprime_half_closed,
    gprime_rational,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaClass",
    "AlphaKind",
    "ContinuedFraction",
    "ConvergenceFailureError",
    "DegenerateLogError",
    "DoneyCase",
    "EvalResult",
    "IllConditionedSeriesError",
    "InsufficientDataError",
    "KappaQuery",
    "MethodChoice",
    "MethodNotApplicableError",
    "OutOfRangeError",
    "RationalAlpha",
    "SeriesReport",
    "StableParams",
    "Tolerance",
    "aux_int0b",
    "aux_intbinfty",
    "cf_expand",
    "classify",
    "estimate_exponent",
    "exit_transform",
    "find_doney_case",
    "g_any_beta",
    "g_doney",
    "g_k_closed",
    "g_k_series",
    "g_quad",
    "g_series",
    "gprime_any_beta",
    "gprime_half_closed",
    "gprime_quad",
    "gprime_rational",
    "gprime_series",
    "kappa",
    "kernel_alt_sine",
    "kernel_cosecant",
    "kernel_geom_sine",
    "kernel_poisson",
    "min_abs_sin",
    "plan",
    "validate",
    "__version__",
]

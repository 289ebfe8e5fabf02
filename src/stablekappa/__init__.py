"""stablekappa: the ladder-process Laplace exponent of stable processes.

Evaluates g(beta), g'(beta), and kappa(gamma, beta) = gamma^rho
exp(g(beta gamma^(-1/alpha))) by four cross-validating routes: adaptive
quadrature of the defining integral, a small-divisor power series for
irrational stability indices (split at a nearby rational, with each
near-resonant pair of terms summed as one), a split series for rational
ones, and Doney-case closed forms.  Continued-fraction conditioning analysis picks
the method automatically.
"""

from .diophantine import (
    AlphaClass,
    AlphaKind,
    ContinuedFraction,
    cf_expand,
    classify,
    estimate_exponent,
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
    g_series,
    gprime_series,
)
from .special import (
    DoneyCase,
    RationalAlpha,
    find_doney_case,
    g_doney,
    g_k_closed,
    g_rational,
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
    "cf_expand",
    "classify",
    "estimate_exponent",
    "exit_transform",
    "find_doney_case",
    "g_any_beta",
    "g_doney",
    "g_k_closed",
    "g_quad",
    "g_rational",
    "g_series",
    "gprime_any_beta",
    "gprime_quad",
    "gprime_rational",
    "gprime_series",
    "kappa",
    "plan",
    "validate",
    "__version__",
]

"""stablekappa: the ladder-process Laplace exponent of stable processes.

Evaluates g(beta), g'(beta), and kappa(gamma, beta) = gamma^rho
exp(g(beta gamma^(-1/alpha))) by three cross-validating routes: adaptive
quadrature of the defining integral, the small-divisor power series (split
at a nearby rational p/q with each near-resonant pair of terms summed as
one, and at alpha = p/q itself split at its resonant terms), and Doney-case
closed forms.  Continued-fraction conditioning analysis picks the method
automatically.
"""

from .diophantine import (
    AlphaClass,
    AlphaKind,
    ContinuedFraction,
    cf_expand,
    classify,
)
from .kappa import KappaQuery, exit_transform, g_any_beta, gprime_any_beta, kappa, plan
from .params import (
    ConvergenceFailureError,
    DegenerateLogError,
    EvalResult,
    IllConditionedSeriesError,
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
    find_doney_case,
    g_doney,
    g_k_closed,
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
    "KappaQuery",
    "MethodChoice",
    "MethodNotApplicableError",
    "OutOfRangeError",
    "SeriesReport",
    "StableParams",
    "Tolerance",
    "cf_expand",
    "classify",
    "exit_transform",
    "find_doney_case",
    "g_any_beta",
    "g_doney",
    "g_k_closed",
    "g_quad",
    "g_series",
    "gprime_any_beta",
    "gprime_quad",
    "gprime_series",
    "kappa",
    "plan",
    "validate",
    "__version__",
]

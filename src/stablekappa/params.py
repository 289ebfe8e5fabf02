"""Domain types, admissibility validation, and shared result records."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class OutOfRangeError(ValueError):
    """A parameter lies outside its admissible domain."""


class MethodNotApplicableError(ValueError):
    """The requested evaluation method does not apply to these parameters."""


class ConvergenceFailureError(RuntimeError):
    """The iteration budget ran out before the tolerance was met."""

    def __init__(self, message: str, value: float | None = None,
                 error_bound: float | None = None) -> None:
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound


class IllConditionedSeriesError(RuntimeError):
    """Small divisors make the series useless at the requested tolerance."""


class DegenerateLogError(ArithmeticError):
    """A logarithm argument collapsed to zero in a closed-form evaluation."""


class MethodChoice(Enum):
    """Which evaluator computed (or should compute) a value."""

    AUTO = "auto"
    SERIES = "series"
    QUADRATURE = "quadrature"
    DONEY = "doney"


@dataclass(frozen=True)
class StableParams:
    """Admissible pair (alpha, rho) of a strictly stable process.

    alpha is the stability index in (0, 2].  rho = P(X_1 > 0) must lie in
    [1 - 1/alpha, 1/alpha] intersected with (0, 1); the closed interval
    endpoints (spectrally one-sided processes) are accepted.  Endpoint
    comparison is exact: 1/alpha is computed in double precision and
    compared without any epsilon slack, so validation is deterministic.
    """

    alpha: float
    rho: float

    def __post_init__(self) -> None:
        a = float(self.alpha)
        r = float(self.rho)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "rho", r)
        if not math.isfinite(a) or not 0.0 < a <= 2.0:
            raise OutOfRangeError(f"alpha must lie in (0, 2], got {a!r}")
        if not math.isfinite(r) or not 0.0 < r < 1.0:
            raise OutOfRangeError(f"rho must lie in (0, 1), got {r!r}")
        inv = 1.0 / a
        if r > inv or r < 1.0 - inv:
            raise OutOfRangeError(
                f"rho={r!r} outside [1 - 1/alpha, 1/alpha] for alpha={a!r}")


def validate(alpha: float, rho: float) -> StableParams:
    """Validate an (alpha, rho) pair, raising OutOfRangeError if inadmissible."""
    return StableParams(alpha, rho)


@dataclass(frozen=True)
class Tolerance:
    """Accuracy and work budget shared by all evaluators."""

    abs_tol: float = 1e-10
    max_terms: int = 10000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise OutOfRangeError("abs_tol must be finite and positive")
        if not isinstance(self.max_terms, int) or self.max_terms <= 0:
            raise OutOfRangeError(
                f"max_terms must be a positive integer, got {self.max_terms!r}")


DEFAULT_TOLERANCE = Tolerance()  # what every evaluator uses when given no tolerance


@dataclass(frozen=True)
class EvalResult:
    """A computed value with its error bound and provenance.

    abs_error_bound is an upper estimate of the absolute error.  A series
    bound is proven: the contour-cut tail bound R(c') of the series plus
    its rounding noise; a quadrature bound is an embedded-rule estimate.
    """

    value: float
    abs_error_bound: float
    method: MethodChoice
    terms_or_nodes_used: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.abs_error_bound) or self.abs_error_bound < 0.0:
            raise OutOfRangeError("abs_error_bound must be finite and nonnegative")
        if self.terms_or_nodes_used < 0:
            raise OutOfRangeError("terms_or_nodes_used must be nonnegative")

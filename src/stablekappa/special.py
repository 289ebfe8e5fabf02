"""Closed-form and rational-alpha evaluators.

Two families of exact results live here:

* Doney cases.  When rho + k = l/alpha for integers k >= 1, l >= 0, the
  function g collapses to finite Chebyshev-logarithm sums

      g(beta) = g_k(alpha, (-1)^(l+1) beta^alpha) - g_l(1/alpha, (-1)^(k+1) beta)

  with g_k(a, x) = sum_m x^m U_{k-1}(cos(m pi a))/m, valid for every
  alpha in (0, 2] by continuity.

* Rational alpha = p/q.  g' is the two divisor series of the series
  module less their resonant indices m = n p, k = n q (divisors bounded
  below by sin(pi/p) and sin(pi/q)), plus a resonant part on those:

      R = sum_n (-1)^(n(p+q)+1) beta^(n p - 1) p
              (pi rho cos(n p pi rho) + log(beta) sin(n p pi rho)) / (pi q).

  The sign of R above is the one that survives numerical verification
  against the integral form (see the derivative checks in the test suite);
  membership tests m/alpha in N and alpha k in N are exact integer
  arithmetic.

Only g' has a rational-alpha evaluator here.  g at rational alpha is
evaluated by the Doney closed form when a case exists, and by quadrature
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .accurate import EPS, CompensatedSum, cos_mpi, sin_mpi, sin_pi
from .diophantine import _truncation
from .params import (
    ConvergenceFailureError,
    DegenerateLogError,
    EvalResult,
    MethodChoice,
    OutOfRangeError,
    StableParams,
    Tolerance,
)
from .series import _divisor_series

_K_MAX = 32
_MATCH_RTOL = 4.0 * EPS
_DONEY_CACHE = 64


@dataclass(frozen=True)
class DoneyCase:
    """Integers (k, l) with rho + k = l/alpha, k >= 1, l >= 0."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 0:
            raise OutOfRangeError(f"need k >= 1 and l >= 0, got {self!r}")


@dataclass(frozen=True)
class RationalAlpha:
    """alpha = p/q in lowest terms, inside (0, 2]."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise OutOfRangeError("p and q must be positive integers")
        if math.gcd(self.p, self.q) != 1:
            raise OutOfRangeError(f"{self.p}/{self.q} is not in lowest terms")
        if self.p > 2 * self.q:
            raise OutOfRangeError(f"alpha = {self.p}/{self.q} exceeds 2")

    @property
    def alpha(self) -> float:
        return self.p / self.q


@lru_cache(maxsize=_DONEY_CACHE)
def find_doney_case(params: StableParams) -> DoneyCase | None:
    """Smallest k in [1, _K_MAX] with rho + k = l/alpha for an integer l >= 0.

    Matching tolerance is 4 ulp relative on rho + k; returns None when no
    such pair exists, which is the generic outcome for irrational alpha.
    The answer depends on params alone and is cached for the last
    ``_DONEY_CACHE`` of them.
    """
    for k in range(1, _K_MAX + 1):
        target = params.rho + k
        l = round(params.alpha * target)
        if l < 0:
            continue
        if abs(target - l / params.alpha) <= _MATCH_RTOL * target:
            return DoneyCase(k, int(l))
    return None


def _log_term(x: float, c: float) -> float:
    """log(x^2 - 2 x c + 1), raising when the argument degenerates."""
    arg = x * (x - 2.0 * c)
    if arg <= -1.0:
        raise DegenerateLogError(
            f"log argument {1.0 + arg!r} not positive (x={x!r}, cos={c!r})")
    return math.log1p(arg)


def g_k_closed(a: float, x: float, k: int) -> float:
    """g_k(a, x) via its finite parity-split closed form.

    Even k:  -g_k = sum_{n<k/2} log(x^2 - 2x cos((2n+1) a pi) + 1).
    Odd k:   -g_k = log(1-x) + sum_{1<=n<=(k-1)/2} log(x^2 - 2x cos(2n a pi) + 1).
    """
    if not abs(x) < 1.0:
        raise OutOfRangeError(f"|x| must be below 1, got {x!r}")
    if k < 0:
        raise OutOfRangeError(f"k must be nonnegative, got {k!r}")
    if k == 0:
        return 0.0
    num, den = a.as_integer_ratio()
    if k % 2 == 0:
        total = 0.0
        for n in range(k // 2):
            total += _log_term(x, cos_mpi(2 * n + 1, num, den))
        return -total
    if x >= 1.0:
        raise DegenerateLogError(f"log(1 - x) degenerate at x={x!r}")
    total = math.log1p(-x)
    for n in range(1, (k - 1) // 2 + 1):
        total += _log_term(x, cos_mpi(2 * n, num, den))
    return -total


def g_doney(params: StableParams, beta: float, case: DoneyCase) -> float:
    """g(beta) assembled from the closed Chebyshev-log sums of the case."""
    if not 0.0 < beta < 1.0:
        raise OutOfRangeError(f"beta must lie in (0, 1), got {beta!r}")
    alpha = params.alpha
    x1 = beta ** alpha if case.l % 2 == 1 else -(beta ** alpha)
    x2 = beta if case.k % 2 == 1 else -beta
    return g_k_closed(alpha, x1, case.k) - g_k_closed(1.0 / alpha, x2, case.l)


def gprime_rational(ra: RationalAlpha, rho: float, beta: float,
                    tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) for rational alpha = p/q by the split formula: two
    nonresonant sums by ``series._divisor_series`` and the resonant sum.

    Every sine is reduced exactly by ``accurate.reduced``: the divisors
    sin(m pi q/p) from p and q, the numerators from the integer ratios of
    rho and rho p/q, so none loses accuracy near a resonance.  Each sum
    stops at ``diophantine._truncation``'s index for a tail bound below an
    eighth of the tolerance.
    """
    tol = tol or Tolerance()
    if beta >= 1.0:
        raise ConvergenceFailureError(
            f"the rational-alpha series diverges for beta >= 1, got {beta!r}")
    if beta <= 0.0:
        raise OutOfRangeError(f"beta must be positive, got {beta!r}")
    p, q = ra.p, ra.q
    alpha = ra.alpha
    StableParams(alpha, rho)  # admissibility gate
    target = 0.125 * tol.abs_tol
    log_beta = math.log(beta)
    r_num, r_den = rho.as_integer_ratio()

    # nonresonant sums over m with p not dividing m, and over k with q not
    # dividing k (the second in powers beta^alpha, with sin(k pi rho alpha))
    v1, terms1, tail1, abs_sum = _divisor_series(
        beta, 1.0, (q, p), (r_num, r_den), True, sin_pi(1.0 / p), 0.0, target,
        tol.max_terms, 0.0, 0.0, "first nonresonant sum")
    v2, terms2, tail2, abs_sum = _divisor_series(
        beta, alpha, (p, q), (r_num * p, r_den * q), True, sin_pi(1.0 / q), 0.0,
        target, tol.max_terms, abs_sum, v1, "second nonresonant sum")

    # resonant part, reindexed by m = n p, k = n q
    s3 = CompensatedSum()
    weight = math.pi * rho + abs(log_beta)
    stop, tail3 = _truncation(beta, p, alpha * weight / math.pi, 1, 0, 1, target,
                              tol.max_terms)
    for n in range(1, (stop or tol.max_terms) + 1):
        sign = 1.0 if (n * (p + q) + 1) % 2 == 0 else -1.0
        np_ = n * p
        term = sign * beta ** (np_ - 1) * alpha * (
            rho * cos_mpi(np_, r_num, r_den)
            + log_beta * sin_mpi(np_, r_num, r_den) / math.pi)
        s3.add(term)
        abs_sum += abs(term)
    if stop is None:
        raise ConvergenceFailureError("resonant sum did not converge",
                                      value=s3.value, error_bound=tail3)

    value = v1 + v2 + s3.value
    bound = tail1 + tail2 + tail3 + 4.0 * EPS * (abs_sum + abs(value))
    if not math.isfinite(bound):
        bound = abs(value)
    return EvalResult(value, bound, MethodChoice.RATIONAL, terms1 + terms2 + stop)

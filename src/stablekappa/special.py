"""Closed-form and rational-alpha evaluators.

Two families of exact results live here:

* Doney cases.  When rho + k = l/alpha for integers k >= 1, l >= 0, the
  function g collapses to finite Chebyshev-logarithm sums

      g(beta) = g_k(alpha, (-1)^(l+1) beta^alpha) - g_l(1/alpha, (-1)^(k+1) beta)

  with g_k(a, x) = sum_m x^m U_{k-1}(cos(m pi a))/m, valid for every
  alpha in (0, 2] by continuity.

* Rational alpha = p/q.  g' splits into two nonresonant series (divisors
  bounded below by sin(pi/max(p, q))) plus a resonant part supported on
  m = n p, k = n q:

      R = sum_n (-1)^(n(p+q)+1) beta^(n p - 1) p
              (pi rho cos(n p pi rho) + log(beta) sin(n p pi rho)) / (pi q).

  The sign of R above is the one that survives numerical verification
  against the integral form (see the derivative checks in the test suite);
  membership tests m/alpha in N and alpha k in N are exact integer
  arithmetic.

g itself for rational alpha is not evaluated here: quadrature covers it
without the extra error of numerical antidifferentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .accurate import (
    EPS,
    CompensatedSum,
    cos_mpi,
    cos_pi,
    dd_div,
    sin_mpi,
    sin_pi,
    two_prod,
)
from .diophantine import RATIONAL_DENOMINATOR_CAP, cf_expand
from .params import (
    ConvergenceFailureError,
    DegenerateLogError,
    EvalResult,
    MethodChoice,
    OutOfRangeError,
    StableParams,
    Tolerance,
)

DEFAULT_K_MAX = 32
_MATCH_RTOL = 4.0 * EPS


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

    @classmethod
    def from_alpha(cls, alpha: float) -> "RationalAlpha":
        cf = cf_expand(alpha, 64)
        p, q = cf.convergents[-1]
        if not cf.exact or q > RATIONAL_DENOMINATOR_CAP:
            raise OutOfRangeError(
                f"{alpha!r} is not recognizably rational at float precision")
        return cls(p, q)


def find_doney_case(params: StableParams, k_max: int = DEFAULT_K_MAX) -> DoneyCase | None:
    """Smallest k in [1, k_max] with rho + k = l/alpha for an integer l >= 0.

    Matching tolerance is 4 ulp relative on rho + k; returns None when no
    such pair exists, which is the generic outcome for irrational alpha.
    """
    if k_max < 1:
        raise OutOfRangeError("k_max must be at least 1")
    for k in range(1, k_max + 1):
        target = params.rho + k
        l = round(params.alpha * target)
        if l < 0:
            continue
        if abs(target - l / params.alpha) <= _MATCH_RTOL * target:
            return DoneyCase(k, int(l))
    return None


def _chebyshev_u(c: float, degree: int) -> float:
    """U_degree(c) by the forward recurrence; U_{-1} = 0, U_0 = 1."""
    if degree < 0:
        return 0.0
    u_prev, u = 0.0, 1.0
    for _ in range(degree):
        u_prev, u = u, 2.0 * c * u - u_prev
    return u


def g_k_series(a: float, x: float, k: int, M: int) -> float:
    """M-term partial sum of g_k(a, x) = sum_m x^m U_{k-1}(cos(m pi a))/m."""
    if not abs(x) < 1.0:
        raise OutOfRangeError(f"|x| must be below 1, got {x!r}")
    if k < 0 or M < 1:
        raise OutOfRangeError("need k >= 0 and M >= 1")
    if k == 0:
        return 0.0
    acc = CompensatedSum()
    xm = 1.0
    for m in range(1, M + 1):
        xm *= x
        acc.add(xm * _chebyshev_u(cos_mpi(m, a), k - 1) / m)
    return acc.value


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
    if k % 2 == 0:
        total = 0.0
        for n in range(k // 2):
            total += _log_term(x, cos_mpi(2 * n + 1, a))
        return -total
    if x >= 1.0:
        raise DegenerateLogError(f"log(1 - x) degenerate at x={x!r}")
    total = math.log1p(-x)
    for n in range(1, (k - 1) // 2 + 1):
        total += _log_term(x, cos_mpi(2 * n, a))
    return -total


def g_doney(params: StableParams, beta: float, case: DoneyCase) -> float:
    """g(beta) assembled from the closed Chebyshev-log sums of the case."""
    if not 0.0 < beta < 1.0:
        raise OutOfRangeError(f"beta must lie in (0, 1), got {beta!r}")
    alpha = params.alpha
    x1 = beta ** alpha if case.l % 2 == 1 else -(beta ** alpha)
    x2 = beta if case.k % 2 == 1 else -beta
    return g_k_closed(alpha, x1, case.k) - g_k_closed(1.0 / alpha, x2, case.l)


def _nonresonant(beta: float, a: int, b: int, step: float,
                 num: tuple[float, float], lead: float, tol: Tolerance,
                 target: float, abs_sum: float, name: str):
    """sum over m not divisible by a of
    (-1)^(m+1) step beta^(step m - 1) sin(m pi num) / sin(m pi b/a),
    stopped once the tail bound step beta^(step m) / (lead (1 - beta^step)
    sin(pi/a)) drops below target.  Returns (value, tail bound, abs_sum
    plus the |terms|, terms used); empty when a = 1.
    """
    if a == 1:
        return 0.0, 0.0, abs_sum, 0
    num_hi, num_lo = num
    tail_den = lead * (1.0 - beta ** step) * sin_pi(1.0 / a)
    acc = CompensatedSum()
    terms = 0
    tail = math.inf
    for m in range(1, tol.max_terms + 1):
        if m % a != 0:
            r = (m * b) % (2 * a) / a
            den = sin_pi(r if r <= 1.0 else r - 2.0)
            signed = step if m % 2 == 1 else -step
            term = signed * beta ** (step * m - 1.0) * sin_mpi(m, num_hi, num_lo) / den
            acc.add(term)
            abs_sum += abs(term)
            terms += 1
        tail = step * beta ** (step * m) / tail_den
        if tail < target:
            return acc.value, tail, abs_sum, terms
    raise ConvergenceFailureError(f"{name} nonresonant sum did not converge",
                                  value=acc.value, error_bound=tail)


def gprime_rational(ra: RationalAlpha, rho: float, beta: float,
                    tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) for rational alpha = p/q by the split four-sum formula.

    Nonresonant divisors are reduced with exact integer arithmetic
    (sin(m pi q/p) through (m q) mod 2p), so they never lose accuracy; all
    four parts converge geometrically and stop when their tails drop below
    an eighth of the tolerance each.
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

    # nonresonant sums over m with p not dividing m, and over k with q not
    # dividing k (the second in powers beta^alpha, with sin(k pi rho alpha))
    v1, tail1, abs_sum, terms1 = _nonresonant(beta, p, q, 1.0, (rho, 0.0), 1.0,
                                              tol, target, 0.0, "first")
    rho_alpha = dd_div(*two_prod(rho, float(p)), float(q))
    v2, tail2, abs_sum, terms2 = _nonresonant(beta, q, p, alpha, rho_alpha, beta,
                                              tol, target, abs_sum, "second")
    terms = terms1 + terms2

    # resonant part, reindexed by m = n p, k = n q
    s3 = CompensatedSum()
    coef = p / q
    weight = math.pi * rho + abs(log_beta)
    base_p = beta ** p
    tail3 = math.inf
    for n in range(1, tol.max_terms + 1):
        sign = 1.0 if (n * (p + q) + 1) % 2 == 0 else -1.0
        np_ = n * p
        term = sign * beta ** (np_ - 1) * coef * (
            rho * cos_mpi(np_, rho) + log_beta * sin_mpi(np_, rho) / math.pi)
        s3.add(term)
        abs_sum += abs(term)
        terms += 1
        tail3 = coef * weight / math.pi * beta ** (np_ + p - 1) / (1.0 - base_p)
        if tail3 < target:
            break
    else:
        raise ConvergenceFailureError("resonant sum did not converge",
                                      value=s3.value, error_bound=tail3)

    value = v1 + v2 + s3.value
    bound = tail1 + tail2 + tail3 + 4.0 * EPS * (abs_sum + abs(value))
    if not math.isfinite(bound):
        bound = abs(value)
    return EvalResult(value, bound, MethodChoice.RATIONAL, terms)


def gprime_half_closed(rho: float, beta: float) -> float:
    """g'(beta) for alpha = 1/2 in elementary closed form.

    Derived by summing the alpha = 1/2 instance of the rational formula in
    closed form, and verified against direct quadrature of g':

        [ (1-beta) sin(pi rho/2) / (2 sqrt(beta))
          + rho (beta + cos(pi rho)) / 2
          + log(beta) sin(pi rho) / (2 pi) ]
        / (beta^2 + 2 beta cos(pi rho) + 1)

    Its beta -> 1 limit is rho/4, matching the reflection identity.
    """
    if not 0.0 < beta < 1.0:
        raise OutOfRangeError(f"beta must lie in (0, 1), got {beta!r}")
    if not 0.0 < rho < 1.0:
        raise OutOfRangeError(f"rho must lie in (0, 1), got {rho!r}")
    sinr = sin_pi(rho)
    cosr = cos_pi(rho)
    den = (beta + cosr) ** 2 + sinr ** 2
    num = ((1.0 - beta) * sin_pi(0.5 * rho) / (2.0 * math.sqrt(beta))
           + 0.5 * rho * (beta + cosr)
           + math.log(beta) * sinr / (2.0 * math.pi))
    return num / den

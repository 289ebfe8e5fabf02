"""Reference forms that check the package's evaluators from the test suite.

``g_k_series`` sums the series that ``g_k_closed`` evaluates in closed
form, ``gprime_half_closed`` is g' at alpha = 1/2 in elementary closed
form, and ``gprime_mpmath`` is g' from its defining integral at 30 digits
(the benchmark's oracle, ``bench/oracle.py``); ``gprime_rational`` is
checked against the last two.  No evaluator of the package calls any of
them, so they live here.
"""

import math

import mpmath
from mpmath import mpf

from stablekappa import OutOfRangeError
from stablekappa.accurate import CompensatedSum, cos_mpi, cos_pi, sin_pi


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
    num, den = a.as_integer_ratio()
    acc = CompensatedSum()
    xm = 1.0
    for m in range(1, M + 1):
        xm *= x
        acc.add(xm * _chebyshev_u(cos_mpi(m, num, den), k - 1) / m)
    return acc.value


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


def gprime_mpmath(alpha: float, rho: float, beta: float):
    """(value, error estimate) of g'(beta) as mpf, by mpmath's tanh-sinh
    quadrature at 30 digits of the defining integral

        g'(beta) = alpha sin(pi rho)/pi int_0^inf x^alpha / (1 + x^alpha)
                                     / (x^2 + 2 x beta cos(pi rho) + beta^2) dx,

    split at x = 1, beta, beta (1 -+ sin(pi rho)) and, for rho above 1/2,
    the near-zero -beta cos(pi rho) of the denominator.
    """
    with mpmath.workdps(30):
        a, r, b = mpf(alpha), mpf(rho), mpf(beta)
        s, c = mpmath.sinpi(r), mpmath.cospi(r)

        def f(x):
            xa = x ** a
            return xa / (1 + xa) / (x * x + 2 * x * b * c + b * b)

        pts = {mpf(0), mpf(1), b, b * (1 - s), b * (1 + s)}
        if c < 0:
            pts.add(-b * c)
        value, err = mpmath.quad(f, sorted(pts) + [mpmath.inf], error=True)
        pre = a * s / mpmath.pi
        return +(pre * value), abs(pre) * err

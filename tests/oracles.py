"""Reference forms that check the package's evaluators from the test suite.

``g_k_series`` sums the series that ``g_k_closed`` evaluates in closed
form, ``gprime_half_closed`` is g' at alpha = 1/2 in elementary closed
form, and ``g_mpmath`` and ``gprime_mpmath`` are g and g' from their
defining integrals at 30 digits (the benchmark's oracle, ``bench/oracle.py``);
``g_series`` and ``gprime_series`` at rational alpha, where they split at
p/q, are checked against the last three.  ``cut_tail_scan`` finds the
series' contour cut, and its bound, by scanning unit intervals from the
first that could hold it (``cut_scan`` the cut alone), and
``residue_sum`` sums the first few residues at 50 digits.
No evaluator of the package calls any of them, so they live here, with
``CompensatedSum``, the Neumaier running sum that ``g_k_series`` uses.
"""

import math
from fractions import Fraction

import mpmath
from mpmath import mpf

from stablekappa import OutOfRangeError
from stablekappa.accurate import EPS, cos_mpi, cos_pi, sin_pi


class CompensatedSum:
    """Running sum with Neumaier compensation.

    Keeps the accumulated rounding residue in a side term so that sums of
    wildly different magnitudes (alternating series with small divisors)
    lose almost nothing to cancellation.
    """

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


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

    Derived by summing the alpha = 1/2 instance of the split series in
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


_INTEGRAL_BETA_MIN = 1e-20  # below it, residue_sum is the oracle


def _mpmath_integral(alpha: float, rho: float, beta, derivative: bool):
    """(value, error estimate) of g(beta), or g'(beta), as mpf, by mpmath's
    tanh-sinh quadrature at 30 digits of the defining integral

        g(beta)  = sin(pi rho)/pi int_0^inf beta log(1 + x^alpha)
                                     / (x^2 + 2 x beta cos(pi rho) + beta^2) dx,
        g'(beta) = alpha sin(pi rho)/pi int_0^inf x^alpha / (1 + x^alpha)
                                     / (x^2 + 2 x beta cos(pi rho) + beta^2) dx,

    split at x = 1, beta, beta (1 -+ sin(pi rho)) and, for rho above 1/2,
    the near-zero -beta cos(pi rho) of the denominator.

    Below beta 1e-20 the quadrature loses digits that its error estimate
    does not show (at alpha 0.3, rho 0.5, beta 1e-300 it gives 2.97e-91,
    where the leading residue alone is 5.61e-91), so it refuses there.
    """
    if beta < _INTEGRAL_BETA_MIN:
        raise ValueError(f"the integral oracle loses digits below beta {_INTEGRAL_BETA_MIN!r}, "
                         f"got {beta!r}: use residue_sum there")
    with mpmath.workdps(30):
        a, r, b = mpf(alpha), mpf(rho), mpf(beta)
        s, c = mpmath.sinpi(r), mpmath.cospi(r)

        if derivative:
            pre = a * s / mpmath.pi

            def f(x):
                xa = x ** a
                return xa / (1 + xa) / (x * x + 2 * x * b * c + b * b)
        else:
            pre = s / mpmath.pi

            def f(x):
                return b * mpmath.log1p(x ** a) / (x * x + 2 * x * b * c + b * b)

        pts = {mpf(0), mpf(1), b, b * (1 - s), b * (1 + s)}
        if c < 0:
            pts.add(-b * c)
        value, err = mpmath.quad(f, sorted(pts) + [mpmath.inf], error=True)
        return +(pre * value), abs(pre) * err


def g_mpmath(alpha: float, rho: float, beta):
    """(value, error estimate) of g(beta) as mpf from its integral at 30
    digits; beta may be an mpf."""
    return _mpmath_integral(alpha, rho, beta, False)


def gprime_mpmath(alpha: float, rho: float, beta: float):
    """(value, error estimate) of g'(beta) as mpf from its integral at 30
    digits."""
    return _mpmath_integral(alpha, rho, beta, True)


def exact_sin(m: int, x: Fraction) -> float:
    """sin(pi m x) from the exact distance of m x to its nearest integer."""
    k = round(m * x)
    s = math.sin(math.pi * float(m * x - k))
    return -s if k % 2 else s


def cut_scan(beta: float, ratio: tuple[int, int], rho: float, derivative: bool,
             budget: float, limit: int) -> tuple[int, int] | None:
    """The cut's stops (M, K) recomputed, or None (``cut_tail_scan``)."""
    found = cut_tail_scan(beta, ratio, rho, derivative, budget, limit)
    return found and found[:2]


def cut_tail_scan(beta: float, ratio: tuple[int, int], rho: float, derivative: bool,
                  budget: float, limit: int) -> tuple[int, int, float] | None:
    """The cut's stops (M, K) and bound R recomputed, or None: every unit interval
    (m, m + 1) from the first where 4 beta^(m+1)/(lambda (m + 1)) (for g';
    4 beta^m / lambda) meets the budget, which no earlier one can; in each,
    its candidates in increasing order, and the first whose bound from the
    exact ratio and exact sines meets the budget, and from float sines too,
    as the series first estimates it."""
    a_num, a_den = ratio
    x_alpha, alpha = Fraction(a_num, a_den), a_num / a_den
    lam = math.pi * (1.0 + a_den / a_num - rho)
    m = int(derivative)
    while m <= limit and 4.0 * (beta ** m if derivative else beta ** (m + 1) / (m + 1)) > (
            budget * lam):
        m += 1
    for m in range(m, limit + 1):
        j = int((m + 0.5) / alpha - 0.5)
        for x in sorted((m + 0.5, alpha * (j + 0.5), alpha * (j + 1.5))):
            cut = Fraction(x)
            if not m < cut < m + 1:
                continue
            power = beta ** (x - 1.0) if derivative else beta ** x / x
            estimate = abs(math.sin(math.pi * (x - m)) * math.sin(math.pi * x / alpha))
            sines = abs(exact_sin(1, cut) * exact_sin(1, cut / x_alpha))
            if 4.0 * power <= budget * lam * estimate and sines and (
                    tail := 4.0 * (1.0 + 16.0 * EPS) * power / (lam * sines)) <= budget:
                return m, math.ceil(cut / x_alpha) - 1, tail
    return None


def residue_sum(alpha: float, rho: float, beta: float, derivative: bool, cut: float):
    """g(beta), or g'(beta), as the residues below the cut at 50 digits:
    the terms m < cut and alpha k < cut of the two series of the float
    alpha's exact value.  At beta 1e-30 and below, where the integral
    oracles lose digits, a cut of 3.5 leaves out less than beta^3 times the
    largest inverse divisor."""
    with mpmath.workdps(50):
        a, r, b = mpf(alpha), mpf(rho), mpf(beta)
        total = mpf(0)
        for step, div in ((mpf(1), 1 / a), (a, a)):
            k = 1
            while step * k < cut:
                coef = step * b ** (step * k - 1) if derivative else b ** (step * k) / k
                total += ((-1) ** (k + 1) * coef * mpmath.sinpi(r * step * k)
                          / mpmath.sinpi(div * k))
                k += 1
        return total

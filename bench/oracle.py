"""Independent 30-digit reference values from the defining integrals.

Nothing here uses the package's own quadrature or reductions: mpmath's
tanh-sinh quadrature at 30 digits is the second opinion.  The integral is
split at x = 1 and where the integrand peaks: x = beta, and for rho close
to 1 the near-zero of the denominator at x = -beta cos(pi rho), bracketed
by beta (1 -+ sin(pi rho)).  Imported only after the timed passes, so
mpmath's import cost and memory stay out of every end-to-end metric.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

mp.dps = 30


def g(alpha: float, rho: float, beta: float, derivative: bool):
    """(value, error estimate) of g(beta), or g'(beta), as mpf."""
    a, r, b = mpf(alpha), mpf(rho), mpf(beta)
    if b == 0:
        return mpf(0), mpf(0)
    s, c = mpmath.sinpi(r), mpmath.cospi(r)
    if derivative:
        pre = a * s / mp.pi

        def f(x):
            xa = x ** a
            return xa / (1 + xa) / (x * x + 2 * x * b * c + b * b)
    else:
        pre = s / mp.pi

        def f(x):
            return b * mpmath.log1p(x ** a) / (x * x + 2 * x * b * c + b * b)
    pts = {mpf(0), mpf(1), b, b * (1 - s), b * (1 + s)}
    if c < 0:
        pts.add(-b * c)
    pts = sorted(pts)
    value, err = mp.quad(f, pts + [mp.inf], error=True)
    return pre * value, abs(pre) * err


def kappa(alpha: float, rho: float, gamma: float, beta: float):
    """kappa(gamma, beta) = gamma^rho exp(g(beta gamma^(-1/alpha)))."""
    gm = mpf(gamma)
    arg = mpf(beta) * gm ** (-1 / mpf(alpha))
    gv, ge = g(alpha, rho, arg, False)
    value = gm ** mpf(rho) * mpmath.exp(gv)
    return value, value * mpmath.expm1(ge)


def exit_transform(alpha: float, rho: float, eta: float, gamma: float,
                   theta: float):
    """1 / ((theta + gamma) kappa(eta, gamma) kappa(eta, theta))."""
    k1, e1 = kappa(alpha, rho, eta, gamma)
    k2, e2 = kappa(alpha, rho, eta, theta)
    value = 1 / ((mpf(theta) + mpf(gamma)) * k1 * k2)
    return value, value * (e1 / k1 + e2 / k2)


def agrees(value: float, bound: float, ref) -> bool:
    """|value - ref| within the package's bound plus the oracle's error."""
    ref_value, ref_err = ref
    return abs(mpf(value) - ref_value) <= mpf(bound) + ref_err

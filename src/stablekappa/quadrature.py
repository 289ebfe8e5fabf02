"""g and g' by the trapezoid rule on the Mellin-Barnes line, with an a priori bound.

The two series of g are the residue sums of one contour integral (see
``series``).  Along Re s = c = min(1, alpha)/2, halfway between the double
pole at 0 and the first pole past it,

    g(beta)  = (1/pi) Re int_0^inf F(c + it) beta^(c+it) dt,
    g'(beta) = (1/pi) Re int_0^inf F(c + it) (c + it) beta^(c+it-1) dt,
    F(s) = pi sin(pi rho s) / (s sin(pi s) sin(pi s/alpha)).

Every pole lies on the real axis, at least c from the line, and
|beta^(it)| = 1, so no divisor is small and one rule serves any beta > 0.
The trapezoid rule with step h takes the nodes t_j = j h, j = 0..n, the
first at half weight, and errs by at most the sum of three terms:

- the strip: the integrand is analytic for |Re s - c| < a = 3c/4, where
  |F(s) beta^s| integrates over each vertical line Re s = x to at most
  2 pi R(x), R the series' cut bound (``series``, from |sin pi(x + iy)| >=
  |sin pi x| cosh pi y); for g also R with pi rho e^(pi rho x) for its 1/x
  (from |sin(pi rho s)/s| <= pi rho cosh(pi rho |s|)), which stays bounded
  as alpha -> 0 where 1/x does not.  Each form is log-convex in x, so the
  smaller of its largest values at x = c -+ a bounds them all, M; the rule
  over all j then errs by at most 2M/(e^(2 pi a/h) - 1) (Trefethen and
  Weideman, SIAM Rev. 56 (2014), Thm 5.1);
- the omitted nodes: |F(c + it)| falls like e^(-lambda t), lambda =
  pi (1 + 1/alpha - rho), so the nodes past t_n add at most
  R(c) e^(-lambda n h), R the smaller form;
- the rounding: each node is good to 8 eps of its size, and to eps times
  its phase |s log beta| and its sines' arguments pi t (1 + rho + 1/alpha).

h and n, the largest step and the fewest nodes that hold each of the first
two terms to an eighth of ``Tolerance.abs_tol``, are fixed before any node
is evaluated.  Past ``Tolerance.max_terms`` steps, or where pi/alpha, a
sine or a node leaves the float range, the call raises
ConvergenceFailureError; else it returns its bound whatever its size, and
dispatch (``kappa._outcome``) checks the tolerance.
"""

from __future__ import annotations

import cmath
import math

from .accurate import EPS, sin_pi
from .params import (
    DEFAULT_TOLERANCE,
    ConvergenceFailureError,
    EvalResult,
    MethodChoice,
    OutOfRangeError,
    StableParams,
    Tolerance,
)

_SHARE = 0.125  # of the tolerance, for the strip term and for the omitted nodes


def _line(params: StableParams, beta: float, tol: Tolerance | None,
          derivative: bool) -> EvalResult:
    """g(beta) or g'(beta) by the trapezoid rule on Re s = c; g' takes F(s) s
    and beta^(s-1) for F(s) and beta^s."""
    if not 0.0 < beta < math.inf:
        raise OutOfRangeError(f"beta must be positive and finite, got {beta!r}")
    tol = tol or DEFAULT_TOLERANCE
    alpha, rho, pi = params.alpha, params.rho, math.pi
    c = 0.5 * min(1.0, alpha)
    a = 0.75 * c
    lam = pi * (1.0 + 1.0 / alpha - rho)
    if lam == math.inf:
        raise ConvergenceFailureError(f"quadrature: pi/alpha past the float range at {alpha!r}")
    log_beta = math.log(beta)
    shift = 1.0 if derivative else 0.0

    def log_r(x: float) -> float:
        """log of 4 beta^(x - shift) / (lambda sin(pi x) sin(pi x/alpha)),
        R(x) for g' and R(x) without its 1/x for g."""
        return (x - shift) * log_beta - math.log(0.25 * lam * sin_pi(x) * sin_pi(x / alpha))

    # the two forms of R for g, each log-convex in x
    forms = ((lambda x: 0.0),) if derivative else (
        (lambda x: -math.log(x)), (lambda x: math.log(pi * rho) + pi * rho * x))
    log_part = math.log(_SHARE * tol.abs_tol)
    log_2m = math.log(2.0) + min(max(log_r(x) + form(x) for x in (c - a, c + a))
                                 for form in forms)
    # 2 pi a/h = log(1 + 2M/part), or 1 where that is below 1
    big = log_2m - log_part
    width = big + math.log1p(math.exp(-big)) if big > 0.0 else 1.0
    h = 2.0 * pi * a / width
    log_rc = log_r(c) + min(form(c) for form in forms)
    steps = (log_rc - log_part) / (lam * h)
    pr, pa = pi * rho, pi / alpha
    # sin(pi s) sin(pi s/alpha) grows like e^(pi (1 + 1/alpha) t) / 4
    if not (steps <= tol.max_terms and (pi + pa) * steps * h <= 700.0):
        raise ConvergenceFailureError(
            f"quadrature: the line needs more than {tol.max_terms} steps of {h:.3g}, "
            f"or nodes past the float range")
    n = max(0, math.ceil(steps))
    growth, reals, sizes = abs(log_beta) + pr + pa + pi, [], []
    try:
        for j in range(n + 1):
            t = j * h
            s = complex(c, t)
            term = cmath.sin(pr * s) / (cmath.sin(pi * s) * cmath.sin(pa * s)) * cmath.exp(
                complex(c - shift, t) * log_beta) / (1.0 if derivative else s)
            reals.append(term.real)
            sizes.append(abs(term) * (8.0 + (c + t) * growth))
        reals[0] *= 0.5
        sizes[0] *= 0.5
        rounding = EPS * h * math.fsum(sizes)
    except OverflowError:
        rounding = math.inf
    if not rounding < math.inf:
        raise ConvergenceFailureError("quadrature: a node overflows")
    strip = math.exp(log_2m - width) / -math.expm1(-width)
    bound = strip + math.exp(log_rc - lam * n * h) + rounding
    return EvalResult(h * math.fsum(reals), bound, MethodChoice.QUADRATURE, n + 1)


def g_quad(params: StableParams, beta: float,
           tol: Tolerance | None = None) -> EvalResult:
    """g(beta) by the trapezoid rule on the Mellin-Barnes line, for any beta > 0."""
    return _line(params, beta, tol, derivative=False)


def gprime_quad(params: StableParams, beta: float,
                tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) by the trapezoid rule on the Mellin-Barnes line, for any beta > 0."""
    return _line(params, beta, tol, derivative=True)

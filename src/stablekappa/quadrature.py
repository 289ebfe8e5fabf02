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
- the rounding, below.

The sum is h beta^(c - shift) sum_j Re(w_j e^(i t_j log beta)), shift 1
for g' and 0 for g, with the weights w_j = F(c + i t_j)/pi (times c + i t_j
for g'), the first halved: only beta^(c - shift) and the phases t_j log
beta depend on beta.  So the weights are computed once per (alpha, rho, g
or g', tolerance) and range of log beta (``_Table``), with h and n fixed
for the worst beta of that range: each of the first two terms is linear
in log beta in its exponent, so its largest value lies at an end of the
range.  Per beta the table takes one cosine and one sine per node and one
``math.fsum``, and returns the three terms at that beta.  The rounding is
that of each node, good to 8 eps of its size and to eps times its phase
|s log beta| and its sines' arguments pi t (1 + rho + 1/alpha): eps h
beta^(c - shift) times two sums over |w_j| fixed with the table, of
8 + (c + t_j) pi (1 + rho + 1/alpha) and of (c + t_j) |log beta|.

Dispatch (``kappa``) runs the line first from beta EDGE up, and ``g_quad``
and ``gprime_quad`` read beta in (EDGE, 1/EDGE) off one cached table per
(alpha, rho, g or g', abs_tol, max_terms), keyed on plain values; any
other beta gets a table of its own log beta, not cached.  h and n, the
largest step and the fewest nodes that hold each of the first two terms
to an eighth of ``Tolerance.abs_tol`` over the table's range, are fixed
before any node is evaluated.  Past ``Tolerance.max_terms`` steps, or where
pi/alpha, a sine or a node leaves the float range, the call raises
ConvergenceFailureError; else it returns its bound whatever its size, and
dispatch (``kappa._outcome``) checks the tolerance.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from operator import mul, sub

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

EDGE = 0.5       # beta in (EDGE, 1/EDGE) reads one cached table; dispatch runs the line first
_LOG_EDGE = math.log(EDGE)
_SHARE = 0.125   # of the tolerance, for the strip term and for the omitted nodes
_TABLES = 32     # tables of (EDGE, 1/EDGE) kept, one per (alpha, rho, g or g', tolerance)


class _Table:
    """The line's beta-free part for log beta in [lo, hi]: h, the nodes
    t_j and the real and imaginary parts of the weights w_j,
    the strip term's exponents per form of R at x = c -+ a, the omitted
    nodes' exponent at beta 1, and the two sums of the rounding bound, each
    times eps h (module docstring).  Calling it at a beta returns the
    line's result there."""

    __slots__ = ("h", "times", "reals", "imags", "power", "slopes", "strips", "tail",
                 "rounding")

    def __init__(self, alpha: float, rho: float, derivative: bool, abs_tol: float,
                 max_terms: int, lo: float, hi: float):
        pi = math.pi
        c = 0.5 * min(1.0, alpha)
        a = 0.75 * c
        lam = pi * (1.0 + 1.0 / alpha - rho)
        if lam == math.inf:
            raise ConvergenceFailureError(f"quadrature: pi/alpha past the float range at {alpha!r}")
        shift = 1.0 if derivative else 0.0

        def log_r(x: float) -> float:
            """log of 4 / (lambda sin(pi x) sin(pi x/alpha)): R(x) at beta 1
            for g', and without its 1/x for g."""
            return -math.log(0.25 * lam * sin_pi(x) * sin_pi(x / alpha))

        # the two forms of R for g, each log-convex in x
        forms = ((lambda x: 0.0),) if derivative else (
            (lambda x: -math.log(x)), (lambda x: math.log(pi * rho) + pi * rho * x))
        log_part = math.log(_SHARE * abs_tol)
        # log 2M at beta 1 per form at x = c -+ a; beta^(x - shift) adds slope x - shift
        self.slopes = (c - a - shift, c + a - shift)
        edges = [tuple(math.log(2.0) + log_r(x) + form(x) for x in (c - a, c + a))
                 for form in forms]
        log_2m = min(max(e + s * u for e, s in zip(pair, self.slopes) for u in (lo, hi))
                     for pair in edges)
        # 2 pi a/h = log(1 + 2M/part), or 1 where that is below 1
        big = log_2m - log_part
        width = big + math.log1p(math.exp(-big)) if big > 0.0 else 1.0
        h = 2.0 * pi * a / width
        self.power = c - shift
        log_rc = log_r(c) + min(form(c) for form in forms)
        steps = (log_rc + max(self.power * lo, self.power * hi) - log_part) / (lam * h)
        pr, pa = pi * rho, pi / alpha
        # sin(pi s) sin(pi s/alpha) grows like e^(pi (1 + 1/alpha) t) / 4
        if not (steps <= max_terms and (pi + pa) * steps * h <= 700.0):
            raise ConvergenceFailureError(
                f"quadrature: the line needs more than {max_terms} steps of {h:.3g}, "
                f"or nodes past the float range")
        n = max(0, math.ceil(steps))
        times, weights, own, phase = [j * h for j in range(n + 1)], [], 0.0, 0.0
        try:
            for t in times:
                s = complex(c, t)
                w = cmath.sin(pr * s) / (cmath.sin(pi * s) * cmath.sin(pa * s))
                weights.append(w if derivative else w / s)
            weights[0] *= 0.5
            for t, w in zip(times, weights):
                size = abs(w)
                own += size * (8.0 + (c + t) * (pr + pa + pi))
                phase += size * (c + t)
        except OverflowError:
            own = math.inf
        if not own < math.inf:
            raise ConvergenceFailureError("quadrature: a node overflows")
        self.h, self.times = h, tuple(times)
        self.reals, self.imags = tuple(w.real for w in weights), tuple(w.imag for w in weights)
        # the strip term is 2M/(e^width - 1): its log, less log 2M
        self.strips = tuple(tuple(e - width - math.log(-math.expm1(-width)) for e in pair)
                            for pair in edges)
        self.tail = log_rc - lam * n * h
        self.rounding = (EPS * h * own, EPS * h * phase)

    def __call__(self, beta: float) -> EvalResult:
        log_beta = math.log(beta)
        phases = [t * log_beta for t in self.times]
        total = math.fsum(map(sub, map(mul, self.reals, map(math.cos, phases)),
                              map(mul, self.imags, map(math.sin, phases))))
        try:
            scale = beta ** self.power
        except OverflowError:
            raise ConvergenceFailureError("quadrature: a node overflows") from None
        down, up = self.slopes[0] * log_beta, self.slopes[1] * log_beta
        strip = math.exp(min(max(e1 + down, e2 + up) for e1, e2 in self.strips))
        own, phase = self.rounding
        bound = (strip + math.exp(self.tail + self.power * log_beta)
                 + scale * (own + phase * abs(log_beta)))
        if not bound < math.inf:
            raise ConvergenceFailureError("quadrature: a node overflows")
        return EvalResult(self.h * scale * total, bound, MethodChoice.QUADRATURE,
                          len(phases))


@lru_cache(maxsize=_TABLES)
def _zone(alpha: float, rho: float, derivative: bool, abs_tol: float,
          max_terms: int) -> _Table:
    """The table of log beta in [log EDGE, -log EDGE], shared by every beta there."""
    return _Table(alpha, rho, derivative, abs_tol, max_terms, _LOG_EDGE, -_LOG_EDGE)


def _line(params: StableParams, beta: float, tol: Tolerance | None,
          derivative: bool) -> EvalResult:
    """g(beta) or g'(beta) by the trapezoid rule on Re s = c: off the cached
    table for beta in (EDGE, 1/EDGE), else off a table of log beta alone."""
    if not 0.0 < beta < math.inf:
        raise OutOfRangeError(f"beta must be positive and finite, got {beta!r}")
    tol = tol or DEFAULT_TOLERANCE
    if EDGE < beta < 1.0 / EDGE:
        table = _zone(params.alpha, params.rho, derivative, tol.abs_tol, tol.max_terms)
    else:
        log_beta = math.log(beta)
        table = _Table(params.alpha, params.rho, derivative, tol.abs_tol, tol.max_terms,
                       log_beta, log_beta)
    return table(beta)


def g_quad(params: StableParams, beta: float,
           tol: Tolerance | None = None) -> EvalResult:
    """g(beta) by the trapezoid rule on the Mellin-Barnes line, for any beta > 0."""
    return _line(params, beta, tol, derivative=False)


def gprime_quad(params: StableParams, beta: float,
                tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) by the trapezoid rule on the Mellin-Barnes line, for any beta > 0."""
    return _line(params, beta, tol, derivative=True)

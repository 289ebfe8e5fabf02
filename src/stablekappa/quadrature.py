"""Adaptive Gauss-Kronrod evaluation of g and g' from their integral forms.

This is the reference evaluator: it needs nothing from the series
machinery and serves as the oracle every other method is checked against.

    g(beta)  = sin(pi rho)/pi * int_0^inf beta log(1 + x^alpha)
                                / (x^2 + 2 x beta cos(pi rho) + beta^2) dx
    g'(beta) = alpha sin(pi rho)/pi * int_0^inf x^alpha/(1 + x^alpha)
                                / (x^2 + 2 x beta cos(pi rho) + beta^2) dx

Policy: the domain is split at x = beta, at x = 1 and at every power of
ten between them; the tail beyond 1 is mapped onto (0, 1] by x = 1/y (never
truncated).  Interval ends touching 0 get an extra quartic map x = s*t**4
that absorbs the log/x**alpha endpoint singularities into a C^2 integrand.
Panels use the embedded (G7, K15) pair; the worst panel is bisected until
the summed |K15 - G7| estimate meets the stopping rule: the larger of
``Tolerance.abs_tol`` and a fixed relative 1e-14 of the value.  That rule
only stops the bisection; the result returns with its bound, and dispatch
(``kappa._outcome``) refuses it if the bound exceeds ``abs_tol``.  Node
placement is fully deterministic.
"""

from __future__ import annotations

import math

from .accurate import EPS, cos_pi, sin_pi
from .params import (
    DEFAULT_TOLERANCE,
    ConvergenceFailureError,
    EvalResult,
    MethodChoice,
    OutOfRangeError,
    StableParams,
    Tolerance,
)

# 15-point Kronrod nodes (positive half) and weights; the embedded 7-point
# Gauss rule sits on nodes 1, 3, 5, 7.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.022935322010529225,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478541,
    0.20443294007529889,
    0.20948214108472783,
)
_WG = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
    0.41795918367346939,
)

_REL_TOL = 1e-14  # relative stopping rule; the absolute one is Tolerance.abs_tol
_MAX_REFINEMENTS = 30  # panel bisections before ConvergenceFailureError


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """One (G7, K15) panel: returns (K15 value, |K15 - G7| estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    resk = 0.0
    resg = 0.0
    for i in range(7):
        x = half * _XGK[i]
        fsum = f(mid - x) + f(mid + x)
        resk += _WGK[i] * fsum
        if i % 2 == 1:
            resg += _WG[i // 2] * fsum
    fc = f(mid)
    resk += _WGK[7] * fc
    resg += _WG[3] * fc
    return resk * half, abs((resk - resg) * half)


def _integrate(panels, abs_tol: float) -> tuple[float, float, int]:
    """Adaptive bisection over an initial panel list.

    Returns (value, error estimate, function evaluations).  Raises
    ConvergenceFailureError after ``_MAX_REFINEMENTS`` bisections with the
    estimate still above tolerance.
    """
    work = []
    nodes = 0
    for f, a, b in panels:
        val, err = _gk15(f, a, b)
        work.append((f, a, b, val, err))
        nodes += 15
    refinements = 0
    while True:
        total = math.fsum(item[3] for item in work)
        toterr = math.fsum(item[4] for item in work)
        if toterr <= max(abs_tol, _REL_TOL * abs(total)):
            return total, toterr, nodes
        if refinements >= _MAX_REFINEMENTS:
            raise ConvergenceFailureError(
                f"quadrature error estimate {toterr:.3e} above tolerance after "
                f"{refinements} refinements", value=total, error_bound=toterr)
        worst = 0
        worst_err = -1.0
        for i, item in enumerate(work):
            if item[4] > worst_err:
                worst_err = item[4]
                worst = i
        f, a, b, _, _ = work[worst]
        mid = 0.5 * (a + b)
        lv, le = _gk15(f, a, mid)
        rv, re = _gk15(f, mid, b)
        nodes += 30
        work[worst] = (f, a, mid, lv, le)
        work.append((f, mid, b, rv, re))
        refinements += 1


def _quartic_first(f, s: float):
    """Map x = s*t**4 for the panel touching 0; returns integrand over t in [0,1]."""
    def mapped(t: float, f=f, s=s) -> float:
        return f(s * t ** 4) * 4.0 * s * t ** 3
    return mapped


def _panel_set(f, splits: list[float]):
    """Panels covering (0, 1] with interior splits; first panel quartic-mapped."""
    pts = [0.0]
    for s in sorted(set(splits)):
        if 1e-12 < s < 1.0 - 1e-12 and s - pts[-1] > 1e-12:
            pts.append(s)
    pts.append(1.0)
    panels = [(_quartic_first(f, pts[1]), 0.0, 1.0)]
    for a, b in zip(pts[1:], pts[2:]):
        panels.append((f, a, b))
    return panels


def _build_panels(f_fin, f_tail, beta: float, rho: float):
    fin: list[float] = []
    tail: list[float] = []

    def add(x: float) -> None:
        if 0.0 < x < 1.0:
            fin.append(x)
        elif x > 1.0:
            tail.append(1.0 / x)

    add(beta)
    # the integrand changes scale between beta and 1: a split at every power
    # of ten strictly between them (in the mapped tail for beta > 1)
    lo, hi = sorted((beta, 1.0))
    for k in range(math.floor(math.log10(lo)) + 1, math.ceil(math.log10(hi))):
        add(10.0 ** k)
    if rho > 0.9 or rho < 0.1:
        # near-double-root of the denominator around x = beta
        for s in (0.9 * beta, 1.1 * beta):
            add(s)
    return _panel_set(f_fin, fin) + _panel_set(f_tail, tail)


def _quad(params: StableParams, beta: float, tol: Tolerance | None,
          derivative: bool) -> EvalResult:
    """g(beta) or g'(beta) by adaptive quadrature; the two differ only in
    their pair of integrands over (0, 1] and over the mapped tail."""
    if not beta > 0.0:
        raise OutOfRangeError(f"beta must be positive, got {beta!r}")
    tol = tol or DEFAULT_TOLERANCE
    alpha = params.alpha
    sinr = sin_pi(params.rho)
    cosr = cos_pi(params.rho)
    bc = beta * cosr
    bs2 = (beta * sinr) ** 2

    if derivative:
        c = alpha * sinr / math.pi

        def f_fin(x: float) -> float:
            xa = x ** alpha
            return c * xa / (1.0 + xa) / ((x + bc) ** 2 + bs2)

        def f_tail(y: float) -> float:
            return c / (1.0 + y ** alpha) / (
                (1.0 + y * beta * cosr) ** 2 + (y * beta * sinr) ** 2)
    else:
        cb = sinr / math.pi * beta

        def f_fin(x: float) -> float:
            return cb * math.log1p(x ** alpha) / ((x + bc) ** 2 + bs2)

        def f_tail(y: float) -> float:
            # x = 1/y; log(1 + y**-alpha) written as log1p(y**alpha) - alpha*log(y)
            return cb * (math.log1p(y ** alpha) - alpha * math.log(y)) / (
                (1.0 + y * beta * cosr) ** 2 + (y * beta * sinr) ** 2)

    panels = _build_panels(f_fin, f_tail, beta, params.rho)
    value, err, nodes = _integrate(panels, tol.abs_tol)
    bound = max(err, 4.0 * EPS * (1.0 + abs(value)))
    return EvalResult(value, bound, MethodChoice.QUADRATURE, nodes)


def g_quad(params: StableParams, beta: float,
           tol: Tolerance | None = None) -> EvalResult:
    """g(beta) by adaptive quadrature, valid for any beta > 0."""
    return _quad(params, beta, tol, derivative=False)


def gprime_quad(params: StableParams, beta: float,
                tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) by adaptive quadrature, valid for any beta > 0."""
    return _quad(params, beta, tol, derivative=True)

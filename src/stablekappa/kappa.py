"""Assembly of kappa(gamma, beta) and the evaluation plan behind g and g'.

kappa(gamma, beta) = gamma^rho * exp(g(beta * gamma^(-1/alpha))) is taken
as the definition (the alternative normalization with an unspecified
multiplicative constant is not modeled).  g itself is defined by its
integral for beta in (0, 1] and extended to all beta > 0 through the
reflection identity g(beta) = g(1/beta) + alpha rho log(beta).

Which evaluator runs is decided in one place, ``plan``: it yields the
candidate methods for one beta, for g or g', in the order they are tried,
each with the reason it runs or is skipped.  A beta >= 1.05 is planned at
1/beta and every result reflected; what follows is said of the beta
planned.  One edge, ``quadrature.EDGE`` = 0.5, splits it.  Up to the edge
the order is the Doney closed form (exact and cheapest), the
small-divisor series (which picks its own form at this beta, and raises
IllConditionedSeriesError where none gives a result), then quadrature on
the Mellin-Barnes line, which has no small divisors.  Above the edge the
line, read off one cached beta-free table, costs less than either series,
which converge like 1/|log beta| near 1 (``tests/test_quadrature.py
--crossover`` prints both costs): the order is Doney, the line, then the
series.  Above 0.95 the Doney logs lose digits like eps/(1 - beta) and
the series slow further, so there the line runs alone and the Doney and
series candidates are skipped: the band 0.95 < beta < 1.05, which a beta
in [1.05, 1/0.95) reaches at 1/beta.  A forced method runs its own step
of this plan alone, except in the band, and raises when the plan skips
that step.  The steps are cached per (params, g or g', method, tolerance,
region), the region being whether beta is reflected and where the beta
planned lies: up to the edge, up to 0.95 or in the band.
``find_doney_case`` is read only when an entry is filled, and each step
looks up its evaluator when it runs.

Whether a result meets the tolerance is decided in one place too,
``_outcome``, on the bound returned after reflection: above
``Tolerance.abs_tol`` it raises ConvergenceFailureError, carrying the
value and bound, and the plan tries its next step.  An evaluator refuses
only where it has no result.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .accurate import EPS
from .params import (
    DEFAULT_TOLERANCE,
    ConvergenceFailureError,
    EvalResult,
    IllConditionedSeriesError,
    MethodChoice,
    MethodNotApplicableError,
    OutOfRangeError,
    StableParams,
    Tolerance,
    _Record,
)
from .quadrature import EDGE, g_quad, gprime_quad
from .series import g_series, gprime_series
from .special import find_doney_case, g_doney

_REFLECT = 1.05   # a beta at or above it is planned at 1/beta
_NEAR_ONE = 0.95  # above it Doney's logs lose digits like eps/(1 - beta) and both series slow
_STEPS_CACHE = 256   # (params, g or g', method, tolerance, region) plans kept
_FALLBACK = (ConvergenceFailureError, IllConditionedSeriesError)


class _QueryFields(NamedTuple):
    gamma: float
    beta: float


class KappaQuery(_Record, _QueryFields):
    """Arguments (gamma, beta) of the bivariate Laplace exponent."""

    __slots__ = ()

    def __new__(cls, gamma: float, beta: float) -> KappaQuery:
        if not (math.isfinite(gamma) and gamma > 0.0):
            raise OutOfRangeError(f"gamma must be positive, got {gamma!r}")
        if not (math.isfinite(beta) and beta >= 0.0):
            raise OutOfRangeError(f"beta must be nonnegative, got {beta!r}")
        return tuple.__new__(cls, (gamma, beta))


class Candidate(NamedTuple):
    """One step of an evaluation plan; ``run`` is None when it is skipped."""

    method: MethodChoice
    reason: str
    run: Callable[[], EvalResult] | None = None


_IN_BAND = "skipped: 0.95 < beta < 1.05, where quadrature runs"


def _region(beta: float) -> tuple[bool, int]:
    """(reflected, zone): beta >= 1.05 is planned at 1/beta, and the zone is
    read at the beta planned: 0 up to EDGE, 1 up to 0.95, 2 above (the band)."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise OutOfRangeError(f"beta must be positive, got {beta!r}")
    reflected = beta >= _REFLECT
    planned = 1.0 / beta if reflected else beta
    return reflected, (planned > EDGE) + (planned > _NEAR_ONE)


@lru_cache(maxsize=_STEPS_CACHE)
def _steps(params: StableParams, derivative: bool, method: MethodChoice,
           tol: Tolerance | None, region: tuple[bool, int]) -> tuple:
    """The steps of ``plan`` in one region, each (method, reason, evaluator
    of the planned beta or None when skipped).  An evaluator returns
    (value, bound, method, terms or nodes) and looks up its method's
    function when it runs."""
    reflected, zone = region
    band = zone == 2
    tol = tol or DEFAULT_TOLERANCE
    case = find_doney_case(params)

    def quadrature(beta):
        return (gprime_quad if derivative else g_quad)(params, beta, tol)

    def series(beta):
        rep = (gprime_series if derivative else g_series)(params, beta, tol)
        return (rep.value, rep.tail_bound + rep.noise_bound, MethodChoice.SERIES,
                rep.terms_first_series + rep.terms_second_series)

    def doney(beta):
        # a few ulps per term, relative to the scale of the terms: 1 for the
        # logs of g, and for g' the bound k |x|/(1 - |x|) of each x d/dx g_k
        # over beta, x1 = beta^alpha and x2 = beta
        value, scale = g_doney(params, beta, case, derivative), 1.0
        if derivative:
            x1 = beta ** params.alpha
            scale = (params.alpha * case.k * x1 / (1.0 - x1) + case.l * beta / (1.0 - beta)) / beta
        return (value, 4.0 * EPS * (case.k + case.l + 2) * (scale + abs(value)),
                MethodChoice.DONEY, case.k + case.l)

    closed = (MethodChoice.DONEY, "skipped: no (k, l) with rho + k = l/alpha", None)
    if case is not None:
        closed = ((MethodChoice.DONEY, _IN_BAND, None) if band else
                  (MethodChoice.DONEY, f"Doney case (k, l) = ({case.k}, {case.l})", doney))
    line = (MethodChoice.QUADRATURE, (
        "the line, last: it has no small divisors",
        f"{EDGE} < beta < {1.0 / EDGE:g}, where the line's table costs least",
        "0.95 < beta < 1.05, where both series slow down")[zone], quadrature)
    series_step = (MethodChoice.SERIES, "generic, paired or split as alpha and beta need", series)
    steps = ([closed, series_step, line], [closed, line, series_step],
             [line, closed, (MethodChoice.SERIES, _IN_BAND, None)])[zone]
    if reflected:
        steps = [(m, reason + "; at 1/beta, reflected" if run else reason, run)
                 for m, reason, run in steps]
    if method is MethodChoice.AUTO:
        return tuple(steps)
    step = steps[0] if band else next(s for s in steps if s[0] is method)
    if step[2] is None:
        raise MethodNotApplicableError(f"forced method {method.value} does not apply: "
                                       f"{step[1].removeprefix('skipped: ')}")
    return (step,)


def _outcome(run, params: StableParams, beta: float, derivative: bool, abs_tol: float) -> tuple:
    """One step's result at beta.  For beta >= 1.05 the step runs at 1/beta
    and g(beta) = g(1/beta) + alpha rho log(beta), or its derivative
    g'(beta) = alpha rho / beta - g'(1/beta) / beta^2, reflects it back.  A
    bound above abs_tol, after reflection, raises ConvergenceFailureError."""
    reflected = beta >= _REFLECT
    value, bound, method, used = run(1.0 / beta if reflected else beta)
    if reflected and derivative:
        value = params.alpha * params.rho / beta - value / (beta * beta)
        bound = bound / (beta * beta) + 4.0 * EPS * (1.0 + abs(value))
    elif reflected:
        value += params.alpha * params.rho * math.log(beta)
        bound += 4.0 * EPS * (1.0 + abs(value))
    if not bound <= abs_tol:
        raise ConvergenceFailureError(f"{method.value}: error bound {bound:.3e} above the "
                                      f"tolerance {abs_tol:.3e}", value=value, error_bound=bound)
    return value, bound, method, used


def plan(params: StableParams, beta: float, derivative: bool = False,
         method: MethodChoice = MethodChoice.AUTO,
         tol: Tolerance | None = None) -> Iterator[Candidate]:
    """The candidate evaluators of g(beta) (or g'(beta)) in the order they
    are tried, each with the reason it runs or is skipped.  A beta >= 1.05
    is planned at 1/beta and every result reflected back to beta.

    A forced method is the one step of that method, alone; in the band it
    is quadrature, whatever is forced.  A forced step that the plan skips
    raises MethodNotApplicableError for the reason it gives."""
    abs_tol = (tol or DEFAULT_TOLERANCE).abs_tol
    for m, reason, run in _steps(params, derivative, method, tol, _region(beta)):
        yield Candidate(m, reason, run and (
            lambda run=run: EvalResult(*_outcome(run, params, beta, derivative, abs_tol))))


def _any_beta(params: StableParams, beta: float, derivative: bool,
              method: MethodChoice, tol: Tolerance | None) -> tuple:
    """(value, bound, method, terms or nodes) of the first step of the plan
    whose result meets the tolerance (``_outcome``).  One that raises
    ConvergenceFailureError or IllConditionedSeriesError passes to the
    next; the last failure is raised, each earlier one chained on as the
    ``__cause__`` of the one after it."""
    failures, abs_tol = [], (tol or DEFAULT_TOLERANCE).abs_tol
    for _, _, run in _steps(params, derivative, method, tol, _region(beta)):
        if run is not None:
            try:
                return _outcome(run, params, beta, derivative, abs_tol)
            except _FALLBACK as exc:
                failures.append(exc)
    for earlier, later in zip(failures, failures[1:]):
        later.__cause__ = later.__cause__ or earlier
    raise failures[-1]


def g_any_beta(params: StableParams, beta: float,
               method: MethodChoice = MethodChoice.AUTO,
               tol: Tolerance | None = None) -> EvalResult:
    """g(beta) for any beta > 0 by the first step of ``plan`` that meets the tolerance."""
    return EvalResult(*_any_beta(params, beta, False, method, tol))


def gprime_any_beta(params: StableParams, beta: float,
                    method: MethodChoice = MethodChoice.AUTO,
                    tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) for any beta > 0 by the first step of ``plan`` that meets the tolerance."""
    return EvalResult(*_any_beta(params, beta, True, method, tol))


def _kappa(params: StableParams, gamma: float, beta: float, method: MethodChoice,
           tol: Tolerance | None) -> tuple:
    """(value, bound, method, terms or nodes) of ``kappa`` at a valid
    gamma > 0 and beta >= 0."""
    scale = gamma ** params.rho
    if beta == 0.0:
        return scale, 4.0 * EPS * abs(scale), method, 0
    arg = beta * gamma ** (-1.0 / params.alpha)
    value, bound, used, count = _any_beta(params, arg, False, method, tol)
    value = scale * math.exp(value)
    return value, abs(value) * math.expm1(bound) + 4.0 * EPS * abs(value), used, count


def kappa(params: StableParams, q: KappaQuery,
          method: MethodChoice = MethodChoice.AUTO,
          tol: Tolerance | None = None) -> EvalResult:
    """kappa(gamma, beta) = gamma^rho exp(g(beta gamma^(-1/alpha)));
    kappa(gamma, 0) = gamma^rho exactly."""
    return EvalResult(*_kappa(params, q.gamma, q.beta, method, tol))


def exit_transform(params: StableParams, eta: float, gamma: float, theta: float,
                   method: MethodChoice = MethodChoice.AUTO,
                   tol: Tolerance | None = None) -> EvalResult:
    """1 / ((theta + gamma) kappa(eta, gamma) kappa(eta, theta)).

    The expression is symmetric in (gamma, theta) exactly; swapping them
    produces the same floating-point value.
    """
    for name, arg in (("eta", eta), ("gamma", gamma), ("theta", theta)):
        if not math.isfinite(arg):
            raise OutOfRangeError(f"{name} must be finite, got {arg!r}")
    if not eta > 0.0:
        raise OutOfRangeError(f"eta must be positive, got {eta!r}")
    if gamma < 0.0 or theta < 0.0:
        raise OutOfRangeError("gamma and theta must be nonnegative")
    if theta + gamma == 0.0:
        raise ZeroDivisionError("theta + gamma must be positive")
    v1, b1, used, n1 = _kappa(params, eta, gamma, method, tol)
    v2, b2, _, n2 = _kappa(params, eta, theta, method, tol)
    # grouping keeps the value exactly symmetric under gamma <-> theta
    value = 1.0 / ((theta + gamma) * (v1 * v2))
    bound = abs(value) * (b1 / abs(v1) + b2 / abs(v2)) + 4.0 * EPS * abs(value)
    return EvalResult(value, bound, used, n1 + n2)

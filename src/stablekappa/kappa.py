"""Assembly of kappa(gamma, beta) and the evaluation plan behind g and g'.

kappa(gamma, beta) = gamma^rho * exp(g(beta * gamma^(-1/alpha))) is taken
as the definition (the alternative normalization with an unspecified
multiplicative constant is not modeled).  g itself is defined by its
integral for beta in (0, 1] and extended to all beta > 0 through the
reflection identity g(beta) = g(1/beta) + alpha rho log(beta).

Which evaluator runs is decided in one place, ``plan``: it yields the
candidate methods for one beta, for g or g', in the order they are tried,
each with the reason it runs or is skipped.  For beta <= 0.95 the order is
the Doney closed form (g only; exact and cheapest), the small-divisor
series (unless ``classify`` finds it ill-conditioned at this beta: generic,
with its near-resonant terms paired at a convergent p/q, or split at a
rational alpha = p/q), then quadrature.  In the band 0.95 < beta < 1.05,
where the series slow down, quadrature comes first and the Doney and
series candidates are skipped, except that below beta = 1 the series at
rational alpha stays on as its fallback: its floors do not depend on beta.
beta >= 1.05 is planned at 1/beta and every result reflected.
A forced method runs its own step of this plan alone, except in the band,
and raises when the plan skips that step.  The plan is lazy:
``find_doney_case`` and ``classify`` run only when a candidate that needs
them comes up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .accurate import EPS
from .diophantine import AlphaKind, classify
from .params import (
    ConvergenceFailureError,
    EvalResult,
    IllConditionedSeriesError,
    MethodChoice,
    MethodNotApplicableError,
    OutOfRangeError,
    StableParams,
    Tolerance,
)
from .quadrature import g_quad, gprime_quad
from .series import g_series, gprime_series
from .special import find_doney_case, g_doney

_BAND_LO = 0.95
_BAND_HI = 1.05
_FALLBACK = (ConvergenceFailureError, IllConditionedSeriesError)


@dataclass(frozen=True)
class KappaQuery:
    """Arguments (gamma, beta) of the bivariate Laplace exponent."""

    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise OutOfRangeError(f"gamma must be positive, got {self.gamma!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise OutOfRangeError(f"beta must be nonnegative, got {self.beta!r}")


class Candidate(NamedTuple):
    """One step of an evaluation plan; ``run`` is None when it is skipped."""

    method: MethodChoice
    reason: str
    run: Callable[[], EvalResult] | None = None


# the skipped steps, shared by every plan
_IN_BAND = "skipped: 0.95 < beta < 1.05, where quadrature runs"
_DONEY_IN_BAND = Candidate(MethodChoice.DONEY, _IN_BAND)
_DONEY_G_ONLY = Candidate(MethodChoice.DONEY, "skipped: closed form covers g only")
_NO_DONEY_CASE = Candidate(MethodChoice.DONEY, "skipped: no (k, l) with rho + k = l/alpha")
_SERIES_IN_BAND = Candidate(MethodChoice.SERIES, _IN_BAND)
_SERIES_ILL = Candidate(MethodChoice.SERIES,
                        "skipped: ill-conditioned, also with the near-resonant terms paired")


def _series_result(series, params: StableParams, beta: float, tol: Tolerance,
                   aclass) -> EvalResult:
    report = series(params, beta, tol, aclass)
    return EvalResult(report.value, report.tail_bound + report.noise_bound,
                      MethodChoice.SERIES,
                      report.terms_first_series + report.terms_second_series)


def _doney_result(params: StableParams, beta: float, case) -> EvalResult:
    value = g_doney(params, beta, case)
    bound = 4.0 * EPS * (case.k + case.l + 2) * (1.0 + abs(value))
    return EvalResult(value, bound, MethodChoice.DONEY, case.k + case.l)


def _reflected(inner: EvalResult, params: StableParams, beta: float,
               derivative: bool) -> EvalResult:
    """g(beta) = g(1/beta) + alpha rho log(beta), or its derivative
    g'(beta) = alpha rho / beta - g'(1/beta) / beta^2, from the inner result."""
    if derivative:
        value = params.alpha * params.rho / beta - inner.value / (beta * beta)
        bound = inner.abs_error_bound / (beta * beta) + 4.0 * EPS * (1.0 + abs(value))
    else:
        value = inner.value + params.alpha * params.rho * math.log(beta)
        bound = inner.abs_error_bound + 4.0 * EPS * (1.0 + abs(value))
    return EvalResult(value, bound, inner.method, inner.terms_or_nodes_used)


def plan(params: StableParams, beta: float, derivative: bool = False,
         method: MethodChoice = MethodChoice.AUTO,
         tol: Tolerance | None = None) -> Iterator[Candidate]:
    """The candidate evaluators of g(beta) (or g'(beta)) in the order they
    are tried, each with the reason it runs or is skipped.  A beta >= 1.05
    is planned at 1/beta and every result reflected back to beta.

    A forced method is the one step of that method, alone; in the band it
    is quadrature, whatever is forced.  A forced step that the plan skips
    raises for the reason it gives: IllConditionedSeriesError for the
    ill-conditioned series, MethodNotApplicableError otherwise."""
    if not (math.isfinite(beta) and beta > 0.0):
        raise OutOfRangeError(f"beta must be positive, got {beta!r}")
    tol = tol or Tolerance()
    outer = None
    if beta >= _BAND_HI:
        outer, beta = beta, 1.0 / beta
    band = beta > _BAND_LO
    quadrature = gprime_quad if derivative else g_quad

    def runnable(m: MethodChoice, reason: str, fn, *args) -> Candidate:
        if outer is None:
            return Candidate(m, reason, lambda: fn(*args))
        return Candidate(m, reason + "; at 1/beta, reflected",
                         lambda: _reflected(fn(*args), params, outer, derivative))

    def steps() -> Iterator[Candidate]:
        if band:
            yield runnable(MethodChoice.QUADRATURE, "0.95 < beta < 1.05, where both "
                           "series slow down", quadrature, params, beta, tol)
        if derivative:
            yield _DONEY_G_ONLY
        else:
            case = find_doney_case(params)
            if case is None:
                yield _NO_DONEY_CASE
            elif band:
                yield _DONEY_IN_BAND
            else:
                yield runnable(MethodChoice.DONEY,
                               f"Doney case (k, l) = ({case.k}, {case.l})",
                               _doney_result, params, beta, case)

        aclass = classify(params.alpha, tol, beta)
        rational = aclass.kind is AlphaKind.RATIONAL
        if aclass.kind is AlphaKind.ILL_CONDITIONED:
            yield _SERIES_ILL
        elif band and not (rational and beta < 1.0):
            yield _SERIES_IN_BAND
        else:
            if rational:
                reason = f"rational alpha {aclass.p}/{aclass.q}, split at its resonant terms"
            else:
                reason = "irrational alpha, well conditioned here" + (
                    f" with the terms near {aclass.p}/{aclass.q} paired" if aclass.p else "")
            yield runnable(MethodChoice.SERIES, reason, _series_result,
                           gprime_series if derivative else g_series,
                           params, beta, tol, aclass)
        if not band:
            yield runnable(MethodChoice.QUADRATURE, "reference evaluator",
                           quadrature, params, beta, tol)

    if method is MethodChoice.AUTO:
        yield from steps()
        return
    for step in steps():
        if band or step.method is method:
            if step.run is None:
                error = (IllConditionedSeriesError if step is _SERIES_ILL
                         else MethodNotApplicableError)
                raise error(f"forced method {method.value} does not apply: "
                            f"{step.reason.removeprefix('skipped: ')}")
            yield step
            return


def _any_beta(params: StableParams, beta: float, derivative: bool,
              method: MethodChoice, tol: Tolerance | None) -> EvalResult:
    """The first candidate of the plan that converges.  One that raises
    ConvergenceFailureError or IllConditionedSeriesError passes to the
    next; the last failure is raised."""
    failure = None
    for step in plan(params, beta, derivative, method, tol):
        if step.run is not None:
            try:
                return step.run()
            except _FALLBACK as exc:
                failure = exc
    raise failure


def g_any_beta(params: StableParams, beta: float,
               method: MethodChoice = MethodChoice.AUTO,
               tol: Tolerance | None = None) -> EvalResult:
    """g(beta) for any beta > 0 by the first candidate of ``plan`` that converges."""
    return _any_beta(params, beta, False, method, tol)


def gprime_any_beta(params: StableParams, beta: float,
                    method: MethodChoice = MethodChoice.AUTO,
                    tol: Tolerance | None = None) -> EvalResult:
    """g'(beta) for any beta > 0 by the first candidate of ``plan`` that converges."""
    return _any_beta(params, beta, True, method, tol)


def kappa(params: StableParams, q: KappaQuery,
          method: MethodChoice = MethodChoice.AUTO,
          tol: Tolerance | None = None) -> EvalResult:
    """kappa(gamma, beta) = gamma^rho exp(g(beta gamma^(-1/alpha)));
    kappa(gamma, 0) = gamma^rho exactly."""
    tol = tol or Tolerance()
    scale = q.gamma ** params.rho
    if q.beta == 0.0:
        return EvalResult(scale, 4.0 * EPS * abs(scale), method, 0)
    arg = q.beta * q.gamma ** (-1.0 / params.alpha)
    inner = g_any_beta(params, arg, method, tol)
    value = scale * math.exp(inner.value)
    bound = abs(value) * math.expm1(inner.abs_error_bound) + 4.0 * EPS * abs(value)
    return EvalResult(value, bound, inner.method, inner.terms_or_nodes_used)


def exit_transform(params: StableParams, eta: float, gamma: float, theta: float,
                   method: MethodChoice = MethodChoice.AUTO,
                   tol: Tolerance | None = None) -> EvalResult:
    """1 / ((theta + gamma) kappa(eta, gamma) kappa(eta, theta)).

    The expression is symmetric in (gamma, theta) exactly; swapping them
    produces the same floating-point value.
    """
    tol = tol or Tolerance()
    for name, arg in (("eta", eta), ("gamma", gamma), ("theta", theta)):
        if not math.isfinite(arg):
            raise OutOfRangeError(f"{name} must be finite, got {arg!r}")
    if not eta > 0.0:
        raise OutOfRangeError(f"eta must be positive, got {eta!r}")
    if gamma < 0.0 or theta < 0.0:
        raise OutOfRangeError("gamma and theta must be nonnegative")
    if theta + gamma == 0.0:
        raise ZeroDivisionError("theta + gamma must be positive")
    k1 = kappa(params, KappaQuery(eta, gamma), method, tol)
    k2 = kappa(params, KappaQuery(eta, theta), method, tol)
    # grouping keeps the value exactly symmetric under gamma <-> theta
    value = 1.0 / ((theta + gamma) * (k1.value * k2.value))
    rel = (k1.abs_error_bound / abs(k1.value)
           + k2.abs_error_bound / abs(k2.value))
    bound = abs(value) * rel + 4.0 * EPS * abs(value)
    return EvalResult(value, bound, k1.method,
                      k1.terms_or_nodes_used + k2.terms_or_nodes_used)

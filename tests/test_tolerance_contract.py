"""The tolerance contract of dispatch: no result above its tolerance.

``kappa._outcome`` compares the bound of the result it is about to return,
after reflection, with ``Tolerance.abs_tol``, and refuses it above that
with ``ConvergenceFailureError`` carrying the refused value and bound; the
plan then tries its next step.  Over a fixed grid of alpha kinds
(rational, a large denominator, near-resonant, generic, small), their
admissible rho with the one-sided endpoints, beta from 1e-300 to 1e12 and
four tolerances, auto g and g' either return a bound within the tolerance
or raise a typed error, and the outcomes per alpha are pinned in the store
``outcomes``: (results by the Doney form, the series and quadrature,
ConvergenceFailureError, IllConditionedSeriesError).

The g' points at beta 1e8 and 1e12 that a refusal of the inner bound, not
the one returned, sent to a failing quadrature all return by the series,
within their bound of the 30-digit integral.
"""

import math
from collections import Counter

import pytest

from stablekappa import (
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodChoice,
    Tolerance,
    g_any_beta,
    gprime_any_beta,
    validate,
)

import store

SQRT2 = math.sqrt(2.0)
ALPHAS = (0.01, 0.1, 0.3, 0.5, 0.500001, 0.500000000001, 0.5 + SQRT2 / 40.0, 0.8, 1.0,
          1.0000001, SQRT2, 1.5, 1.50000001, 1.9, 2.0)
BETAS = (1e-300, 1e-30, 1e-20, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.6, 0.9, 0.97, 1.0,
         1.02, 1.2, 10.0, 1e4, 1e8, 1e12)
TOLS = tuple(Tolerance(abs_tol=t) for t in (1e-6, 1e-10, 1e-13, 1e-15))
KINDS = (MethodChoice.DONEY, MethodChoice.SERIES, MethodChoice.QUADRATURE,
         ConvergenceFailureError, IllConditionedSeriesError)


def _rhos(alpha):
    """0.3 and 0.7 up to alpha 1/2, 0.1 and 0.9 up to 1; above 1 the
    one-sided endpoints 1 - 1/alpha and 1/alpha; rho 1/2 throughout."""
    if alpha <= 0.5:
        return (0.3, 0.5, 0.7)
    if alpha <= 1.0:
        return (0.1, 0.5, 0.9)
    return tuple(sorted({1.0 - 1.0 / alpha, 0.5, 1.0 / alpha}))


def _outcomes(alpha):
    """(rho, beta, tol, g or g', result or error) of every call at alpha."""
    calls = []
    for rho in _rhos(alpha):
        params = validate(alpha, rho)
        for tol in TOLS:
            for beta in BETAS:
                for fn in (g_any_beta, gprime_any_beta):
                    try:
                        got = fn(params, beta, tol=tol)
                    except (ConvergenceFailureError, IllConditionedSeriesError) as exc:
                        got = exc
                    calls.append((rho, beta, tol, fn is gprime_any_beta, got))
    return calls


def _count(calls):
    counts = Counter(got.method if isinstance(got, tuple) else type(got)
                     for *_, got in calls)
    return tuple(counts[kind] for kind in KINDS)


@pytest.fixture(scope="module")
def outcomes():
    return {alpha: _outcomes(alpha) for alpha in ALPHAS}


def pins() -> dict:
    return {alpha: _count(_outcomes(alpha)) for alpha in ALPHAS}


def test_no_result_above_its_tolerance_and_every_refusal_typed(outcomes):
    refused = 0
    for alpha, calls in outcomes.items():
        for rho, beta, tol, derivative, got in calls:
            point = (alpha, rho, beta, tol.abs_tol, derivative)
            if isinstance(got, tuple):
                assert got.abs_error_bound <= tol.abs_tol, point
                continue
            # each failure of the chain is typed; a refusal of dispatch
            # names its bound, above the tolerance, and carries its value
            exc = got
            while exc is not None:
                assert isinstance(exc, (ConvergenceFailureError, IllConditionedSeriesError)), point
                if "above the tolerance" in str(exc):
                    assert exc.error_bound > tol.abs_tol and exc.value is not None, point
                    refused += 1
                exc = exc.__cause__
    assert refused > 1000


def test_outcomes_per_alpha_are_pinned(outcomes):
    counts = {alpha: _count(calls) for alpha, calls in outcomes.items()}
    assert store.dumps(counts) == store.dumps(store.load("outcomes"))


# the g' points at large beta, at rho 0.5
LARGE_BETA = [(alpha, beta) for alpha in (0.1, 0.3, 0.5, 0.500001, 0.01) for beta in (1e8, 1e12)]

ORACLE_POINTS = [(alpha, 0.5, beta, True) for alpha, beta in LARGE_BETA]


def test_g_prime_at_large_beta_returns_by_the_series():
    for alpha, beta in LARGE_BETA:
        res = gprime_any_beta(validate(alpha, 0.5), beta)
        ref, err = store.oracle(alpha, 0.5, beta, True)
        assert res.method is MethodChoice.SERIES, (alpha, beta)
        assert res.abs_error_bound < 1e-15, (alpha, beta)
        assert abs(res.value - ref) <= res.abs_error_bound + err, (alpha, beta)


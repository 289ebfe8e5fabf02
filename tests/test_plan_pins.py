"""The plan and the value of g and g' pinned in every beta region.

At three (alpha, rho), sqrt 2 with no Doney case, the Doney case 4/5 and
the rational 1/2; for g and g'; automatic and each forced method; at betas
below the band, at 0.95, 1.0 and 1.05, inside the band, in the sliver
[1.05, 1/0.95) that is planned in the band at 1/beta, at 1/0.95 itself
and reflected beyond it.  Each pin, in the store ``plan``, is the plan's
steps as (method, reason, runnable), or the type of the error the plan
raises, and the result as (value, bound, method, count), or the type of
the error raised.  Each case is checked cold, every cache cleared before
the call, and warm, after every case has filled them.  Every value, by
whichever method, lies within its bound of the stored 30-digit integral.
"""

import importlib
import itertools
import math

import pytest

from stablekappa import MethodChoice, g_any_beta, gprime_any_beta, validate

import store
from conftest import clear_caches

# the package re-exports the function kappa under the submodule's name
kappa_module = importlib.import_module("stablekappa.kappa")

SQRT2 = math.sqrt(2.0)
ALPHAS = ((SQRT2, 0.5), (0.8, 0.25), (0.5, 0.3))
BETAS = (0.3, 0.95, 0.97, 1.0, 1.03, 1.05, 1.051, 1 / 0.95, 1.06, 2.5)
# (alpha, rho, derivative, method, beta) of every pin
CASES = [(alpha, rho, derivative, method, beta)
         for (alpha, rho), derivative, method, beta in itertools.product(
             ALPHAS, (False, True), ("auto", "doney", "series", "quadrature"), BETAS)]
ORACLE_POINTS = sorted({(alpha, rho, beta, derivative)
                        for alpha, rho, derivative, _, beta in CASES})


def _outcome(alpha, rho, derivative, method, beta, cold=False):
    if cold:
        clear_caches()
    params = validate(alpha, rho)
    choice = MethodChoice(method)
    try:
        planned = tuple((step.method.value, step.reason, step.run is not None)
                        for step in kappa_module.plan(params, beta, derivative, choice))
    except Exception as exc:  # noqa: BLE001  (the pin names the type raised)
        planned = type(exc).__name__
    try:
        res = (gprime_any_beta if derivative else g_any_beta)(params, beta, choice)
        result = (res.value, res.abs_error_bound, res.method.value, res.terms_or_nodes_used)
    except Exception as exc:  # noqa: BLE001
        result = type(exc).__name__
    return planned, result


def pins(cold: bool = True) -> dict:
    return {case: _outcome(*case, cold) for case in CASES}


def test_plan_pins_cover_every_case():
    assert list(store.load("plan")) == CASES
    assert {method for *_, method, _ in CASES} == {m.value for m in MethodChoice}


@pytest.mark.parametrize("warm", [False, True])
def test_plan_and_values_match_their_pins(warm):
    clear_caches()
    if warm:
        pins(cold=False)
    assert store.dumps(pins(cold=not warm)) == store.dumps(store.load("plan"))


def test_series_rows_lie_within_their_bounds_of_the_oracle():
    # every row that returns, by each method, g and g'
    rows = 0
    for (alpha, rho, derivative, _, beta), (_, result) in store.load("plan").items():
        if isinstance(result, str):
            continue
        value, bound = result[:2]
        ref, err = store.oracle(alpha, rho, beta, derivative)
        assert abs(value - ref) <= bound - err - 0.5 * math.ulp(ref), (alpha, beta)
        rows += 1
    assert rows == 224

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekappa import (
    EvalResult,
    MethodChoice,
    OutOfRangeError,
    Tolerance,
    g_any_beta,
    validate,
)


def test_spectrally_negative_endpoint_accepted():
    p = validate(1.5, 2.0 / 3.0)
    assert p.alpha == 1.5
    assert p.rho == 2.0 / 3.0


def test_alpha_two_forces_half():
    assert validate(2.0, 0.5).rho == 0.5
    with pytest.raises(OutOfRangeError):
        validate(2.0, 0.5 + 1e-12)
    with pytest.raises(OutOfRangeError):
        validate(2.0, 0.5 - 1e-12)


def test_small_alpha_interval_is_open_unit():
    assert validate(0.5, 0.99).rho == 0.99
    with pytest.raises(OutOfRangeError):
        validate(0.5, 1.0)
    with pytest.raises(OutOfRangeError):
        validate(0.5, 0.0)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0 + 1e-12, math.inf, math.nan])
def test_alpha_out_of_range(alpha):
    with pytest.raises(OutOfRangeError):
        validate(alpha, 0.5)


def _admissible(alpha: float, rho: float) -> bool:
    if not (0.0 < alpha <= 2.0 and 0.0 < rho < 1.0):
        return False
    inv = 1.0 / alpha
    return 1.0 - inv <= rho <= inv


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(min_value=1e-3, max_value=2.0),
       rho=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_validate_matches_invariants_fuzz(alpha, rho):
    if _admissible(alpha, rho):
        p = validate(alpha, rho)
        assert (p.alpha, p.rho) == (alpha, rho)
    else:
        with pytest.raises(OutOfRangeError):
            validate(alpha, rho)


def test_validate_grid_endpoints_exact():
    for alpha in (1.1, 1.25, 1.5, 1.75, 2.0):
        inv = 1.0 / alpha
        validate(alpha, inv)
        validate(alpha, 1.0 - inv)
        with pytest.raises(OutOfRangeError):
            validate(alpha, math.nextafter(inv, 2.0))
        with pytest.raises(OutOfRangeError):
            validate(alpha, math.nextafter(1.0 - inv, 0.0))


def test_params_frozen():
    p = validate(0.8, 0.25)
    with pytest.raises(AttributeError):
        p.alpha = 1.0


def test_tolerance_validation():
    t = Tolerance()
    assert t.abs_tol == 1e-10
    assert t.max_terms == 10000
    with pytest.raises(OutOfRangeError):
        Tolerance(abs_tol=0.0)
    with pytest.raises(OutOfRangeError):
        Tolerance(abs_tol=math.inf)
    with pytest.raises(OutOfRangeError):
        Tolerance(max_terms=0)


@pytest.mark.parametrize("max_terms", [2.5, math.inf, 1e4])
@pytest.mark.parametrize("alpha", [0.5, math.sqrt(2.0)])
def test_tolerance_refuses_a_non_integer_term_budget(alpha, max_terms):
    # the series index their terms with range(max_terms), so a budget that
    # is not an int is refused where the Tolerance is made, whatever the
    # alpha, and never reaches a series or a fallback to quadrature
    with pytest.raises(OutOfRangeError, match="max_terms"):
        g_any_beta(validate(alpha, 0.3), 0.3, tol=Tolerance(max_terms=max_terms))


def test_eval_result_bound_must_be_finite():
    EvalResult(1.0, 0.0, MethodChoice.SERIES, 3)
    with pytest.raises(OutOfRangeError):
        EvalResult(1.0, -1.0, MethodChoice.SERIES, 3)
    with pytest.raises(OutOfRangeError):
        EvalResult(1.0, math.inf, MethodChoice.SERIES, 3)

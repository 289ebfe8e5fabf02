import math

import pytest

from stablekappa import quadrature as quadrature_module
from stablekappa import (
    ConvergenceFailureError,
    MethodChoice,
    OutOfRangeError,
    Tolerance,
    g_quad,
    gprime_quad,
    validate,
)

from conftest import admissible_rho_grid, g_integral_oracle, gprime_integral_oracle
from oracles import g_mpmath

TIGHT = Tolerance(abs_tol=1e-12)


def test_g_doney_example_closed_form():
    p = validate(0.8, 0.25)
    res = g_quad(p, 0.5, TIGHT)
    closed = math.log(1.0 - 0.5) - math.log(1.0 - 0.5 ** 0.8)
    assert closed == pytest.approx(0.1609887537517336, abs=1e-15)
    assert abs(res.value - closed) < 1e-10
    assert res.method is MethodChoice.QUADRATURE


def test_g_vanishes_continuously_at_zero():
    # g(beta) ~ C beta^alpha near 0 (substitute x = beta u in the integral)
    p = validate(0.7, 0.4)
    values = []
    for beta in (1e-2, 1e-4, 1e-6, 1e-8):
        v = g_quad(p, beta, TIGHT).value
        assert v > 0.0
        values.append(v)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5
    ratio = values[-2] / values[-1]
    assert abs(ratio / 100.0 ** 0.7 - 1.0) < 0.2


def test_g_spectrally_one_sided_log():
    p = validate(1.5, 2.0 / 3.0)
    res = g_quad(p, 0.5, TIGHT)
    assert abs(res.value - math.log(1.5)) < 1e-10


def test_gprime_doney_example_closed_form():
    p = validate(0.8, 0.25)
    res = gprime_quad(p, 0.5, TIGHT)
    b, a = 0.5, 0.8
    closed = -1.0 / (1.0 - b) + a * b ** (a - 1.0) / (1.0 - b ** a)
    assert closed == pytest.approx(0.15894962588596245, abs=1e-13)
    assert abs(res.value - closed) < 1e-10


def test_gprime_spectrally_one_sided():
    p = validate(1.5, 2.0 / 3.0)
    res = gprime_quad(p, 0.5, TIGHT)
    assert abs(res.value - 2.0 / 3.0) < 1e-10


def test_gprime_matches_central_difference():
    h = 1e-5
    for alpha, rho in ((0.8, 0.25), (1.3, 0.6), (math.sqrt(2.0), 0.5)):
        p = validate(alpha, rho)
        for beta in (0.3, 0.8, 1.7):
            d = (g_quad(p, beta + h, TIGHT).value
                 - g_quad(p, beta - h, TIGHT).value) / (2.0 * h)
            assert abs(d - gprime_quad(p, beta, TIGHT).value) < 1e-6


@pytest.mark.parametrize("alpha,rho", [
    (0.4, 0.3), (0.8, 0.25), (1.0, 0.5), (1.5, 1.0 - 1.0 / 1.5),
    (1.5, 2.0 / 3.0), (1.9, 0.51), (2.0, 0.5), (0.3, 0.95), (1.2, 0.2),
])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 3.0])
def test_positivity(alpha, rho, beta):
    p = validate(alpha, rho)
    assert g_quad(p, beta).value > 0.0
    assert gprime_quad(p, beta).value > 0.0


def test_matches_scipy_oracle():
    for alpha, rho, beta in ((0.6, 0.4, 0.35), (1.7, 0.55, 0.8),
                             (math.sqrt(2.0), 0.5, 2.5), (0.9, 0.8, 1.0)):
        p = validate(alpha, rho)
        assert abs(g_quad(p, beta, TIGHT).value
                   - g_integral_oracle(alpha, rho, beta)) < 1e-10
        assert abs(gprime_quad(p, beta, TIGHT).value
                   - gprime_integral_oracle(alpha, rho, beta)) < 1e-10


def test_reflection_identity_direct_integrals():
    for alpha in (math.sqrt(2.0), 0.8):
        for rho in admissible_rho_grid(alpha, 3):
            p = validate(alpha, rho)
            for beta in (1.5, 2.0, 5.0):
                big = g_quad(p, beta, TIGHT)
                small = g_quad(p, 1.0 / beta, TIGHT)
                resid = abs(big.value - small.value
                            - alpha * rho * math.log(beta))
                assert resid <= 1e-10 + big.abs_error_bound + small.abs_error_bound


def test_tolerance_monotonicity():
    p = validate(1.3, 0.45)
    for beta in (0.2, 0.7, 1.0, 2.0):
        loose = g_quad(p, beta, Tolerance(abs_tol=1e-6))
        tight = g_quad(p, beta, Tolerance(abs_tol=1e-11))
        assert tight.abs_error_bound <= loose.abs_error_bound


@pytest.mark.parametrize("alpha,beta,abs_tol", [
    (0.5, 1e-8, 1e-6),
    (0.3, 1e-8, 1e-6),
    (math.sqrt(2.0), 1e-6, 1e-10),
])
def test_bound_holds_decades_below_one(alpha, beta, abs_tol):
    # with only beta and 1 as splits, the error here exceeded the bound
    # (4e-5 against 9e-8 at alpha 0.5); the decade splits between beta and 1
    # keep it within
    res = g_quad(validate(alpha, 0.3), beta, Tolerance(abs_tol=abs_tol))
    want, _ = g_mpmath(alpha, 0.3, beta)
    assert abs(res.value - float(want)) <= res.abs_error_bound


def test_near_singular_rho_band():
    # rho close to 1 puts a sharp peak at x = beta; the band splits handle it
    p = validate(1.05, 0.93)
    res = g_quad(p, 0.6, TIGHT)
    assert abs(res.value - g_integral_oracle(1.05, 0.93, 0.6)) < 1e-9


def test_convergence_failure_raises(monkeypatch):
    monkeypatch.setattr(quadrature_module, "_MAX_REFINEMENTS", 3)
    p = validate(0.8, 0.25)
    with pytest.raises(ConvergenceFailureError, match="after 3 refinements"):
        g_quad(p, 0.5, Tolerance(abs_tol=1e-300))


def test_beta_must_be_positive():
    p = validate(0.8, 0.25)
    with pytest.raises(OutOfRangeError):
        g_quad(p, 0.0)
    with pytest.raises(OutOfRangeError):
        gprime_quad(p, -1.0)

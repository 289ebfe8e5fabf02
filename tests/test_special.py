import math

import pytest

from stablekappa import (
    ConvergenceFailureError,
    OutOfRangeError,
    RationalAlpha,
    Tolerance,
    find_doney_case,
    g_doney,
    g_k_closed,
    g_quad,
    g_series,
    gprime_quad,
    gprime_rational,
    validate,
)

from conftest import gprime_integral_oracle
from oracles import g_k_series, gprime_half_closed, gprime_mpmath

TIGHT = Tolerance(abs_tol=1e-12)
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def test_find_doney_case_examples():
    case = find_doney_case(validate(0.8, 0.25))
    assert (case.k, case.l) == (1, 1)
    case = find_doney_case(validate(2.0, 0.5))
    assert (case.k, case.l) == (1, 3)
    assert find_doney_case(validate(SQRT2, 0.5)) is None


def test_find_doney_case_one_sided():
    case = find_doney_case(validate(1.5, 2.0 / 3.0))
    assert (case.k, case.l) == (2, 4)
    case = find_doney_case(validate(1.25, 0.8))
    assert (case.k, case.l) == (4, 6)


def test_g_k_series_k1_is_log():
    for a in (0.3, 1.2, SQRT2):
        got = g_k_series(a, 0.5, 1, 200)
        assert abs(got + math.log(0.5)) < 1e-12  # -log(1-x)


def test_g_k_series_k0_zero():
    assert g_k_series(0.7, 0.5, 0, 50) == 0.0
    assert g_k_closed(0.7, 0.5, 0) == 0.0


def test_g_k_series_matches_closed():
    got = g_k_series(0.37, 0.5, 2, 200)
    want = g_k_closed(0.37, 0.5, 2)
    assert abs(got - want) < 1e-12


def test_g_k_closed_k2_half():
    x = 0.4
    assert abs(g_k_closed(0.5, x, 2) + math.log(x * x + 1.0)) < 1e-15


def test_g_k_closed_k4_vs_series():
    got = g_k_series(0.21, 0.6, 4, 400)
    want = g_k_closed(0.21, 0.6, 4)
    assert abs(got - want) < 1e-10


def test_g_k_series_error_envelope():
    # truncation error below |x|^(M+1) k / (1 - |x|) since |U_{k-1}| <= k on [-1,1]
    for k in (1, 3, 5, 8):
        for x in (-0.9, 0.5, 0.9):
            for M in (40, 80, 160):
                got = g_k_series(0.37, x, k, M)
                want = g_k_closed(0.37, x, k)
                bound = abs(x) ** (M + 1) * k / (1.0 - abs(x))
                assert abs(got - want) <= bound + 1e-12


def test_g_k_closed_rejects_unit_x():
    with pytest.raises(OutOfRangeError):
        g_k_closed(0.5, 1.0, 1)
    with pytest.raises(OutOfRangeError):
        g_k_closed(0.5, -1.0, 2)


def test_g_doney_example():
    p = validate(0.8, 0.25)
    case = find_doney_case(p)
    got = g_doney(p, 0.5, case)
    want = -math.log(1.0 - 0.5 ** 0.8) + math.log(0.5)
    assert abs(got - want) < 1e-14


def test_g_doney_alpha2_vs_quadrature():
    p = validate(2.0, 0.5)
    case = find_doney_case(p)
    got = g_doney(p, 0.4, case)
    assert abs(got - g_quad(p, 0.4, TIGHT).value) < 1e-9
    assert abs(got - math.log(1.4)) < 1e-13


def test_g_doney_irrational_alpha_vs_series():
    # alpha = sqrt(3) with rho = 2 sqrt(3) - 3 satisfies rho + 3 = 6/alpha
    rho = 2.0 * SQRT3 - 3.0
    p = validate(SQRT3, rho)
    case = find_doney_case(p)
    assert (case.k, case.l) == (3, 6)
    got = g_doney(p, 0.3, case)
    rep = g_series(p, 0.3, Tolerance(abs_tol=1e-11))
    assert abs(got - rep.value) < 1e-8


def test_gprime_rational_half_matches_closed():
    res = gprime_rational(RationalAlpha(1, 2), 0.3, 0.4)
    want = gprime_half_closed(0.3, 0.4)
    assert abs(res.value - want) < 1e-9


def test_gprime_rational_cauchy_vs_quadrature():
    res = gprime_rational(RationalAlpha(1, 1), 0.5, 0.5)
    ref = gprime_quad(validate(1.0, 0.5), 0.5, TIGHT)
    assert abs(res.value - ref.value) < 1e-9


def test_gprime_rational_one_sided_simplification():
    res = gprime_rational(RationalAlpha(3, 2), 2.0 / 3.0, 0.5)
    assert abs(res.value - 2.0 / 3.0) < 1e-10


@pytest.mark.parametrize("p,q,rho,beta", [
    (1, 2, 0.5, 0.25), (2, 1, 0.5, 0.4), (3, 4, 0.5, 0.3),
    (4, 5, 0.25, 0.7), (19, 10, 1.0 / 1.9, 0.5),
])
def test_gprime_rational_vs_scipy_oracle(p, q, rho, beta):
    res = gprime_rational(RationalAlpha(p, q), rho, beta, Tolerance(abs_tol=1e-11))
    want = gprime_integral_oracle(p / q, rho, beta)
    assert abs(res.value - want) < 1e-9


# every alpha kind of the split: both nonresonant families (4/5, 3/10,
# 19/10), the first one empty (1/2, 1), the second one empty (2), and the
# spectrally one-sided endpoint (3/2, rho = 2/3)
@pytest.mark.parametrize("p,q,rho,beta", [
    (4, 5, 0.25, 0.3), (4, 5, 0.3, 0.9), (4, 5, 0.7, 1e-3),
    (3, 10, 0.5, 0.5), (3, 10, 0.9, 0.97), (3, 10, 0.2, 1e-3),
    (1, 2, 0.3, 0.4), (1, 2, 0.7, 0.97), (1, 1, 0.5, 0.5), (1, 1, 0.2, 0.9),
    (3, 2, 2.0 / 3.0, 0.5), (3, 2, 2.0 / 3.0, 0.95), (2, 1, 0.5, 0.4),
    (2, 1, 0.5, 0.97), (19, 10, 0.5, 0.7), (19, 10, 0.5, 0.05),
])
def test_gprime_rational_within_its_bound_of_mpmath(p, q, rho, beta):
    ref, err = gprime_mpmath(p / q, rho, beta)
    assert err < 1e-25
    for abs_tol in (1e-6, 1e-10, 1e-13):
        res = gprime_rational(RationalAlpha(p, q), rho, beta, Tolerance(abs_tol=abs_tol))
        assert abs(res.value - ref) <= res.abs_error_bound, abs_tol


def test_gprime_rational_beta_domain():
    with pytest.raises(ConvergenceFailureError):
        gprime_rational(RationalAlpha(1, 2), 0.5, 1.0)
    with pytest.raises(OutOfRangeError):
        gprime_rational(RationalAlpha(1, 2), 0.5, 0.0)


def test_rational_alpha_validation():
    with pytest.raises(OutOfRangeError):
        RationalAlpha(2, 4)
    with pytest.raises(OutOfRangeError):
        RationalAlpha(5, 2)


def test_gprime_half_closed_cross_checks():
    # same value through the rational series, and through direct quadrature
    got = gprime_half_closed(0.5, 0.25)
    res = gprime_rational(RationalAlpha(1, 2), 0.5, 0.25, Tolerance(abs_tol=1e-13))
    assert abs(got - res.value) < 1e-12
    ref = gprime_quad(validate(0.5, 0.5), 0.25, TIGHT)
    assert abs(got - ref.value) < 1e-9


def test_gprime_half_closed_small_rho_follows_integral():
    # the sin(pi rho) prefactor sends g' to 0 with rho; check against the integral
    got = gprime_half_closed(0.01, 0.4)
    want = gprime_integral_oracle(0.5, 0.01, 0.4)
    assert abs(got - want) < 1e-10
    assert got < 0.05


def test_resonant_terms_match_limit_expression():
    # resonant part of the rational formula, reindexed by m = n p, k = n q,
    # equals sign * beta^(np-1) p (pi rho cos + log(beta) sin)/(pi q) termwise
    p, q, rho, beta = 1, 2, 0.3, 0.4
    for n in range(1, 21):
        sign = -1.0 if (n * (p + q)) % 2 == 0 else 1.0
        term = sign * beta ** (n * p - 1) * p * (
            math.pi * rho * math.cos(n * p * math.pi * rho)
            + math.log(beta) * math.sin(n * p * math.pi * rho)) / (math.pi * q)
        # third-sum piece: alpha log(beta)/pi * (-1)^(n(p+q)) ... with the
        # corrected overall sign, plus fourth-sum piece alpha rho cos(...)
        alpha = p / q
        s3 = -alpha * math.log(beta) / math.pi * (-1.0) ** (n * (p + q)) \
            * beta ** (n * p - 1) * math.sin(rho * n * p * math.pi)
        s4 = -alpha * rho * (-1.0) ** (n * (p + q)) * beta ** (n * p - 1) \
            * math.cos(alpha * rho * n * q * math.pi)
        assert abs((s3 + s4) - term) < 1e-15 * max(1.0, abs(term))


def test_find_doney_case_cache_stays_at_its_bound():
    bound = find_doney_case.cache_info().maxsize
    for i in range(bound + 8):
        find_doney_case(validate(1.0 + SQRT2 / (100.0 + i), 0.5))
    assert find_doney_case.cache_info().currsize == bound

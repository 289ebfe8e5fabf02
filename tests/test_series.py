import math

import pytest
from scipy.integrate import quad

from stablekappa import (
    IllConditionedSeriesError,
    MethodNotApplicableError,
    Tolerance,
    aux_int0b,
    aux_intbinfty,
    g_quad,
    g_series,
    gprime_quad,
    gprime_series,
    kernel_alt_sine,
    kernel_cosecant,
    kernel_geom_sine,
    kernel_poisson,
    validate,
)

TIGHT = Tolerance(abs_tol=1e-12)
SQRT2 = math.sqrt(2.0)


def test_g_series_zero_at_zero():
    rep = g_series(validate(SQRT2, 0.5), 0.0)
    assert rep.value == 0.0
    assert rep.terms_first_series == 0
    assert rep.terms_second_series == 0


def test_g_series_vs_quadrature_sqrt2():
    p = validate(SQRT2, 0.5)
    rep = g_series(p, 0.3, Tolerance(abs_tol=1e-11))
    ref = g_quad(p, 0.3, TIGHT)
    assert abs(rep.value - ref.value) < 1e-9
    assert rep.tail_bound >= 0.0


def test_g_series_requires_irrational():
    with pytest.raises(MethodNotApplicableError):
        g_series(validate(0.5, 0.3), 0.4)


def test_g_series_refuses_ill_conditioned():
    with pytest.raises(IllConditionedSeriesError):
        g_series(validate(0.5 + 1e-12, 0.3), 0.9)


def test_gprime_series_vs_quadrature_sqrt2():
    p = validate(SQRT2, 0.5)
    rep = gprime_series(p, 0.3, Tolerance(abs_tol=1e-11))
    ref = gprime_quad(p, 0.3, TIGHT)
    assert abs(rep.value - ref.value) < 1e-8


def test_gprime_series_small_beta_limit():
    # as beta -> 0+ the value tends to the m = 1 term sin(rho pi)/sin(pi/alpha);
    # the slowest correction is the k = 1 term of the second series, O(beta^(alpha-1))
    p = validate(SQRT2, 0.5)
    want = math.sin(0.5 * math.pi) / math.sin(math.pi / SQRT2)
    prev = math.inf
    for beta in (1e-6, 1e-9, 1e-12):
        diff = abs(gprime_series(p, beta).value - want)
        assert diff < 2.0 * beta ** (SQRT2 - 1.0)
        assert diff < prev
        prev = diff


def test_termwise_derivative_coefficient_relation():
    # the derivative series term at index m is m/beta times the g term
    p = validate(SQRT2, 0.5)
    beta = 0.4
    tol = Tolerance(abs_tol=1e-12, max_terms=100000)
    g_rep = g_series(p, beta, tol)
    d_rep = gprime_series(p, beta, tol)
    h = 1e-7
    diff = (g_series(p, beta + h, tol).value - g_series(p, beta - h, tol).value) / (2 * h)
    assert abs(diff - d_rep.value) < 1e-5
    assert g_rep.terms_first_series > 0


def test_one_sided_termwise_simplification_coefficients():
    # at rho = 1/alpha the first-series ratio sin(rho m pi)/sin(m pi/alpha)
    # is 1 for every non-resonant m, so the sum telescopes to log(1+beta);
    # in floats the two arguments agree to an ulp
    alpha = 1.5
    rho = 1.0 / alpha
    assert rho == 2.0 / 3.0
    for m in (1, 2, 4, 5, 7, 11):  # non-resonant indices (3 does not divide m)
        ratio = math.sin(rho * m * math.pi) / math.sin(m * math.pi / alpha)
        assert abs(ratio - 1.0) < 1e-13 * m


def test_series_endpoint_rho_one_sided_skips_second_series():
    alpha = SQRT2
    p = validate(alpha, 1.0 / alpha)
    rep = g_series(p, 0.5)
    assert rep.terms_second_series == 0
    # the first series then sums (-1)^(m+1) beta^m / m = log(1 + beta)
    assert abs(rep.value - math.log(1.5)) < 1e-9


def test_tail_bound_is_honest():
    p = validate(SQRT2, 0.5)
    for beta in (0.2, 0.5, 0.8):
        loose = g_series(p, beta, Tolerance(abs_tol=1e-8))
        tight = g_series(p, beta, Tolerance(abs_tol=1e-12, max_terms=100000))
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-14


# --- auxiliary integrals ---------------------------------------------------


def test_aux_int0b_closed_form():
    res = aux_int0b(1.0, 0.5)
    want = 0.5 - math.log(1.5)  # antiderivative y - log(1+y)
    assert abs(res.value - want) < 1e-10


def test_aux_int0b_small_b():
    assert aux_int0b(2.0, 1e-8).value < 1e-23


def test_aux_int0b_vs_quadrature():
    v, _ = quad(lambda y: y ** 0.5 / (1.0 + y), 0.0, 0.9,
                epsabs=1e-14, epsrel=1e-14)
    res = aux_int0b(0.5, 0.9, Tolerance(abs_tol=1e-12))
    assert abs(res.value - v) < 1e-10


def test_aux_intbinfty_half_at_one():
    res = aux_intbinfty(0.5, 1.0)
    assert abs(res.value - math.pi / 2.0) < 1e-10


def test_aux_intbinfty_integer_branch():
    res = aux_intbinfty(1.0, 0.5)
    assert abs(res.value - math.log(3.0)) < 1e-10
    res = aux_intbinfty(2.0, 0.5)
    want = 1.0 / 0.5 + math.log(0.5) - math.log(1.5)
    assert abs(res.value - want) < 1e-12


def test_aux_intbinfty_vs_antiderivative():
    # int_b^inf y^(-1/2)/(1+y) dy = 2 (pi/2 - arctan(sqrt b))
    want = 2.0 * (math.pi / 2.0 - math.atan(0.5))
    res = aux_intbinfty(0.5, 0.25, Tolerance(abs_tol=1e-12))
    assert abs(res.value - want) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_aux_intbinfty_branches_meet(n):
    b = 0.5
    base = aux_intbinfty(float(n), b).value
    prev = math.inf
    for eps in (1e-3, 1e-4, 1e-5):
        d = abs(aux_intbinfty(n + eps, b).value - base)
        assert d < prev
        prev = d
    assert prev < 1e-3


# --- identity kernels ------------------------------------------------------


def test_kernel_alt_sine():
    partial, closed = kernel_alt_sine(0.0, 0.4, 100)
    assert (partial, closed) == (0.0, 0.0)
    partial, closed = kernel_alt_sine(1.0, 0.3, 100000)
    assert abs(partial - closed) < 1e-3
    pn, cn = kernel_alt_sine(-1.0, 0.3, 500)
    pp, cp = kernel_alt_sine(1.0, 0.3, 500)
    assert pn == -pp and cn == -cp


def test_kernel_cosecant():
    partial, closed = kernel_cosecant(0.5, 10000)
    assert abs(closed - math.pi) < 1e-15
    assert abs(partial - math.pi) < 1e-7
    partial, closed = kernel_cosecant(1.0 / 3.0, 10000)
    assert abs(closed - 2.0 * math.pi / math.sqrt(3.0)) < 1e-14
    assert abs(partial - closed) < 1e-7
    pn, cn = kernel_cosecant(-0.5, 100)
    pp, cp = kernel_cosecant(0.5, 100)
    assert pn == -pp and cn == -cp


def test_kernel_geom_sine():
    fs, cl = kernel_geom_sine(0.5, 1.0, 7)
    assert abs(fs - cl) < 1e-14
    fs, cl = kernel_geom_sine(0.3, 0.0, 9)
    assert fs == 0.0 and abs(cl) < 1e-15
    fs, cl = kernel_geom_sine(0.9, 2.0, 1)
    assert fs == 0.0 and abs(cl) < 1e-15


def test_kernel_poisson():
    fs, cl = kernel_poisson(0.0, 1.3, 5)
    assert fs == math.sin(1.3) == cl
    fs, cl = kernel_poisson(0.5, 1.0, 60)
    assert abs(fs - cl) < 1e-12
    _, cl = kernel_poisson(0.3, math.pi / 2.0, 40)
    assert abs(cl - 1.0 / 1.09) < 1e-12


def test_kernel_convergence_envelopes():
    # geometric kernels shrink within their remainder envelopes
    for M in (10, 20, 40):
        fs, cl = kernel_poisson(0.5, 1.0, M)
        assert abs(fs - cl) <= 0.5 ** (M + 1) / 0.5 + 1e-15
    prev = math.inf
    for K in (10, 100, 1000, 10000):
        partial, closed = kernel_cosecant(0.5, K)
        err = abs(partial - closed)
        assert err <= 1.0 / ((K + 1) ** 2 - 0.25) + 1e-13
        assert err < prev
        prev = err
    # the oscillatory kernel converges inside a summation-by-parts O(1/M)
    # envelope ~ 1/(2 M sin((z+pi)/2)) (generous factor for the w^2 skew)
    z, w = 1.0, 0.3
    for M in (1000, 10000, 100000):
        partial, closed = kernel_alt_sine(z, w, M)
        envelope = 4.0 / (2.0 * M * abs(math.sin(0.5 * (z + math.pi))))
        assert abs(partial - closed) <= envelope

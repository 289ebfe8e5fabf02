import math

import pytest

from stablekappa import (
    OutOfRangeError,
    Tolerance,
    find_doney_case,
    g_doney,
    g_k_closed,
    g_quad,
    g_series,
    gprime_quad,
    gprime_series,
    validate,
)
from stablekappa.accurate import cos_mpi

from conftest import gprime_integral_oracle
from oracles import _chebyshev_u, g_k_series, g_mpmath, gprime_half_closed, gprime_mpmath

TIGHT = Tolerance(abs_tol=1e-12)
SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _split(p, q, rho, beta, tol=None, derivative=False):
    """g (or g') at alpha = p/q by the series, which splits at p/q:
    (value, abs_error_bound, terms) as the kappa layer reports them."""
    rep = (gprime_series if derivative else g_series)(validate(p / q, rho), beta, tol)
    return (rep.value, rep.tail_bound + rep.noise_bound,
            rep.terms_first_series + rep.terms_second_series)


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


def test_g_k_closed_derivative_matches_its_series():
    # x d/dx g_k(a, x) = sum_m x^m U_{k-1}(cos(m pi a)), whose tail past M
    # is below |x|^(M+1) k / (1 - |x|)
    num, den = (0.37).as_integer_ratio()
    for k in (1, 2, 3, 4, 5, 8):
        for x in (-0.9, -0.3, 0.5, 0.9):
            want = math.fsum(x ** m * _chebyshev_u(cos_mpi(m, num, den), k - 1)
                             for m in range(1, 400))
            assert abs(g_k_closed(0.37, x, k, True) - want) <= 1e-13 * k / (1.0 - abs(x)), (k, x)


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


def test_g_doney_derivative_example():
    # g' at 4/5, rho 1/4: the derivative of -log(1 - beta^0.8) + log(beta)
    p = validate(0.8, 0.25)
    for beta in (1e-6, 0.5, 0.95):
        want = 0.8 * beta ** -0.2 / (1.0 - beta ** 0.8) - 1.0 / (1.0 - beta)
        got = g_doney(p, beta, find_doney_case(p), True)
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want) + 1.0 / (1.0 - beta)), beta


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
    value, _, _ = _split(1, 2, 0.3, 0.4, derivative=True)
    want = gprime_half_closed(0.3, 0.4)
    assert abs(value - want) < 1e-9


def test_gprime_rational_cauchy_vs_quadrature():
    value, _, _ = _split(1, 1, 0.5, 0.5, derivative=True)
    ref = gprime_quad(validate(1.0, 0.5), 0.5, TIGHT)
    assert abs(value - ref.value) < 1e-9


def test_gprime_rational_one_sided_simplification():
    value, _, _ = _split(3, 2, 2.0 / 3.0, 0.5, derivative=True)
    assert abs(value - 2.0 / 3.0) < 1e-10


@pytest.mark.parametrize("p,q,rho,beta", [
    (1, 2, 0.5, 0.25), (2, 1, 0.5, 0.4), (3, 4, 0.5, 0.3),
    (4, 5, 0.25, 0.7), (19, 10, 1.0 / 1.9, 0.5),
])
def test_gprime_rational_vs_scipy_oracle(p, q, rho, beta):
    value, _, _ = _split(p, q, rho, beta, Tolerance(abs_tol=1e-11), derivative=True)
    want = gprime_integral_oracle(p / q, rho, beta)
    assert abs(value - want) < 1e-9


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
        value, bound, _ = _split(p, q, rho, beta, Tolerance(abs_tol=abs_tol),
                                 derivative=True)
        assert abs(value - ref) <= bound, abs_tol


# the points of the g' test above, the points where the split form of g was
# first checked against mpmath, and four points near rho = 1 at small beta
# where adaptive quadrature of g raised ConvergenceFailureError
G_RATIONAL_POINTS = [
    (4, 5, 0.25, 0.3), (4, 5, 0.3, 0.5), (4, 5, 0.3, 0.9), (4, 5, 0.7, 1e-3),
    (3, 10, 0.5, 0.5), (3, 10, 0.9, 0.97), (3, 10, 0.2, 1e-3),
    (1, 2, 0.3, 0.4), (1, 2, 0.7, 0.97), (1, 1, 0.5, 0.5), (1, 1, 0.2, 0.9),
    (3, 2, 2.0 / 3.0, 0.5), (3, 2, 2.0 / 3.0, 0.95), (2, 1, 0.5, 0.4),
    (2, 1, 0.5, 0.97), (19, 10, 0.5, 0.7), (19, 10, 0.5, 0.05),
    (3, 10, 0.99, 1e-8), (3, 10, 0.99, 1e-6), (3, 10, 0.999, 1e-4),
    (1, 2, 0.999, 1e-6),
]


@pytest.mark.parametrize("p,q,rho,beta", G_RATIONAL_POINTS)
def test_g_rational_within_its_bound_of_mpmath(p, q, rho, beta):
    ref, err = g_mpmath(p / q, rho, beta)
    assert err < 1e-25
    for abs_tol in (1e-6, 1e-10, 1e-13):
        value, bound, _ = _split(p, q, rho, beta, Tolerance(abs_tol=abs_tol))
        assert abs(value - ref) <= bound, abs_tol


@pytest.mark.parametrize("p,q,rho,beta", [
    (4, 5, 0.25, 0.3), (4, 5, 0.3, 0.7), (3, 10, 0.5, 0.5), (3, 10, 0.9, 0.3),
    (1, 2, 0.3, 0.4), (1, 1, 0.5, 0.6), (3, 2, 2.0 / 3.0, 0.5), (2, 1, 0.5, 0.4),
    (19, 10, 0.5, 0.7),
])
def test_g_rational_central_difference_matches_gprime_rational(p, q, rho, beta):
    # g is g' integrated term by term, so the five-point central difference
    # of g at h = 1e-3 is g' up to h^4 |g^(5)| / 30 and 18/12 of g's own
    # errors (under 1e-14) over h, together far below 1e-9
    tol, h = Tolerance(abs_tol=1e-14), 1e-3
    g = [_split(p, q, rho, beta + k * h, tol)[0] for k in (-2, -1, 1, 2)]
    slope = (g[0] - 8.0 * g[1] + 8.0 * g[2] - g[3]) / (12.0 * h)
    assert abs(slope - _split(p, q, rho, beta, tol, derivative=True)[0]) < 1e-9


# (p, q, rho, beta, derivative, value, bound, terms) of the rational split
# before it became the delta_1 = 0 case of the paired split series, and
# before the series method took over the rational-alpha evaluators; the
# values of (3, 10, g), (19, 10, g) and (3, 2, g and g') moved by 1-6 ulps,
# each less than its noise bound, when every sum became exactly rounded
RATIONAL_VALUES = [
    (1, 2, 0.3, 0.4, False, "0x1.5ed631783c6b6p-3", "0x1.4a5c76cfe0e48p-36", 47),
    (1, 2, 0.3, 0.4, True, "0x1.34749f197d250p-3", "0x1.48b877180ebf5p-36", 56),
    (4, 5, 0.3, 0.85, False, "0x1.fa1de4d888afbp-3", "0x1.318b2e9f2a39cp-35", 272),
    (4, 5, 0.3, 0.85, True, "0x1.12f0aeea2ce3cp-3", "0x1.09eb0c3d0c5e4p-35", 335),
    (3, 10, 0.5, 0.6, False, "0x1.4abbf266d8767p-2", "0x1.ccf7498e758e6p-36", 178),
    (3, 10, 0.5, 0.6, True, "0x1.dab4fd0c49c98p-4", "0x1.064f555e6d182p-35", 212),
    (19, 10, 0.5, 0.3, False, "0x1.06ba728b9a0f8p-2", "0x1.200e55310bbacp-37", 29),
    (19, 10, 0.5, 0.3, True, "0x1.7bf5f72e2320ep-1", "0x1.812557f0207f1p-37", 34),
    (3, 2, 0.5, 0.9, False, "0x1.1160ffb7147e5p-1", "0x1.36b3401997a3dp-35", 276),
    (3, 2, 0.5, 0.9, True, "0x1.968f1629e6a0bp-2", "0x1.1f1492e9ac97fp-35", 345),
    (1, 1, 0.5, 0.7, False, "0x1.8698d27c6c7abp-2", "0x1.b6d1b02ba3abcp-37", 61),
    (1, 1, 0.5, 0.7, True, "0x1.3e8ff89897875p-2", "0x1.6237bb2217f7dp-37", 73),
]


# the same points stopped at one contour cut, whose tail bound is proven
# for every alpha: (value, bound, terms), each value within the two bounds
# of its value above, with fewer terms; the g' values moved by 11-17 ulps,
# and the bound of (3, 10, g') fell by 2e-7 of itself, when g' began to sum
# at the powers of beta of g and divide by beta once (``series._split``)
CUT_VALUES = {
    (1, 2, 0.3, 0.4, False): ("0x1.5ed63178627c1p-3", "0x1.c8532f54a1c50p-36", 45),
    (1, 2, 0.3, 0.4, True): ("0x1.34749f19a43bap-3", "0x1.a437876b46922p-36", 54),
    (4, 5, 0.3, 0.85, False): ("0x1.fa1de4d8a2296p-3", "0x1.3bcc8c4614cd1p-35", 232),
    (4, 5, 0.3, 0.85, True): ("0x1.12f0aeea5c8cbp-3", "0x1.1c258b0412d5ap-35", 295),
    (3, 10, 0.5, 0.6, False): ("0x1.4abbf26702ff6p-2", "0x1.f81c2ee26efabp-36", 154),
    (3, 10, 0.5, 0.6, True): ("0x1.dab4fd0cad753p-4", "0x1.1d130294cde02p-35", 185),
    (19, 10, 0.5, 0.3, False): ("0x1.06ba728b859d4p-2", "0x1.5443f87acbd87p-36", 27),
    (19, 10, 0.5, 0.3, True): ("0x1.7bf5f72e1d63ep-1", "0x1.f1e99450c8c56p-36", 31),
    (3, 2, 0.5, 0.9, False): ("0x1.1160ffb701eaep-1", "0x1.0edda98bd0832p-35", 243),
    (3, 2, 0.5, 0.9, True): ("0x1.968f1629bea36p-2", "0x1.3a928001f6ec4p-35", 308),
    (1, 1, 0.5, 0.7, False): ("0x1.8698d27c4d90fp-2", "0x1.d3e3721335a36p-36", 56),
    (1, 1, 0.5, 0.7, True): ("0x1.3e8ff89875917p-2", "0x1.055ca2d873e9ep-35", 68),
}


@pytest.mark.parametrize("p,q,rho,beta,derivative,value,bound,terms", RATIONAL_VALUES)
def test_rational_split_values_unchanged(p, q, rho, beta, derivative, value, bound, terms):
    got, got_bound, got_terms = _split(p, q, rho, beta, derivative=derivative)
    assert (got.hex(), got_bound.hex(), got_terms) == CUT_VALUES[p, q, rho, beta, derivative]
    assert abs(got - float.fromhex(value)) <= got_bound + float.fromhex(bound)
    assert got_terms < terms


def test_g_rational_beta_domain():
    # the series needs beta < 1; g(0) = 0
    with pytest.raises(OutOfRangeError):
        g_series(validate(0.5, 0.5), 1.0)
    assert g_series(validate(0.5, 0.5), 0.0).value == 0.0


def test_gprime_rational_beta_domain():
    for beta in (1.0, 0.0):
        with pytest.raises(OutOfRangeError):
            gprime_series(validate(0.5, 0.5), beta)


def test_gprime_half_closed_cross_checks():
    # same value through the rational series, and through direct quadrature
    got = gprime_half_closed(0.5, 0.25)
    value, _, _ = _split(1, 2, 0.5, 0.25, Tolerance(abs_tol=1e-13), derivative=True)
    assert abs(got - value) < 1e-12
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

import math
import sys
import threading

import pytest

from stablekappa import series as series_module

from stablekappa import (
    IllConditionedSeriesError,
    MethodNotApplicableError,
    Tolerance,
    g_quad,
    g_series,
    gprime_quad,
    gprime_series,
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


# ---------------------------------------------------------------------------
# the per-(divisor, numerator) sine tables shared across betas
# ---------------------------------------------------------------------------

TABLE_PARAMS = ((SQRT2, 0.5), (0.5 + SQRT2 / 40.0, 0.5))
TABLE_BETAS = (0.02, 0.07, 0.15, 0.3, 0.42, 0.5, 0.61, 0.75, 0.83, 0.88, 0.9)


def _bits(rep):
    return (rep.value.hex(), rep.tail_bound.hex(), rep.noise_bound.hex(),
            rep.terms_first_series, rep.terms_second_series)


def _cold(params, beta, series):
    series_module._sine_table.cache_clear()
    return _bits(series(params, beta))


@pytest.mark.parametrize("alpha,rho", TABLE_PARAMS)
@pytest.mark.parametrize("series", [g_series, gprime_series])
def test_sine_tables_leave_values_bit_identical(alpha, rho, series):
    p = validate(alpha, rho)
    cold = {beta: _cold(p, beta, series) for beta in TABLE_BETAS}
    # ascending, each sum runs past the table and grows it midway;
    # descending, the first sum builds it and the others only read
    for order in (TABLE_BETAS, TABLE_BETAS[::-1]):
        series_module._sine_table.cache_clear()
        for beta in order:
            assert _bits(series(p, beta)) == cold[beta], (order[0], beta)


def test_sine_table_past_its_length_cap(monkeypatch):
    p = validate(SQRT2, 0.5)
    cold = _cold(p, 0.6, g_series)
    monkeypatch.setattr(series_module, "_SINE_TABLE_TERMS", 5)
    series_module._sine_table.cache_clear()
    assert _bits(g_series(p, 0.6)) == cold
    assert _bits(g_series(p, 0.6)) == cold
    a_num, a_den = SQRT2.as_integer_ratio()
    tables = [series_module._sine_table((a_den, a_num), (1, 2)),
              series_module._sine_table((a_num, a_den), (a_num, 2 * a_den))]
    assert [len(t) for t in tables] == [10, 10]


def test_sine_tables_under_concurrent_growth():
    alpha, rho = TABLE_PARAMS[1]
    p = validate(alpha, rho)
    serial = {(beta, s): _cold(p, beta, s)
              for beta in TABLE_BETAS for s in (g_series, gprime_series)}
    series_module._sine_table.cache_clear()
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        betas = TABLE_BETAS if i % 2 == 0 else TABLE_BETAS[::-1]
        series = g_series if i < 2 else gprime_series
        start.wait()
        results[i] = {(beta, series): _bits(series(p, beta)) for beta in betas}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got and all(serial[key] == bits for key, bits in got.items())


def test_sine_table_cache_stays_at_its_bound():
    bound = series_module._sine_table.cache_info().maxsize
    for i in range(bound):
        g_series(validate(1.0 + SQRT2 / (100.0 + i), 0.5), 0.3)
    assert series_module._sine_table.cache_info().currsize == bound

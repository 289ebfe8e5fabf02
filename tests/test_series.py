import itertools
import math
import sys
import threading

import pytest

from stablekappa import series as series_module

from stablekappa import (
    AlphaKind,
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodNotApplicableError,
    RationalAlpha,
    StableParams,
    Tolerance,
    classify,
    g_quad,
    g_series,
    gprime_quad,
    gprime_rational,
    gprime_series,
    validate,
)
from stablekappa.accurate import sin_pi
from stablekappa.diophantine import AlphaClass, _truncation

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


@pytest.mark.parametrize("alpha,divisor", [(0.5, "sin(1 pi/alpha)"),
                                           (1.5, "sin(3 pi/alpha)")])
def test_vanished_divisor_at_a_forced_irrational_verdict(alpha, divisor):
    # sin(m pi/alpha) is exactly 0 at m = 1 for alpha = 1/2 and at m = 3 for
    # 3/2; the series must refuse rather than skip the index as the
    # rational split does
    aclass = AlphaClass(AlphaKind.IRRATIONAL, exponent_estimate=2.0, floor_constant=0.5)
    with pytest.raises(IllConditionedSeriesError) as err:
        g_series(StableParams(alpha, 0.5), 0.3, aclass=aclass)
    assert str(err.value) == f"divisor {divisor} vanished"


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


def _rational_bits(beta):
    res = gprime_rational(RationalAlpha(4, 5), 0.3, beta)
    return res.value.hex(), res.abs_error_bound.hex(), res.terms_or_nodes_used


def test_sine_tables_under_concurrent_growth():
    # the irrational series, and the rational split's nonresonant sums
    # whose tables hold only the nonresonant indices
    alpha, rho = TABLE_PARAMS[1]
    p = validate(alpha, rho)
    evals = (lambda beta: _bits(g_series(p, beta)),
             lambda beta: _bits(gprime_series(p, beta)), _rational_bits)
    serial = {}
    for k, evaluate in enumerate(evals):
        for beta in TABLE_BETAS:
            series_module._sine_table.cache_clear()
            serial[k, beta] = evaluate(beta)
    series_module._sine_table.cache_clear()
    workers = 2 * len(evals)
    start = threading.Barrier(workers)
    results = [None] * workers

    def worker(i):
        betas = TABLE_BETAS if i % 2 == 0 else TABLE_BETAS[::-1]
        start.wait()
        results[i] = {(i // 2, beta): evals[i // 2](beta) for beta in betas}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for got in results:
        assert got and all(serial[key] == bits for key, bits in got.items())


def test_sine_table_cache_stays_at_its_bound():
    bound = series_module._sine_table.cache_info().maxsize
    for i in range(bound):
        g_series(validate(1.0 + SQRT2 / (100.0 + i), 0.5), 0.3)
    assert series_module._sine_table.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# the stopping index: bisection against the per-term scan it replaced
# ---------------------------------------------------------------------------

def _truncation_scan(beta, step, pre, shift, power, c, half_tol, max_terms):
    """The per-term stopping loop the series ran before the bisection: the
    first m whose model tail bound drops below half_tol, and the last tail
    bound it computed (inf while the bounds' ratio is not below 1)."""
    base = beta ** step
    tail = math.inf
    for m in range(1, max_terms + 1):
        j = m + 1
        nxt = pre * beta ** (step * j - shift) * j ** power / c
        ratio = base * ((j + 1) / j) ** power
        if ratio < 1.0:
            tail = nxt / (1.0 - ratio)
            if tail < half_tol:
                return m, tail
    return None, tail


def _resonant_scan(beta, p, coef, weight, target, max_terms):
    """The per-term stopping test of the rational split's resonant sum
    before it took _truncation's index."""
    base_p = beta ** p
    tail3 = math.inf
    for n in range(1, max_terms + 1):
        np_ = n * p
        tail3 = coef * weight / math.pi * beta ** (np_ + p - 1) / (1.0 - base_p)
        if tail3 < target:
            return n, tail3
    return None, tail3


def _hex(found):
    m, tail = found
    return m, tail.hex()


TRUNCATION_BETAS = (1e-6, 1e-3, 0.05, 0.2, 0.4, 0.6, 0.75, 0.85, 0.9, 0.93, 0.95)
BUDGETS = (1, 50, 10000)


def test_truncation_bisection_matches_the_scan():
    stops = set()
    for step in (1.0, SQRT2, 0.5 + SQRT2 / 40.0):
        for nu in (1.0, 1.355, 1.92, 25.6):
            # g: shift 0, power nu - 1, prefactor 1; g': shift 1, power nu,
            # prefactor step; and the power-0 shape
            shapes = ((1.0, 0.0, nu - 1.0), (step, 1.0, nu), (1.0, 0.0, 0.0))
            for pre, shift, power in shapes:
                for beta in TRUNCATION_BETAS:
                    for c, half_tol, max_terms in itertools.product(
                            (0.5, 3e-7), (5e-11, 5e-14), BUDGETS):
                        args = (beta, step, pre, shift, power, c, half_tol, max_terms)
                        m, tail = _truncation(*args)
                        want_m, want_tail = _truncation_scan(*args)
                        assert (m, tail.hex()) == (want_m, want_tail.hex()), args
                        stops.add(m if m is None else min(m, 2))
    assert stops == {None, 1, 2}
    # the rational split at alpha = p/q: power 0 and the constant floors.
    # The nonresonant families take steps 1 and p/q over sin(pi/p) and
    # sin(pi/q); the resonant sum takes step p, the prefactor
    # (p/q) (pi rho + |log beta|)/pi and floor 1, and its index and tail
    # are the ones of its old per-term test
    stops = set()
    for p, q in ((1, 2), (2, 1), (4, 5), (3, 10), (19, 10)):
        floors = (1.0, sin_pi(1.0 / p), sin_pi(1.0 / q))
        for beta in TRUNCATION_BETAS:
            for target, max_terms in itertools.product((1.25e-11, 1.25e-14), BUDGETS):
                for step, c in itertools.product((1.0, p / q, p), floors):
                    if c > 0.0:
                        args = (beta, step, step, 1.0, 0.0, c, target, max_terms)
                        m, tail = _truncation(*args)
                        assert (m, tail.hex()) == _hex(_truncation_scan(*args)), args
                for rho in (0.1, 0.5, 0.9):
                    coef, weight = p / q, math.pi * rho + abs(math.log(beta))
                    args = (beta, p, coef * weight / math.pi, 1, 0, 1, target, max_terms)
                    m, tail = _truncation(*args)
                    assert (m, tail.hex()) == _hex(_truncation_scan(*args)), args
                    assert (m, tail.hex()) == _hex(_resonant_scan(
                        beta, p, coef, weight, target, max_terms)), args
                    stops.add(m if m is None else min(m, 2))
    assert stops == {None, 1, 2}


def test_truncation_with_a_budget_past_float_range():
    # j**25.6 overflows past j = 1e12 and j**38.9 past 1e8.  Doubling probes
    # no index past twice the stopping one, and an overflowing bound counts
    # as not stopping; bisecting over the whole budget would raise, or find
    # no stop and sum all 10**13 terms
    args = (1e-3, 1.0, 1.0, 0.0, 25.6, 0.5, 5e-11, 10**13)
    assert _truncation(*args) == _truncation_scan(*args)
    args = (1.0 - 1e-8, 1.0, 1.0, 1.0, 38.9, 1e-11, 5e-11, 10**9)
    assert _truncation(*args) == (None, math.inf)
    ill = classify(0.5 + 1e-12, Tolerance(max_terms=10**8), 0.9)
    assert ill.kind is AlphaKind.ILL_CONDITIONED


# ---------------------------------------------------------------------------
# the failure path: value and bound when the term budget runs out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,max_terms,series,value,bound", [
    # the first series fails
    (SQRT2, 50, g_series, "0x1.38c1a96ca9918p-3", "0x1.993d977ca9af0p-2"),
    (SQRT2, 50, gprime_series, "-0x1.5f40536c6d216p-1", "0x1.bf103103b8c2ep+4"),
    # the second fails and reports the first's value plus its partial sum
    (0.5 + SQRT2 / 40.0, 500, g_series, "0x1.7d3bd6c77c50cp-2",
     "0x1.8f17ea4ecb60cp-28"),
    (0.5 + SQRT2 / 40.0, 500, gprime_series, "0x1.29051646e023fp-3",
     "0x1.e1b51c436fcd6p-20"),
])
def test_series_failure_reports_partial_sum_and_tail(alpha, max_terms, series, value,
                                                     bound):
    # classify refuses this budget at beta 0.9, so the verdict is taken at
    # the default tolerance
    aclass = classify(alpha, Tolerance(), 0.9)
    with pytest.raises(ConvergenceFailureError) as err:
        series(validate(alpha, 0.5), 0.9, Tolerance(max_terms=max_terms), aclass=aclass)
    assert (err.value.value.hex(), err.value.error_bound.hex()) == (value, bound)

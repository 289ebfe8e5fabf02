import itertools
import math
import sys
import threading

import mpmath
import pytest
from mpmath import mpf

from stablekappa import series as series_module

from stablekappa import (
    AlphaKind,
    ConvergenceFailureError,
    IllConditionedSeriesError,
    StableParams,
    Tolerance,
    classify,
    g_quad,
    g_series,
    gprime_quad,
    gprime_series,
    validate,
)
from stablekappa.accurate import EPS, sin_pi
from stablekappa.diophantine import AlphaClass, _truncation

from oracles import g_mpmath, gprime_mpmath

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


def test_g_series_splits_at_rational_alpha():
    # at alpha = 1/2 the series runs split at its resonant terms, the value
    # pinned in test_special.RATIONAL_VALUES
    rep = g_series(validate(0.5, 0.3), 0.4)
    assert (rep.value.hex(), (rep.tail_bound + rep.noise_bound).hex(),
            rep.terms_first_series + rep.terms_second_series) == (
        "0x1.5ed631783c6b6p-3", "0x1.4a5c76cfe0e48p-36", 47)


def test_g_series_refuses_ill_conditioned():
    # 1e-12 from 1/2 the pairs fit the default budget but not 50 terms
    p = validate(0.5 + 1e-12, 0.3)
    assert g_series(p, 0.9).terms_first_series > 0
    with pytest.raises(IllConditionedSeriesError):
        g_series(p, 0.9, Tolerance(max_terms=50))


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
    aclass = AlphaClass(AlphaKind.IRRATIONAL, floor_power=1.0, floor_constant=0.5)
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
    tables = [series_module._sine_table((a_den, a_num), (1, 2), a_num),
              series_module._sine_table((a_num, a_den), (a_num, 2 * a_den), a_den)]
    assert [len(t) for t in tables] == [10, 10]


def test_sine_tables_under_concurrent_growth():
    # the irrational series, the split at the rational 4/5, whose
    # nonresonant sums' tables hold only the nonresonant indices, and the
    # paired split's tables of pair factors
    alpha, rho = TABLE_PARAMS[1]
    p = validate(alpha, rho)
    near, rational = validate(1.50000001, 0.5), validate(0.8, 0.3)
    evals = (lambda beta: _bits(g_series(p, beta)),
             lambda beta: _bits(gprime_series(p, beta)),
             lambda beta: _bits(gprime_series(rational, beta)),
             lambda beta: _bits(g_series(near, beta)))
    serial = {}
    for k, evaluate in enumerate(evals):
        for beta in TABLE_BETAS:
            series_module._sine_table.cache_clear()
            series_module._pair_table.cache_clear()
            serial[k, beta] = evaluate(beta)
    series_module._sine_table.cache_clear()
    series_module._pair_table.cache_clear()
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


def test_truncation_of_a_geometric_tail_matches_the_scan():
    # at power 0 the index comes from the tail's logarithm: the shapes of
    # the pairing check (pair prefactors up to 1e3 over floor 1, floors down
    # to 1e-6), and a target of 0, below every tail, which the logarithm
    # cannot take
    stops = set()
    for beta, step, pre, shift, c, target, max_terms in itertools.product(
            (1e-6, 1e-3, 0.05, 0.4, 0.75, 0.9, 0.93, 0.95),
            (1.0, SQRT2, 0.5 + 1e-12, 1.5, 2.0, 0.3), (1.0, 0.3, 1e3), (0.0, 1.0),
            (1.0, 0.5, 0.0153, 1e-6), (1.25e-11, 1.25e-14, 1e-3, 0.0), BUDGETS):
        if target == 0.0 and max_terms > 50:
            continue
        args = (beta, step, pre, shift, 0.0, c, target, max_terms)
        m, tail = _truncation(*args)
        assert (m, tail.hex()) == _hex(_truncation_scan(*args)), args
        stops.add(m if m is None else min(m, 2))
    assert stops == {None, 1, 2}
    # targets on the tails themselves, beta**e: there the rounded logarithm
    # lands on either side of the index, and the neighbours settle it
    for beta, e in itertools.product((0.1, 0.3, 0.7, 0.9), range(1, 300)):
        args = (beta, 1.0, 1.0 - beta, 0.0, 0.0, 1.0, beta ** e, 10000)
        assert _truncation(*args) == _truncation_scan(*args), args


def test_truncation_with_a_budget_past_float_range():
    # j**25.6 overflows past j = 1e12 and j**38.9 past 1e8.  Doubling probes
    # no index past twice the stopping one, and an overflowing bound counts
    # as not stopping; bisecting over the whole budget would raise, or find
    # no stop and sum all 10**13 terms
    args = (1e-3, 1.0, 1.0, 0.0, 25.6, 0.5, 5e-11, 10**13)
    assert _truncation(*args) == _truncation_scan(*args)
    args = (1.0 - 1e-8, 1.0, 1.0, 1.0, 38.9, 1e-11, 5e-11, 10**9)
    assert _truncation(*args) == (None, math.inf)
    # the generic verdict fails, and the pairing at 1/2 takes the budget,
    # whose reach over the pairs is capped, without summing past it
    paired = classify(0.5 + 1e-12, Tolerance(max_terms=10**8), 0.9)
    assert (paired.kind, paired.p, paired.q) == (AlphaKind.IRRATIONAL, 1, 2)


# ---------------------------------------------------------------------------
# the failure path: value and bound when the term budget runs out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha,max_terms,series,value,bound", [
    # the first series fails
    (SQRT2, 50, g_series, "0x1.38c1a96ca9918p-3", "0x1.7bfa3ff650ef9p-4"),
    (SQRT2, 50, gprime_series, "-0x1.5f40536c6d216p-1", "0x1.98884b3ebb350p+2"),
    # the second fails and reports the first's value plus its partial sum
    (0.5 + SQRT2 / 40.0, 500, g_series, "0x1.7d3bd6c77c504p-2",
     "0x1.2cce3e161113bp-31"),
    (0.5 + SQRT2 / 40.0, 500, gprime_series, "0x1.29051646e0200p-3",
     "0x1.6ae30c0c2bdddp-23"),
])
def test_series_failure_reports_partial_sum_and_tail(alpha, max_terms, series, value,
                                                     bound):
    # classify refuses this budget at beta 0.9, so the verdict is taken at
    # the default tolerance
    aclass = classify(alpha, Tolerance(), 0.9)
    with pytest.raises(ConvergenceFailureError) as err:
        series(validate(alpha, 0.5), 0.9, Tolerance(max_terms=max_terms), aclass=aclass)
    assert (err.value.value.hex(), err.value.error_bound.hex()) == (value, bound)


def test_truncation_tail_bounds_the_rest_at_negative_power():
    # g at rational alpha: the nonresonant bounds fall like beta^(step j) / j
    # and the resonant ones like beta^(p j) / j, whose ratio climbs toward
    # beta^step; the tail must still bound the sum of every later bound
    for step in (1.0, 0.3, 3.0):
        for beta in (1e-3, 0.2, 0.9, 0.99):
            for target in (1e-6, 1e-13):
                stop, tail = _truncation(beta, step, 1.0, 0.0, -1.0, 1.0, target, 10**6)
                rest, j, bound = 0.0, stop + 1, math.inf
                while bound > 1e-30 * tail:
                    bound = beta ** (step * j) / j
                    rest += bound
                    j += 1
                assert rest <= tail < target, (step, beta, target)


# ---------------------------------------------------------------------------
# near a resonance: the pairs of the split series
# ---------------------------------------------------------------------------

# alpha, its pairing convergent p/q; 1/2 + 1e-6 terminates at a denominator
# under the rational cap, so classify calls it Rational(500001, 1000000)
PAIRED_ALPHAS = ((1.0000001, 1, 1), (1.50000001, 3, 2), (0.500000000001, 1, 2),
                 (0.5 + 1e-6, 1, 2))


def _two_terms(alpha, p, q, rho, beta, n, derivative):
    """The first family's term m = n p plus the second's k = n q, at 50
    digits from the exact values of the floats."""
    with mpmath.workdps(50):
        a, r, b = mpf(alpha), mpf(rho), mpf(beta)
        m, k = n * p, n * q
        if derivative:
            first = (-1) ** (m + 1) * b ** (m - 1) * mpmath.sinpi(r * m) / mpmath.sinpi(m / a)
            second = ((-1) ** (k + 1) * a * b ** (a * k - 1) * mpmath.sinpi(r * a * k)
                      / mpmath.sinpi(a * k))
        else:
            first = (-1) ** (m + 1) * b ** m * mpmath.sinpi(r * m) / (m * mpmath.sinpi(m / a))
            second = ((-1) ** (k + 1) * b ** (a * k) * mpmath.sinpi(r * a * k)
                      / (k * mpmath.sinpi(a * k)))
        return first + second, abs(first)


@pytest.mark.parametrize("derivative", [False, True])
def test_pair_matches_the_two_terms_it_replaces(derivative):
    # the two terms are each about 1/delta; their sum, evaluated without a
    # difference quotient, is good to a few ulps of the pair's own scale for
    # every |delta| up to the reach of the pair bound, half a period
    deg, shift = (0, 1) if derivative else (1, 0)
    for alpha, p, q in PAIRED_ALPHAS + ((0.5 + 0.01 * math.pi, 1, 2), (1.2, 1, 1)):
        ratio = alpha.as_integer_ratio()
        delta1 = (ratio[0] * q - p * ratio[1]) / ratio[1]
        rho = 0.3
        for beta in (0.05, 0.5, 0.9):
            ns = range(1, min(40, int(0.5 * min(alpha, 1.0) / abs(delta1))) + 1)
            factors = iter(list(series_module._pair_factors(
                ns, ratio, p, q, rho.as_integer_ratio(), deg)))
            for n, x, y in zip(ns, factors, factors):
                delta = n * delta1
                got = beta ** (n * p - shift) * (
                    math.expm1(delta * math.log(beta)) / delta * x + y)
                want, single = _two_terms(alpha, p, q, rho, beta, n, derivative)
                scale = abs(got) + beta ** (n * p - shift) * (1.0 + abs(math.log(beta)))
                assert abs(got - want) <= 64 * EPS * scale, (alpha, beta, n, single)


def test_paired_series_refuses_an_unproven_floor():
    # the series checks the proven floor at its own stopping indices: at
    # beta 0.85 the first nonresonant sum would stop past the last index
    # where 1/3 less the drift keeps half of sin(pi/3)
    p = validate(1.5 + 1e-3 * math.pi, 0.5)
    paired = AlphaClass(AlphaKind.IRRATIONAL, p=3, q=2)
    tol = Tolerance(abs_tol=1e-13)
    assert g_series(p, 0.75, tol, paired).terms_second_series > 0
    with pytest.raises(IllConditionedSeriesError, match="first nonresonant sum: divisor floor"):
        g_series(p, 0.85, tol, paired)
    # and the pairs' own stop: 9.4e-4 above 1/2 (delta_1 = 1.9e-3) the pair
    # bound covers |delta| up to a quarter, and at beta 0.9 the pairs would
    # run to |delta| = 0.40
    p = validate(0.5 + 3e-4 * math.pi, 0.3)
    paired = AlphaClass(AlphaKind.IRRATIONAL, p=1, q=2)
    assert g_series(p, 0.8, aclass=paired).terms_first_series > 0
    with pytest.raises(IllConditionedSeriesError, match="past the bounded reach"):
        g_series(p, 0.9, aclass=paired)
    # where the pairs do not converge within the term budget, the budget's
    # last pair is held to the reach before any sum runs: at 1.2 paired at
    # 1/1 five pairs reach |delta| = 1, past half a period
    p = validate(1.2, 0.5)
    paired = AlphaClass(AlphaKind.IRRATIONAL, p=1, q=1)
    for series in (g_series, gprime_series):
        with pytest.raises(IllConditionedSeriesError, match="past the bounded reach"):
            series(p, 0.9, Tolerance(max_terms=5), paired)


@pytest.mark.parametrize("alpha,p,q", PAIRED_ALPHAS)
@pytest.mark.parametrize("series,oracle", [(g_series, g_mpmath),
                                           (gprime_series, gprime_mpmath)])
def test_paired_series_within_its_bound_of_mpmath(alpha, p, q, series, oracle):
    if alpha != 0.5 + 1e-6:
        assert (classify(alpha, beta=0.9).p, classify(alpha, beta=0.9).q) == (p, q)
    paired = AlphaClass(AlphaKind.IRRATIONAL, p=p, q=q)
    for rho in (0.3, 0.5, 0.9):
        if not 1.0 - 1.0 / alpha <= rho <= 1.0 / alpha:
            continue  # at 3/2 only 0.5 is admissible
        for beta in (1e-8, 0.01, 0.5, 0.94):
            rep = series(validate(alpha, rho), beta, aclass=paired)
            ref, err = oracle(alpha, rho, beta)
            assert err < 1e-25
            assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (rho, beta)


@pytest.mark.parametrize("series,oracle", [(g_series, g_mpmath),
                                           (gprime_series, gprime_mpmath)])
def test_dispatched_series_within_its_bound_of_mpmath(series, oracle):
    # the verdict classify gives, generic or paired, at generic alphas and
    # near 1/2 and 3/2: every value the series returns lies within its
    # tail and noise bounds of the 30-digit integral
    kinds = set()
    for alpha in (SQRT2, math.pi / 2.0, math.sqrt(3.0), math.e / 2.0,
                  0.5 + SQRT2 / 40.0, 1.5 - 1e-4 * math.pi, 1.50000001):
        for beta in (1e-4, 0.3, 0.8, 0.94):
            ref, _ = oracle(alpha, 0.5, beta)
            for tol in (Tolerance(), Tolerance(abs_tol=1e-13)):
                aclass = classify(alpha, tol, beta)
                if aclass.kind is AlphaKind.ILL_CONDITIONED:
                    continue
                kinds.add(aclass.p is not None)
                rep = series(validate(alpha, 0.5), beta, tol, aclass)
                assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (
                    alpha, beta, tol)
    assert kinds == {False, True}

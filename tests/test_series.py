import itertools
import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from stablekappa import diophantine as diophantine_module
from stablekappa import series as series_module

from stablekappa import (
    AlphaKind,
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodChoice,
    Tolerance,
    classify,
    g_any_beta,
    g_quad,
    g_series,
    gprime_any_beta,
    gprime_quad,
    gprime_series,
    validate,
)
from stablekappa.accurate import EPS, sin_mpi, sin_pi
from stablekappa.diophantine import AlphaClass, _profile, _truncation
from stablekappa.series import SeriesReport, _generic, _split, _stop

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


def test_one_sided_endpoint_bounds_the_second_series_it_leaves_out():
    # 1e-7 above 1 at rho = 1/alpha, rho alpha is 1 within 4 eps but not
    # exactly, and the divisors sin(k pi alpha) are as small as 3e-7: the
    # second series, left out, still adds up to 8e-11 to g', and its bound
    # joins the tail bound.  At tol 1e-8 the series decides on the generic
    # sum for g and g' (at the default tolerance g' pairs at 1/1 instead)
    alpha, tol = 1.0000001, Tolerance(abs_tol=1e-8)
    params, profile = validate(alpha, 1.0 / alpha), classify(alpha)
    for beta in (1.2e-6, 0.012, 0.5):
        for series, oracle in ((g_series, g_mpmath), (gprime_series, gprime_mpmath)):
            rep = series(params, beta, tol)
            assert rep == _generic(alpha, 1.0 / alpha, beta, tol, profile,
                                   series is gprime_series)
            assert rep.terms_second_series == 0
            ref, err = oracle(alpha, 1.0 / alpha, beta)
            assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound + err, (beta, series)


@pytest.mark.parametrize("alpha,divisor", [(0.5, "sin(1 pi/alpha)"),
                                           (1.5, "sin(3 pi/alpha)")])
def test_vanished_divisor_at_a_forced_irrational_verdict(alpha, divisor):
    # sin(m pi/alpha) is exactly 0 at m = 1 for alpha = 1/2 and at m = 3 for
    # 3/2; the generic sum, given an irrational floor model there, must
    # refuse rather than skip the index as the rational split does
    aclass = AlphaClass(AlphaKind.IRRATIONAL, floor_power=1.0, floor_constant=0.5)
    with pytest.raises(IllConditionedSeriesError) as err:
        _generic(alpha, 0.5, 0.3, Tolerance(), aclass, False)
    assert str(err.value) == f"divisor {divisor} vanished"


def test_tail_bound_is_honest():
    p = validate(SQRT2, 0.5)
    for beta in (0.2, 0.5, 0.8):
        loose = g_series(p, beta, Tolerance(abs_tol=1e-8))
        tight = g_series(p, beta, Tolerance(abs_tol=1e-12, max_terms=100000))
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-14


# ---------------------------------------------------------------------------
# the beta-free tables shared across betas: the divisor families' sines and
# terms, and the split plans' pair tables (at delta = 0 for the rational 3/10)
# ---------------------------------------------------------------------------

TABLE_PARAMS = ((SQRT2, 0.5), (0.5 + SQRT2 / 40.0, 0.5), (0.3, 0.5))
TABLE_BETAS = (0.02, 0.07, 0.15, 0.3, 0.42, 0.5, 0.61, 0.75, 0.83, 0.88, 0.9)


def _bits(rep):
    return (rep.value.hex(), rep.tail_bound.hex(), rep.noise_bound.hex(),
            rep.terms_first_series, rep.terms_second_series)


def _clear_tables():
    series_module._plan.cache_clear()
    series_module._family.cache_clear()


def _cold(params, beta, series):
    _clear_tables()
    return _bits(series(params, beta))


def _tables(family_or_plan):
    """Every table of a family or a split plan, each a tuple of columns."""
    if isinstance(family_or_plan, series_module._Plan):
        return (family_or_plan.pairs,) + tuple(
            table for family in family_or_plan.families for table in _tables(family))
    return (family_or_plan.sines,) + family_or_plan.tables


@pytest.mark.parametrize("alpha,rho", TABLE_PARAMS)
@pytest.mark.parametrize("series", [g_series, gprime_series])
def test_sine_tables_leave_values_bit_identical(alpha, rho, series):
    p = validate(alpha, rho)
    cold = {beta: _cold(p, beta, series) for beta in TABLE_BETAS}
    # ascending, each sum runs past the table and grows it midway;
    # descending, the first sum builds it and the others only read
    for order in (TABLE_BETAS, TABLE_BETAS[::-1]):
        _clear_tables()
        for beta in order:
            assert _bits(series(p, beta)) == cold[beta], (order[0], beta)


def test_sine_table_past_its_length_cap(monkeypatch):
    p, rational = validate(SQRT2, 0.5), validate(0.3, 0.5)
    cold = _cold(p, 0.6, g_series), _cold(rational, 0.6, g_series)
    monkeypatch.setattr(series_module, "_TABLE_TERMS", 5)
    _clear_tables()
    for _ in range(2):
        assert (_bits(g_series(p, 0.6)), _bits(g_series(rational, 0.6))) == cold
    # every column of a table that was filled holds _TABLE_TERMS rows: a
    # generic family's two sines and g's exponents and coefficients; the
    # rational plan's pairs (exponent, X_n, Y_n) and the same two tables for
    # each of its nonresonant families; g' left its tables empty
    a_num, a_den = SQRT2.as_integer_ratio()
    generic = (series_module._family(1.0, a_den, a_num, 1, 2, a_num),
               series_module._family(SQRT2, a_num, a_den, a_num, 2 * a_den, a_den))
    plan = series_module._plan(3, 10, 3, 10, 0.5, False, 1e-10, 10000)
    for owner in generic + (plan,):
        filled = [table for table in _tables(owner) if len(table[-1])]
        assert [len(column) for table in filled for column in table] == [5] * (
            sum(map(len, filled)))
        assert len(filled) == (5 if owner is plan else 2)


def test_sine_tables_under_concurrent_growth():
    # the irrational series, the split at the rational 4/5, whose
    # nonresonant families' tables hold only the nonresonant indices, and the
    # paired split's pair tables
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
            _clear_tables()
            serial[k, beta] = evaluate(beta)
    _clear_tables()
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
    # every table grew by whole rows: its columns are of one length
    plans = [series_module._plan(*ratio, p_, q_, rho_, derivative, 1e-10, 10000)
             for ratio, p_, q_, rho_, derivative in (
                 ((4, 5), 4, 5, 0.3, True), (1.50000001.as_integer_ratio(), 3, 2, 0.5, False))]
    assert all(len(plan.pairs[-1]) for plan in plans)
    for owner in plans:
        for table in _tables(owner):
            assert len({len(column) for column in table}) == 1


def test_sine_table_cache_stays_at_its_bound():
    # generic families at new alphas, and split plans at new rationals
    # 1 + 1/(60 + i), each with its own two families
    for cache in (series_module._family, series_module._plan):
        assert cache.cache_info().maxsize == series_module._TABLES
    bound = series_module._TABLES
    for i in range(bound + 8):
        g_series(validate(1.0 + SQRT2 / (100.0 + i), 0.5), 0.3)
        gprime_series(validate(1.0 + 1.0 / (60.0 + i), 0.5), 0.3)
    for cache in (series_module._family, series_module._plan):
        assert cache.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# the stopping index: the tail's root, and doubling and bisection where it
# is out of reach, against the per-term scan they replaced
# ---------------------------------------------------------------------------

def _truncation_scan(beta, step, pre, shift, power, c, half_tol, max_terms):
    """The per-term stopping loop the series ran before the bisection: the
    first m whose model tail bound drops below half_tol, and the last tail
    bound it computed (inf while the bounds' ratio is not below 1).  The
    ratio of consecutive bounds takes the index power only where it is
    positive: a negative one makes the ratios climb toward beta**step."""
    base = beta ** step
    tail = math.inf
    for m in range(1, max_terms + 1):
        j = m + 1
        nxt = pre * beta ** (step * j - shift) * j ** power / c
        ratio = base * ((j + 1) / j) ** max(power, 0)
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


def _tail_evaluations(args):
    """_truncation(*args) and the number of tail bounds it evaluated,
    counted as calls of its ``tail``."""
    calls, outer = 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "tail":
            calls += 1

    sys.setprofile(profile)
    try:
        found = _truncation(*args)
    finally:
        sys.setprofile(outer)
    return found, calls


def test_truncation_from_the_tail_root_matches_the_scan():
    # the index is read off the root of the tail's logarithm, by Newton's
    # method from the power-0 root at power < 0, and settled by the tail
    # itself: every power of the series' bounds (nu - 1 and nu of the
    # convergent floors, -1 of g at rational alpha, and 0.0027, whose pole
    # would overflow a plain expm1) at every beta band.  The settling walk
    # evaluates at most two tails per stop, where doubling and bisection
    # took up to 25 at power -1
    stops, rooted, most = set(), set(), 0
    for power, beta in itertools.product(
            (-1.0, 0.0, 0.0027, 0.5, 1.0, 1.499, 1.841, 7.98, 22.92),
            (1e-6, 1e-4, 0.1, 0.5, 0.9, 0.95)):
        for step, pre, shift in ((1.0, 1.0, 0.0), (SQRT2, SQRT2, 1.0), (0.3, 1e3, 1.0)):
            for c, half_tol, max_terms in itertools.product(
                    (0.5, 3e-7), (5e-11, 5e-14), BUDGETS):
                args = (beta, step, pre, shift, power, c, half_tol, max_terms)
                found, calls = _tail_evaluations(args)
                assert _hex(found) == _hex(_truncation_scan(*args)), args
                m = found[0]
                stops.add(m if m is None else min(m, 2))
                most = max(most, calls)
                if m is not None and m > 1:
                    rooted.add(power)
    assert stops == {None, 1, 2}
    assert rooted == {-1.0, 0.0, 0.0027, 0.5, 1.0, 1.499, 1.841, 7.98, 22.92}
    assert most == 2


def test_truncation_with_a_budget_past_float_range():
    # j**25.6 overflows past j = 1e12 and j**38.9 past 1e8.  The tail's root
    # lies at the stopping index, doubling probes no index past twice it, and
    # an overflowing bound counts as not stopping; bisecting over the whole
    # budget would raise, or find no stop and sum all 10**13 terms
    args = (1e-3, 1.0, 1.0, 0.0, 25.6, 0.5, 5e-11, 10**13)
    assert _truncation(*args) == _truncation_scan(*args)
    args = (1.0 - 1e-8, 1.0, 1.0, 1.0, 38.9, 1e-11, 5e-11, 10**9)
    assert _truncation(*args) == (None, math.inf)
    # the generic sum fails, and the pairing at 1/2 takes the budget, whose
    # reach over the pairs is capped, without summing past it
    params = validate(0.5 + 1e-12, 0.5)
    paired = gprime_series(params, 0.9, Tolerance(max_terms=10**8))
    assert paired == _paired(params, 1, 2, 0.9, Tolerance(max_terms=10**8), True)
    assert (paired.terms_first_series, paired.terms_second_series) == (248, 267)


# ---------------------------------------------------------------------------
# the failure path: value and bound when the term budget runs out
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_terms,series,message,value,bound", [
    # the first nonresonant sum fails
    (50, g_series, "first", "-0x1.bb252f1022bedp-1", "0x1.134cf1880d47dp-10"),
    (50, gprime_series, "first", "-0x1.0f5b385c98c05p-2", "0x1.e782ebb6422f1p-5"),
    # the second fails and reports the first's value plus its partial sum
    (500, g_series, "second", "0x1.53e81adb99f86p-2", "0x1.d90988b338525p-26"),
    (500, gprime_series, "second", "0x1.36012dfd467a0p-6", "0x1.3495382ce9bdcp-18"),
])
def test_series_failure_reports_partial_sum_and_tail(max_terms, series, message, value,
                                                     bound):
    # the split at the rational 3/10 refuses a budget only after it sums: at
    # beta 0.9 its first family needs about 200 terms and its second about
    # 660.  A generic or paired sum refuses a short budget before it sums
    with pytest.raises(ConvergenceFailureError,
                       match=f"^{message} nonresonant sum: tail bound") as err:
        series(validate(0.3, 0.5), 0.9, Tolerance(max_terms=max_terms))
    assert (err.value.value.hex(), err.value.error_bound.hex()) == (value, bound)


def _divisor_terms(beta, step, div, num, derivative, count, skip):
    """The first count float terms of a divisor series over the indices skip
    (if any) does not divide: beta**(step m - shift) times the coefficient
    (-1)**(m+1) pre sin(m pi num) / (m**deg sin(m pi div))."""
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    ms = itertools.islice((m for m in itertools.count(1) if skip is None or m % skip), count)
    return [beta ** (step * m - shift)
            * ((pre if m % 2 else -pre) * sin_mpi(m, *num) / (m ** deg * sin_mpi(m, *div)))
            for m in ms]


def _exactly_rounded(terms):
    return float(sum(map(Fraction, terms), Fraction(0)))


@pytest.mark.parametrize("alpha", [0.5 + SQRT2 / 40.0, math.pi / 2.0, 0.3])
@pytest.mark.parametrize("series", [g_series, gprime_series])
def test_each_family_is_the_exactly_rounded_sum_of_its_terms(alpha, series, monkeypatch):
    # at beta 0.95 the families run to hundreds or thousands of terms; each
    # sum the series takes is recorded, checked term for term against the
    # family rebuilt here, and its value against the exact rational sum.
    # the series decides on the generic sum at the irrational alphas, and
    # splits at the rational 3/10, whose profile names p and q
    beta, rho = 0.95, 0.5
    derivative = series is gprime_series
    aclass = classify(alpha)
    sums, fsum = [], math.fsum

    def recorded(terms):
        terms = list(terms)
        sums.append((terms, fsum(terms)))
        return sums[-1][1]

    monkeypatch.setattr(math, "fsum", recorded)
    rep = series(validate(alpha, rho), beta)
    monkeypatch.undo()
    a_num, a_den = (aclass.p, aclass.q) if aclass.p else alpha.as_integer_ratio()
    r_num, r_den = rho.as_integer_ratio()
    skips = (aclass.p, aclass.q) if aclass.p else (None, None)
    families = ((1.0, (a_den, a_num), (r_num, r_den)),
                (alpha, (a_num, a_den), (r_num * a_num, r_den * a_den)))
    want = [_divisor_terms(beta, step, div, num, derivative, len(terms), skip)
            for (step, div, num), skip, (terms, _) in zip(families, skips, sums)]
    if aclass.p:
        # the pairs at rational alpha: beta**(N - shift) (X log beta + Y)
        shift, deg = (1, 0) if derivative else (0, 1)
        ns = range(1, len(sums[2][0]) + 1)
        factors = iter(list(series_module._pair_factors(
            ns, (a_num, a_den), a_num, a_den, (r_num, r_den), deg)))
        want.append([beta ** (n * a_num - shift) * (math.log(beta) * x + y)
                     for n, x, y in zip(ns, factors, factors)])
    assert [terms for terms, _ in sums] == want
    assert min(map(len, want)) > 100
    assert all(value == _exactly_rounded(terms) for terms, value in sums)
    first, second, *pairs = (value for _, value in sums)
    assert rep.value == (first + second + pairs[0] if pairs else first + second)


def test_rational_split_refuses_a_missed_tolerance():
    # 1e-6 above 1/2 the float's expansion terminates under the rational
    # cap, at 500001/1000000: the split's floors sin(pi/1e6) and
    # sin(pi/500001) bring its noise, which no projection budgets, above the
    # tolerance, so it refuses after it sums and the plan runs quadrature
    alpha, rho, beta, tol = 0.5 + 1e-6, 0.3, 0.9, Tolerance()
    params = validate(alpha, rho)
    aclass = classify(alpha)
    assert (aclass.kind, aclass.p, aclass.q) == (AlphaKind.RATIONAL, 500001, 1000000)
    with pytest.raises(IllConditionedSeriesError, match="above the tolerance"):
        g_series(params, beta, tol)
    res = g_any_beta(params, beta, tol=tol)
    ref, err = g_mpmath(alpha, rho, beta)
    assert err < 1e-25
    assert res.abs_error_bound <= tol.abs_tol
    assert abs(res.value - ref) <= res.abs_error_bound


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


def _resonant_term(p, q, rho, beta, n, derivative):
    """The limit s alpha H'(N)/pi of pair n at alpha = p/q, N = n p, over
    beta^(N - shift), at 50 digits, H' by numerical differentiation."""
    deg = 0 if derivative else 1
    with mpmath.workdps(50):
        r, b = mpf(rho), mpf(beta)
        h = lambda x: b ** (x - n * p) * mpmath.sinpi(r * x) / x ** deg  # noqa: E731
        sign = (-1) ** (n * (p + q) + 1)
        return sign * mpf(p) / q * mpmath.diff(h, n * p) / mpmath.pi


@pytest.mark.parametrize("derivative", [False, True])
def test_pair_at_delta_zero_is_the_resonant_term(derivative):
    # at rational alpha = p/q the pair factors are the delta -> 0 limit:
    # pair n is beta^(N - shift) (X_n log beta + Y_n), compared here without
    # its power of beta, which underflows at large N
    deg = 0 if derivative else 1
    for p, q, rho in ((1, 2, 0.3), (3, 10, 0.5), (19, 10, 0.5), (1, 1, 0.5)):
        ns = range(1, 41)
        factors = list(series_module._pair_factors(
            ns, (p, q), p, q, rho.as_integer_ratio(), deg))
        for beta in (0.05, 0.5, 0.9):
            log_beta = math.log(beta)
            for n, x, y in zip(ns, factors[::2], factors[1::2]):
                got = x * log_beta + y
                want = _resonant_term(p, q, rho, beta, n, derivative)
                scale = (1.0 + abs(log_beta)) / (n * p) ** deg
                assert abs(got - want) <= 2 * EPS * scale, (p, q, beta, n)


def _paired(params, p, q, beta, tol=None, derivative=False):
    """The series split at p/q, called directly: the pairing whether or
    not the series would decide on it."""
    tol = tol or Tolerance()
    plan = series_module._plan(*params.alpha.as_integer_ratio(), p, q, params.rho, derivative,
                               tol.abs_tol, tol.max_terms)
    return SeriesReport(*_split(plan, beta))


def test_paired_series_refuses_an_unproven_floor():
    # the series checks the proven floor at its own stopping indices: 3.1e-3
    # above 3/2 it pairs at 3/2, and at beta 0.85 the first nonresonant sum
    # would stop past the last index where 1/3 less the drift keeps half of
    # sin(pi/3)
    p = validate(1.5 + 1e-3 * math.pi, 0.5)
    tol = Tolerance(abs_tol=1e-13)
    assert g_series(p, 0.75, tol) == _paired(p, 3, 2, 0.75, tol)
    assert g_series(p, 0.75, tol).terms_second_series > 0
    with pytest.raises(IllConditionedSeriesError, match="first nonresonant sum: divisor floor"):
        g_series(p, 0.85, tol)
    # and the pairs' own stop, where the series sums generically and the
    # split is called directly: 9.4e-4 above 1/2 (delta_1 = 1.9e-3) the pair
    # bound covers |delta| up to a quarter, and at beta 0.9 the pairs would
    # run to |delta| = 0.40
    p = validate(0.5 + 3e-4 * math.pi, 0.3)
    assert _paired(p, 1, 2, 0.8).terms_first_series > 0
    with pytest.raises(IllConditionedSeriesError, match="past the bounded reach"):
        _paired(p, 1, 2, 0.9)
    # where the pairs do not converge within the term budget, the budget's
    # last pair is held to the reach before any sum runs: at 1.2 paired at
    # 1/1 five pairs reach |delta| = 1, past half a period
    p = validate(1.2, 0.5)
    for derivative in (False, True):
        with pytest.raises(IllConditionedSeriesError, match="past the bounded reach"):
            _paired(p, 1, 1, 0.9, Tolerance(max_terms=5), derivative)


@pytest.mark.parametrize("alpha,p,q", PAIRED_ALPHAS)
@pytest.mark.parametrize("series,oracle", [(g_series, g_mpmath),
                                           (gprime_series, gprime_mpmath)])
def test_paired_series_within_its_bound_of_mpmath(alpha, p, q, series, oracle):
    # the split at the pairing convergent, called directly at every beta,
    # and 1e-6 above 1/2 at 1/2 where the series splits at 500001/1000000
    if alpha != 0.5 + 1e-6:
        assert _profile(alpha)[1] == (p, q)
    for rho in (0.3, 0.5, 0.9):
        if not 1.0 - 1.0 / alpha <= rho <= 1.0 / alpha:
            continue  # at 3/2 only 0.5 is admissible
        for beta in (1e-8, 0.01, 0.5, 0.94):
            rep = _paired(validate(alpha, rho), p, q, beta, derivative=series is gprime_series)
            ref, err = oracle(alpha, rho, beta)
            assert err < 1e-25
            assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (rho, beta)


@pytest.mark.parametrize("series,oracle", [(g_series, g_mpmath),
                                           (gprime_series, gprime_mpmath)])
def test_dispatched_series_within_its_bound_of_mpmath(series, oracle):
    # the form the series decides on, generic or paired, at generic alphas
    # and near 1/2 and 3/2: every value the series returns lies within its
    # tail and noise bounds of the 30-digit integral
    kinds = set()
    derivative = series is gprime_series
    for alpha in (SQRT2, math.pi / 2.0, math.sqrt(3.0), math.e / 2.0,
                  0.5 + SQRT2 / 40.0, 1.5 - 1e-4 * math.pi, 1.50000001):
        profile = classify(alpha)
        for beta in (1e-4, 0.3, 0.8, 0.94):
            ref, _ = oracle(alpha, 0.5, beta)
            for tol in (Tolerance(), Tolerance(abs_tol=1e-13)):
                try:
                    rep = series(validate(alpha, 0.5), beta, tol)
                except IllConditionedSeriesError:
                    continue
                kinds.add(rep == _generic(alpha, 0.5, beta, tol, profile, derivative))
                assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (
                    alpha, beta, tol)
    assert kinds == {False, True}


# ---------------------------------------------------------------------------
# the conditioning the series decides itself, from the stops it sums to
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, counts", [(SQRT2, {2}), (0.5 + SQRT2 / 40.0, {2}),
                                           (1.50000001, {3, 4}), (1.0000001, {1})])
def test_dispatch_computes_each_stopping_index_once(alpha, counts, monkeypatch):
    # the generic families' two stops; near 3/2 the generic sum refuses at
    # its first family's stop, or before it, and the split takes three; 1e-7
    # above 1 the first term bound's noise refuses it before any stop, and
    # the split at 1/1 sums only its pairs: nothing else asks for a stop
    calls = []

    def counted(*args):
        calls.append(args)
        return _truncation(*args)

    for module in (diophantine_module, series_module):
        monkeypatch.setattr(module, "_truncation", counted, raising=False)
    params = validate(alpha, 0.5)
    for beta in (0.3, 0.9):
        for any_beta in (g_any_beta, gprime_any_beta):
            calls.clear()
            assert any_beta(params, beta).method is MethodChoice.SERIES
            assert len(calls) in counts, (beta, any_beta)


def test_generic_series_refuses_its_summed_noise_over_the_cap():
    # 1e-5 pi above 1, at tol 1e-12 and beta 0.05, each generic family of g
    # stops within the budget with every term bound's noise under half the
    # tolerance, and the generic bound meets the tolerance, but 4 eps times
    # the summed |terms| exceeds half of it: the series refuses that sum and
    # pairs its terms near 1/1
    alpha, rho, beta, tol = 1.0 + 1e-5 * math.pi, 0.3, 0.05, Tolerance(abs_tol=1e-12)
    params, profile, cap = validate(alpha, rho), classify(alpha), 0.5e-12
    (a_num, a_den), (r_num, r_den) = alpha.as_integer_ratio(), rho.as_integer_ratio()
    value = tail = abs_sum = 0.0
    for step, div, num in ((1.0, (a_den, a_num), (r_num, r_den)),
                           (alpha, (a_num, a_den), (r_num * a_num, r_den * a_den))):
        stop, bound = _stop(beta, step, False, profile.floor_constant, profile.floor_power,
                            cap, tol.max_terms)
        assert stop
        terms = series_module._family(step, *div, *num, div[1]).terms(beta, stop, False)
        value, tail = value + math.fsum(terms), tail + bound
        abs_sum += math.fsum(map(abs, terms))
    assert tail + 4.0 * EPS * (abs_sum + abs(value)) <= tol.abs_tol
    assert 4.0 * EPS * abs_sum > cap
    assert _generic(alpha, rho, beta, tol, profile, False) is None
    decided = g_series(params, beta, tol)
    assert decided == _paired(params, 1, 1, beta, tol)
    ref, err = g_mpmath(alpha, rho, beta)
    assert abs(decided.value - ref) <= decided.tail_bound + decided.noise_bound + err

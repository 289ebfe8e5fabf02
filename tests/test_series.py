import itertools
import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

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
from stablekappa.accurate import EPS, sin_mpi
from stablekappa.diophantine import _profile
from stablekappa.series import SeriesReport, _cut, _plan, _split

from oracles import cut_scan, g_mpmath, gprime_mpmath, residue_sum

TIGHT = Tolerance(abs_tol=1e-12)
SQRT2 = math.sqrt(2.0)


def _own_ratio(alpha, rho, beta, tol=None, derivative=False):
    """The generic sum, the split at alpha's own exact ratio probed at its
    pairing convergent, called directly at any alpha: the report, or None
    where it refuses."""
    tol, ratio = tol or Tolerance(), alpha.as_integer_ratio()
    plan = _plan(*ratio, *ratio, rho, derivative, tol.abs_tol, tol.max_terms, True)
    try:
        return SeriesReport(*_split(plan, beta, _profile(alpha)[1]))
    except IllConditionedSeriesError:
        return None


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
    # pinned in test_special.RATIONAL_VALUES, 5.7e-12 from the 30-digit
    # integral
    rep = g_series(validate(0.5, 0.3), 0.4)
    assert (rep.value.hex(), (rep.tail_bound + rep.noise_bound).hex(),
            rep.terms_first_series + rep.terms_second_series) == (
        "0x1.5ed63178627c1p-3", "0x1.c8532f54a1c50p-36", 45)


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


def test_series_endpoint_rho_one_sided_sums_to_log():
    # at rho = 1/alpha the first series sums (-1)^(m+1) beta^m / m =
    # log(1 + beta), and the second vanishes termwise but for the float
    # rho alpha, 1 within an ulp: its numerators |sin(k pi rho alpha)| stay
    # under pi k 2^-52
    alpha = SQRT2
    p = validate(alpha, 1.0 / alpha)
    rep = g_series(p, 0.5)
    assert rep.terms_second_series > 0
    assert abs(rep.value - math.log(1.5)) <= rep.tail_bound + rep.noise_bound


def test_one_sided_endpoint_within_its_bound_of_mpmath():
    # 1e-7 above 1 at rho = 1/alpha, rho alpha is 1 within 4 eps but not
    # exactly, and the divisors sin(k pi alpha) are as small as 3e-7: the
    # second series, summed to the cut like any other, still adds up to
    # 8e-11 to g'.  At tol 1e-8 the series decides on the generic sum for g
    # and g' (at the default tolerance g' pairs at 1/1 instead)
    alpha, tol = 1.0000001, Tolerance(abs_tol=1e-8)
    params = validate(alpha, 1.0 / alpha)
    for beta in (1.2e-6, 0.012, 0.5):
        for series, oracle in ((g_series, g_mpmath), (gprime_series, gprime_mpmath)):
            rep = series(params, beta, tol)
            assert rep == _own_ratio(alpha, 1.0 / alpha, beta, tol, series is gprime_series)
            ref, err = oracle(alpha, 1.0 / alpha, beta)
            assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound + err, (beta, series)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_own_ratio_sums_a_vanished_divisor_as_its_resonant_term(alpha):
    # sin(m pi/alpha) is exactly 0 at m = 1 for alpha = 1/2 and at m = 3 for
    # 3/2, the float's own numerator: the split at its own ratio, called as
    # the generic sum there, takes those indices as its pairs at delta = 0,
    # the resonant terms, and lies within its bound of the integral
    for derivative, oracle in ((False, g_mpmath), (True, gprime_mpmath)):
        rep = _own_ratio(alpha, 0.5, 0.3, derivative=derivative)
        assert rep.terms_first_series > 0
        ref, err = oracle(alpha, 0.5, 0.3)
        assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound + err, derivative


@pytest.mark.parametrize("derivative,oracle", [(False, g_mpmath), (True, gprime_mpmath)])
def test_the_integral_oracle_refuses_beta_below_1e_20(derivative, oracle):
    # at beta 1e-300 the 30-digit integral of g at alpha 0.3 gives 2.97e-91,
    # about half its leading residue 5.61e-91, and at 1e-18 that of g at
    # alpha 1.5, rho 2/3 is 5.3e-11 off relative, with no sign of either in
    # its estimate: below 1e-20 for g', 1e-12 for g, it refuses, and points
    # to residue_sum, which the series matches there; at that floor it still
    # agrees with residue_sum, cut below the double pole 3 at the rational 3/2
    floor = 1e-20 if derivative else 1e-12
    for alpha, rho, beta in ((0.3, 0.5, 1e-300), (0.3, 0.5, 0.99 * floor),
                             (1.5, 2 / 3, min(1e-18, 0.99 * floor))):
        with pytest.raises(ValueError, match="use residue_sum there"):
            oracle(alpha, rho, beta)
    if not derivative:
        rep = g_series(validate(0.3, 0.5), 1e-300)
        ref = residue_sum(0.3, 0.5, 1e-300, False, 3.5)
        assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound
        assert 5.6e-91 < rep.value < 5.7e-91
    for alpha, rho, cut in ((0.3, 0.5, 3.5), (1.5, 2 / 3, 2.9)):
        ref, err = oracle(alpha, rho, floor)
        assert abs(ref - residue_sum(alpha, rho, floor, derivative, cut)) <= (
            err + 1e-15 * abs(ref)), alpha


def test_tail_bound_is_honest():
    p = validate(SQRT2, 0.5)
    for beta in (0.2, 0.5, 0.8):
        loose = g_series(p, beta, Tolerance(abs_tol=1e-8))
        tight = g_series(p, beta, Tolerance(abs_tol=1e-12, max_terms=100000))
        assert abs(loose.value - tight.value) <= loose.tail_bound + 1e-14


# ---------------------------------------------------------------------------
# the beta-free tables shared across betas, g and g': the divisor families'
# exponents and coefficients, and the split plans' pair tables (at delta = 0
# for the rational 3/10)
# ---------------------------------------------------------------------------

TABLE_PARAMS = ((SQRT2, 0.5), (0.5 + SQRT2 / 40.0, 0.5), (0.3, 0.5))
TABLE_BETAS = (0.02, 0.07, 0.15, 0.3, 0.42, 0.5, 0.61, 0.75, 0.83, 0.88, 0.9)


def _bits(rep):
    return (rep.value.hex(), rep.tail_bound.hex(), rep.noise_bound.hex(),
            rep.terms_first_series, rep.terms_second_series)


def _clear_tables():
    series_module._plan.cache_clear()
    series_module._family.cache_clear()
    series_module._cuts.cache_clear()


def _cold(params, beta, series):
    _clear_tables()
    return _bits(series(params, beta))


def _tables(family_or_plan):
    """Every table of a family or a split plan, each a tuple of columns."""
    if isinstance(family_or_plan, series_module._Plan):
        return (family_or_plan.pairs,) + tuple(
            table for family in family_or_plan.families for table in _tables(family))
    return (family_or_plan.table,)


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
    cases = ((p, g_series), (rational, g_series), (p, gprime_series))
    cold = [_cold(params, 0.6, series) for params, series in cases]
    monkeypatch.setattr(series_module, "_TABLE_TERMS", 5)
    _clear_tables()
    for _ in range(2):
        assert [_bits(series(params, 0.6)) for params, series in cases] == cold
    # every column of a table that was filled holds _TABLE_TERMS rows: a
    # generic family's exponents and g and g' coefficients; the rational
    # plan's pairs (exponent, X_n, Y_n) and the same table for each of its
    # nonresonant families
    a_num, a_den = SQRT2.as_integer_ratio()
    generic = (series_module._family(1.0, a_den, a_num, 1, 2, a_num),
               series_module._family(SQRT2, a_num, a_den, a_num, 2 * a_den, a_den))
    plan = series_module._plan(3, 10, 3, 10, 0.5, False, 1e-10, 10000)
    for owner in generic + (plan,):
        filled = [table for table in _tables(owner) if len(table[-1])]
        assert [len(column) for table in filled for column in table] == [5] * (
            sum(map(len, filled)))
        assert len(filled) == (3 if owner is plan else 1)


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
    # 1 + 1/(60 + i), each with its own two families; each ratio's cut table
    caches = (series_module._family, series_module._plan, series_module._cuts)
    for cache in caches:
        assert cache.cache_info().maxsize == series_module._TABLES
    bound = series_module._TABLES
    for i in range(bound + 8):
        g_series(validate(1.0 + SQRT2 / (100.0 + i), 0.5), 0.3)
        gprime_series(validate(1.0 + 1.0 / (60.0 + i), 0.5), 0.3)
    for cache in caches:
        assert cache.cache_info().currsize == bound


# ---------------------------------------------------------------------------
# the cut: one per call, from the root of its bound's logarithm
# ---------------------------------------------------------------------------

# the exact ratio of alpha: generic floats, and the rational splits at
# delta = 0; near 3/2 and 1/2 the paired splits cut at alpha's own ratio
CUT_RATIOS = tuple(alpha.as_integer_ratio() for alpha in (
    SQRT2, 0.5 + SQRT2 / 40.0, math.pi / 2.0, 0.3, 1.50000001, 0.5 + 1e-12)) + (
    (1, 1), (3, 10), (19, 10), (1, 2), (3, 2))
CUT_BETAS = (1e-300, 1e-30, 1e-6, 1e-3, 0.05, 0.2, 0.4, 0.6, 0.75, 0.85, 0.9, 0.95, 0.99)


def test_truncation_from_the_tail_root_matches_the_scan(monkeypatch):
    # the cut starts at the root of its bound's logarithm with the sines
    # left out, below which no cut meets the budget, and steps up a unit
    # interval at a time: it equals the scan of every interval from the
    # first the sine-free bound allows (``oracles.cut_scan``), for g and g'
    # at rho 0.3 and 0.5 and every form the series takes.  Candidates are
    # passed over on float sines, and only one whose float bound meets the
    # budget takes two exact ones: the cut, or rarely one the 16 ulps of
    # the exact bound push past it
    sines = []
    monkeypatch.setattr(series_module, "sin_mpi", lambda *args: sines.append(args) or
                        sin_mpi(*args))
    most, stops = 0, set()
    for ratio, beta, rho, budget, derivative in itertools.product(
            CUT_RATIOS, CUT_BETAS, (0.3, 0.5), (2.5e-11, 3.75e-14, 1e-3), (False, True)):
        lam = math.pi * (1.0 + ratio[1] / ratio[0] - rho)
        sines.clear()
        found = _cut(beta, math.log(beta), ratio, lam, derivative, budget, 20000)
        want = cut_scan(beta, ratio, rho, derivative, budget, 20000)
        assert (found and found[:2]) == want, (ratio, beta, rho, budget, derivative)
        most = max(most, len(sines) // 2)
        stops.add(min(found[0], 2))
    assert stops == {0, 1, 2}
    assert most == 2


def test_cut_past_its_table_matches_the_scan(monkeypatch):
    # past _TABLE_TERMS intervals the candidates are recomputed, not kept:
    # at beta 0.997 every cut lies past the cap, and under a cap of 3 the
    # walk crosses it; the cuts are the scan's either way
    beta = 0.997
    for ratio, budget, derivative in itertools.product(CUT_RATIOS[:6], (2.5e-11, 3.75e-14),
                                                       (False, True)):
        lam = math.pi * (1.0 + ratio[1] / ratio[0] - 0.5)
        found = _cut(beta, math.log(beta), ratio, lam, derivative, budget, 20000)
        assert found[0] > series_module._TABLE_TERMS
        assert found[:2] == cut_scan(beta, ratio, 0.5, derivative, budget, 20000), ratio
    monkeypatch.setattr(series_module, "_TABLE_TERMS", 3)
    for ratio, beta, derivative in itertools.product(CUT_RATIOS, (0.05, 0.6, 0.9), (False, True)):
        lam = math.pi * (1.0 + ratio[1] / ratio[0] - 0.3)
        found = _cut(beta, math.log(beta), ratio, lam, derivative, 2.5e-11, 20000)
        assert found[:2] == cut_scan(beta, ratio, 0.3, derivative, 2.5e-11, 20000), ratio


@pytest.mark.parametrize("alpha", [1e-300, 1e-20])
def test_cut_with_a_stop_past_any_fixed_width(alpha):
    # at alpha 1e-20 the cut below 1 stops the second family near 5e19, past
    # 2^63: the table keeps it exact, and dispatch ends in quadrature
    ratio = alpha.as_integer_ratio()
    lam = math.pi * (1.0 + ratio[1] / ratio[0] - 0.5)
    for beta in (1e-3, 0.3, 0.9):
        for _ in range(2):
            found = _cut(beta, math.log(beta), ratio, lam, False, 1e-10, 20000)
            assert (found and found[:2]) == cut_scan(beta, ratio, 0.5, False, 1e-10, 20000)
        assert g_any_beta(validate(alpha, 0.5), beta).method is MethodChoice.QUADRATURE


def test_cut_table_under_concurrent_growth():
    # threads fill one ratio's cut table, interval rows and each taken
    # candidate's exact sines, from opposite ends of a beta sweep: every
    # cut is the scan's, and the table's columns stay whole
    ratio, rho, budget = (0.5 + SQRT2 / 40.0).as_integer_ratio(), 0.5, 2.5e-11
    lam = math.pi * (1.0 + ratio[1] / ratio[0] - rho)
    betas = TABLE_BETAS + (0.95, 0.97, 0.99)
    want = {(beta, derivative): cut_scan(beta, ratio, rho, derivative, budget, 20000)
            for beta in betas for derivative in (False, True)}
    series_module._cuts.cache_clear()
    workers = 8
    start = threading.Barrier(workers)
    results = [None] * workers

    def worker(i):
        order = betas if i % 2 == 0 else betas[::-1]
        start.wait()
        results[i] = {(beta, derivative): _cut(beta, math.log(beta), ratio, lam, derivative,
                                               budget, 20000)[:2]
                      for beta in order for derivative in (i % 4 < 2, i % 4 >= 2)}

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
        assert got and all(want[key] == stops for key, stops in got.items())
    cuts, floats, stops, exacts, ends = series_module._cuts(*ratio).columns
    assert len(cuts) == len(floats) == len(stops) == len(exacts) == ends[-1]
    taken = [i for i, e in enumerate(exacts) if e >= 0.0]
    assert taken and all(stops[i] >= 0 for i in taken)


def test_truncation_with_a_budget_past_float_range():
    # a term budget of 10^8 or 10^13 bounds the search, not the sums: the
    # cut lies where its bound meets the tolerance, and no sum runs past it
    params = validate(0.5 + 1e-12, 0.5)
    for max_terms in (10**8, 10**13):
        tol = Tolerance(max_terms=max_terms)
        paired = gprime_series(params, 0.9, tol)
        assert paired == _paired(params, 1, 2, 0.9, tol, True)
        assert (paired.terms_first_series, paired.terms_second_series) == (225, 226)
        rep = g_series(validate(SQRT2, 0.5), 1e-3, tol)
        assert (rep.terms_first_series, rep.terms_second_series) == (3, 2)


@pytest.mark.parametrize("alpha", [SQRT2, 0.3, 0.1, 0.01, 1.9, 1.50000001, 0.5 + SQRT2 / 40.0])
@pytest.mark.parametrize("beta", [1e-300, 1e-30])
def test_series_below_the_first_pole_sums_no_term(alpha, beta, monkeypatch):
    # at beta 1e-300 and 1e-30 the cut of g lies below 1, and above alpha
    # 1/2 below alpha too: a stop of 0 is the empty sum, not a missing
    # stop, and no sum takes more than the few terms below the cut, which
    # lies below 3/2 for g' too.  Every value lies within its bound of the
    # residues below 3.5 at 50 digits (the integral oracles lose digits
    # here: at alpha 0.3 and beta 1e-300 they give 2.97e-91 for g, where the
    # leading residue is 5.61e-91), and g' within 4 eps of them
    params, summed, fsum = validate(alpha, 0.5), [], math.fsum
    most = max(6, 1 + int(1.5 / alpha))

    def recorded(terms):
        terms = list(terms)
        summed.append(len(terms))
        return fsum(terms)

    for series in (g_series, gprime_series):
        derivative = series is gprime_series
        monkeypatch.setattr(math, "fsum", recorded)
        try:
            rep = series(params, beta)
        finally:
            monkeypatch.undo()
        assert rep.terms_first_series + rep.terms_second_series <= most
        ref = residue_sum(alpha, 0.5, beta, derivative, 3.5)
        assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, series
        if derivative:
            assert abs(rep.value - ref) <= 4.0 * EPS * abs(ref)
    assert summed and max(summed) <= most
    if alpha > 0.5:
        assert g_series(params, beta).terms_first_series == 0
        assert g_series(params, beta).terms_second_series == 0


def _split_partial(plan, beta, stop1, stop2):
    """The split's two nonresonant families summed over m <= stop1 and
    k <= stop2, and its pairs over n p <= stop1."""
    p, q, derivative = plan.p, plan.q, plan.derivative
    n = stop1 // p
    first, second = plan.families
    terms = (first.terms(beta, stop1 - n, derivative)
             + second.terms(beta, stop2 - stop2 // q, derivative))
    exps, xs, ys = (list(column)[:n] for column in series_module._rows(
        plan.pairs, n, plan._pairs))
    terms += [beta ** e * (math.log(beta) * x + y) for e, x, y in zip(exps, xs, ys)]
    return math.fsum(terms)


def test_truncation_tail_bounds_the_rest_at_negative_power():
    # g at rational alpha: the nonresonant terms fall like beta^(step j) / j
    # and the resonant ones like beta^(p j) / j; R(c') bounds all of them
    # past the cut, summed here until beta^j is a millionth of R(c')
    for p, q in ((1, 1), (3, 10), (19, 10), (1, 2)):
        for beta in (1e-3, 0.2, 0.9, 0.99):
            for abs_tol in (1e-6, 1e-13):
                plan = series_module._plan(p, q, p, q, 0.5, False, abs_tol, 10**6)
                log_beta = math.log(beta)
                stop1, stop2, tail = _cut(beta, log_beta, (p, q), plan.lam, False, plan.budget,
                                          plan.limit)
                far = stop1 + int(math.log(1e-6 * tail) / log_beta) + 2
                rest = _split_partial(plan, beta, far, far * q // p) - _split_partial(
                    plan, beta, stop1, stop2)
                assert abs(rest) <= tail < plan.budget, (p, q, beta, abs_tol)


# ---------------------------------------------------------------------------
# the failure path: a budget the cut passes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_terms", [50, 500])
@pytest.mark.parametrize("series", [g_series, gprime_series])
def test_series_refuses_a_budget_its_cut_passes(max_terms, series):
    # the split at the rational 3/10 refuses a budget before it sums: at
    # beta 0.9 its cut needs about 170 terms of its first family and 510 of
    # its second.  A generic or paired sum refuses a short budget as
    # IllConditionedSeriesError
    with pytest.raises(ConvergenceFailureError, match=(
            f"^split at 3/10: a sum does not stop within {max_terms} terms$")) as err:
        series(validate(0.3, 0.5), 0.9, Tolerance(max_terms=max_terms))
    assert (err.value.value, err.value.error_bound) == (None, None)


@pytest.mark.parametrize("max_terms", [5, 50, 500])
def test_the_cut_walks_only_as_far_as_the_budget_can_hold(max_terms):
    # past the plan's last M every cut sums more than max_terms terms of a
    # family, or pairs, so the walk stops there: where the full walk (to 2
    # max_terms, or the pairs' half period) finds a cut past it, the budget
    # refuses that cut.  last is the last M whose counts, with K the last k
    # at alpha k <= M, fit the budget, counted here one k at a time
    forms = [(0.3, None), (1.9, None), (1.0, None), (SQRT2, "own"), (0.5 + SQRT2 / 40.0, "own"),
             (1.50000001, (3, 2))]
    tol = Tolerance(max_terms=max_terms)
    for (alpha, form), derivative in itertools.product(forms, (False, True)):
        profile = _profile(alpha)[0]
        ratio = (profile.p, profile.q) if form is None else alpha.as_integer_ratio()
        pair = form if isinstance(form, tuple) else ratio
        plan = _plan(*ratio, *pair, 0.5, derivative, tol.abs_tol, max_terms, form == "own")
        p, q = pair
        fits, k = [], 0
        for m in range(2 * max_terms + 2):
            while (k + 1) * ratio[0] <= m * ratio[1]:
                k += 1
            if max(m - m // p, m // p, k - k // q) <= max_terms:
                fits.append(m)
        assert fits == list(range(len(fits)))
        assert plan.last == min(plan.limit, fits[-1]), (alpha, form)
        for beta in (0.3, 0.9, 0.99):
            args = (beta, math.log(beta), plan.ratio, plan.lam, derivative, plan.budget)
            full, walked = _cut(*args, plan.limit), _cut(*args, plan.last)
            if full is None or full[0] <= plan.last:
                assert walked == full
            else:
                assert walked is None
                assert max(full[0] - full[0] // p, full[0] // p,
                           full[1] - full[1] // q) > max_terms


def _divisor_terms(beta, step, div, num, derivative, count, skip):
    """The first count float terms of a divisor series over the indices skip
    (if any) does not divide: beta**(step m) times the coefficient
    (-1)**(m+1) pre sin(m pi num) / (m**deg sin(m pi div)), for g' beta
    times its terms."""
    pre, deg = (step, 0) if derivative else (1.0, 1)
    ms = itertools.islice((m for m in itertools.count(1) if skip is None or m % skip), count)
    return [beta ** (step * m)
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
    # splits at the rational 3/10, whose profile names p and q; g' sums at
    # the powers of beta of g and divides by beta once
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
        # the pairs at rational alpha: beta**N (X log beta + Y)
        ns = range(1, len(sums[2][0]) + 1)
        factors = iter(list(series_module._pair_factors(
            ns, (a_num, a_den), a_num, a_den, (r_num, r_den), 0 if derivative else 1)))
        want.append([beta ** (n * a_num) * (math.log(beta) * x + y)
                     for n, x, y in zip(ns, factors, factors)])
    assert [terms for terms, _ in sums] == want
    assert min(map(len, want)) > 100
    assert all(value == _exactly_rounded(terms) for terms, value in sums)
    first, second, *pairs = (value for _, value in sums)
    total = first + second + pairs[0] if pairs else first + second
    assert rep.value == (total / beta if derivative else total)


def test_rational_split_refuses_a_missed_tolerance():
    # 1e-6 above 1/2 the float's expansion terminates under the rational
    # cap, at 500001/1000000: the split's divisors sin(pi/1e6) and
    # sin(pi/500001) bring its noise above the tolerance.  The series
    # returns its bound; dispatch refuses it, with the value and bound it
    # refused, and the plan runs quadrature
    alpha, rho, beta, tol = 0.5 + 1e-6, 0.3, 0.9, Tolerance()
    params = validate(alpha, rho)
    aclass = classify(alpha)
    assert (aclass.kind, aclass.p, aclass.q) == (AlphaKind.RATIONAL, 500001, 1000000)
    rep = g_series(params, beta, tol)
    bound = rep.tail_bound + rep.noise_bound
    assert bound > tol.abs_tol
    with pytest.raises(ConvergenceFailureError, match="series: error bound") as err:
        g_any_beta(params, beta, MethodChoice.SERIES, tol)
    assert (err.value.value, err.value.error_bound) == (rep.value, bound)
    res = g_any_beta(params, beta, tol=tol)
    assert res.method is MethodChoice.QUADRATURE
    ref, err = g_mpmath(alpha, rho, beta)
    assert err < 1e-25
    assert res.abs_error_bound <= tol.abs_tol
    assert abs(res.value - ref) <= res.abs_error_bound


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


def test_paired_series_keeps_its_pairs_within_half_a_period():
    # 3.1e-3 above 3/2, at tol 1e-13, the two poles of pair n of the split
    # at 3/2 drift 6.3e-3 n apart.  The cut needs no divisor bound past it:
    # at beta 0.85 it keeps 53 pairs, |delta| up to 0.33, and the value
    # lies within its bound of the integral.  At 0.9 it would pass the pair
    # at |delta| 1/2, where no candidate cut is sure to keep a pair whole,
    # and the split refuses; the series sums generically at all three
    p = validate(1.5 + 1e-3 * math.pi, 0.5)
    tol = Tolerance(abs_tol=1e-13)
    for beta in (0.75, 0.85):
        rep = _paired(p, 3, 2, beta, tol)
        assert rep.terms_second_series > 0
        ref, err = g_mpmath(p.alpha, 0.5, beta)
        assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound + err, beta
    with pytest.raises(IllConditionedSeriesError, match="where the pairs pass half a period"):
        _paired(p, 3, 2, 0.9, tol)
    for beta in (0.75, 0.85, 0.9):
        assert g_series(p, beta, tol) == _own_ratio(p.alpha, 0.5, beta, tol)
    # and where the series sums generically and the split is called
    # directly: 9.4e-4 above 1/2 (delta_1 = 1.9e-3) half a period is
    # |delta| 1/4, and at beta 0.9 the pairs would run to |delta| = 0.32
    p = validate(0.5 + 3e-4 * math.pi, 0.3)
    assert _paired(p, 1, 2, 0.8).terms_first_series > 0
    with pytest.raises(IllConditionedSeriesError, match="where the pairs pass half a period"):
        _paired(p, 1, 2, 0.9)
    # at 1.2 paired at 1/1 the second pair is past half a period already
    p = validate(1.2, 0.5)
    for derivative in (False, True):
        with pytest.raises(IllConditionedSeriesError, match="where the pairs pass half a period"):
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


# (alpha, beta, tolerance) at rho 0.5 per g or g' where the generic sum
# returns, its summed noise under half the tolerance, and neither the
# paired split (its projected noise refuses) nor quadrature (it does not
# converge) would
GENERIC_ROWS = {False: ((0.01 + math.pi * 1e-12, 1e-6, Tolerance(abs_tol=1e-13)),),
                True: ((0.14142135623730953, 1e-6, Tolerance()),
                       (SQRT2 / 2.0, 1e-6, Tolerance(abs_tol=1e-13)))}


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
        for beta in (1e-4, 0.3, 0.8, 0.94):
            ref, _ = oracle(alpha, 0.5, beta)
            for tol in (Tolerance(), Tolerance(abs_tol=1e-13)):
                try:
                    rep = series(validate(alpha, 0.5), beta, tol)
                except IllConditionedSeriesError:
                    continue
                kinds.add(rep == _own_ratio(alpha, 0.5, beta, tol, derivative))
                assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (
                    alpha, beta, tol)
    assert kinds == {False, True}
    for alpha, beta, tol in GENERIC_ROWS[derivative]:
        rep = series(validate(alpha, 0.5), beta, tol)
        assert rep == _own_ratio(alpha, 0.5, beta, tol, derivative)
        ref, _ = oracle(alpha, 0.5, beta)
        assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (alpha, beta, tol)


# ---------------------------------------------------------------------------
# the conditioning the series decides itself, from the stops it sums to
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, counts", [(SQRT2, {1}), (0.5 + SQRT2 / 40.0, {1}),
                                           (1.50000001, {2}), (1.0000001, {2})])
def test_dispatch_computes_each_stopping_index_once(alpha, counts, monkeypatch):
    # one cut per form the series tries: the generic sum's, which stops
    # both its families; near 3/2 and 1e-7 above 1 the generic sum refuses
    # its noise at that cut, and the split at 3/2 or 1/1 takes one more, for
    # its two families and its pairs: nothing else asks for a stop
    calls = []

    def counted(*args):
        calls.append(args)
        return _cut(*args)

    monkeypatch.setattr(series_module, "_cut", counted)
    params = validate(alpha, 0.5)
    for beta in (0.3, 0.9):
        for any_beta in (g_any_beta, gprime_any_beta):
            calls.clear()
            assert any_beta(params, beta).method is MethodChoice.SERIES
            assert len(calls) in counts, (beta, any_beta)


def test_generic_series_refuses_its_summed_noise_over_the_cap():
    # 1e-5 pi above 1, at tol 1e-12 and beta 0.05, the cut stops each
    # generic family of g within the budget, 4 eps times each of its terms
    # at the pairing convergent 1/1 stays under half the tolerance, and the
    # generic bound meets the tolerance, but 4 eps times the summed |terms|
    # exceeds half of it: the series refuses that sum and pairs its terms
    # near 1/1
    alpha, rho, beta, tol = 1.0 + 1e-5 * math.pi, 0.3, 0.05, Tolerance(abs_tol=1e-12)
    params, pair, cap = validate(alpha, rho), _profile(alpha)[1], 0.5e-12
    (a_num, a_den), (r_num, r_den) = alpha.as_integer_ratio(), rho.as_integer_ratio()
    assert pair == (1, 1)
    *stops, tail = _cut(beta, math.log(beta), (a_num, a_den),
                        math.pi * (1.0 + a_den / a_num - rho), False, 0.25 * tol.abs_tol,
                        tol.max_terms)
    value = abs_sum = 0.0
    for stop, (step, div, num) in zip(stops, (
            (1.0, (a_den, a_num), (r_num, r_den)),
            (alpha, (a_num, a_den), (r_num * a_num, r_den * a_den)))):
        assert stop
        terms = series_module._family(step, *div, *num, div[1]).terms(beta, stop, False)
        assert 4.0 * EPS * abs(terms[0]) <= cap
        value += math.fsum(terms)
        abs_sum += math.fsum(map(abs, terms))
    assert tail + 4.0 * EPS * (abs_sum + abs(value)) <= tol.abs_tol
    assert 4.0 * EPS * abs_sum > cap
    plan = _plan(a_num, a_den, a_num, a_den, rho, False, tol.abs_tol, tol.max_terms, True)
    with pytest.raises(IllConditionedSeriesError, match="summed noise"):
        _split(plan, beta, pair)
    decided = g_series(params, beta, tol)
    assert decided == _paired(params, 1, 1, beta, tol)
    ref, err = g_mpmath(alpha, rho, beta)
    assert abs(decided.value - ref) <= decided.tail_bound + decided.noise_bound + err


# ---------------------------------------------------------------------------
# refusals the series raises typed, so that dispatch moves on to quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [2.0 ** -30, 2.0 ** -21, 2.0 ** -20])
@pytest.mark.parametrize("any_beta,oracle", [(g_any_beta, g_mpmath),
                                             (gprime_any_beta, gprime_mpmath)])
def test_dyadic_alpha_quadrature(alpha, any_beta, oracle):
    # 2^-k with 2^k above the rational cap is irrational by its profile,
    # and every sin(m pi/alpha) vanishes: the split at its own ratio 1/2^k
    # pairs each m with k = m 2^k, and its second family, summed to near
    # 2^k times the cut, needs more terms than the budget.  The series
    # refuses it typed, and quadrature evaluates it
    params = validate(alpha, 0.5)
    assert classify(alpha).kind is AlphaKind.IRRATIONAL
    for beta in (1e-3, 0.3, 2.5):
        with pytest.raises(IllConditionedSeriesError):
            (gprime_series if any_beta is gprime_any_beta else g_series)(
                params, min(beta, 1.0 / beta))
        res = any_beta(params, beta)
        assert res.method is MethodChoice.QUADRATURE
        ref, err = oracle(alpha, 0.5, beta)
        assert abs(res.value - ref) <= res.abs_error_bound + err, beta


def test_gprime_below_the_normal_floats_counts_their_rounding():
    # at a subnormal beta the powers beta^(step m) and the terms of g' keep
    # few digits, off by up to 2^-1074 whatever their size, and the quotient
    # by beta magnifies that; the noise counts it, so every value lies within
    # its bound of the residues at 50 digits (at the rational 1, of the
    # resonant term at 1, -(log beta sin(pi rho) + pi rho cos(pi rho))/pi,
    # the rest below beta)
    for alpha, rho in ((1.0, 0.3), (1.0000001, 0.3), (SQRT2, 0.5), (math.pi / 2.0, 0.5),
                       (0.5 + SQRT2 / 40.0, 0.5)):
        for beta in (1e-310, 1e-320):
            for tol in (Tolerance(), Tolerance(abs_tol=1e-6)):
                rep = gprime_series(validate(alpha, rho), beta, tol)
                if alpha == 1.0:
                    b, r = mpf(beta), mpf(rho)
                    ref = -(mpmath.log(b) * mpmath.sinpi(r) + mpmath.pi * r * mpmath.cospi(r)) / (
                        mpmath.pi)
                else:
                    ref = residue_sum(alpha, rho, beta, True, 3.5)
                assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound, (alpha, beta)


def test_a_term_that_overflows_is_a_typed_refusal():
    # beta^(0.01 k - 1) overflows a float at beta 1e-320: the split at the
    # rational 1/100 refuses typed, and dispatch ends in quadrature's
    # failure.  At 1e-310 the terms stay finite, and the series returns
    # their bound, above the tolerance, which dispatch refuses before
    # quadrature fails
    params = validate(0.01, 0.5)
    with pytest.raises(IllConditionedSeriesError, match="overflows"):
        gprime_series(params, 1e-320)
    rep = gprime_series(params, 1e-310)
    assert math.isfinite(rep.value) and rep.noise_bound > 1e-10
    for beta, refusal in ((1e-310, ConvergenceFailureError), (1e-320, IllConditionedSeriesError)):
        with pytest.raises(ConvergenceFailureError, match="quadrature") as err:
            gprime_any_beta(params, beta)
        assert type(err.value.__cause__) is refusal, beta

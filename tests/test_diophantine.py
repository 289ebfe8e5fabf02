import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekappa import (
    AlphaKind,
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodChoice,
    Tolerance,
    cf_expand,
    classify,
    gprime_any_beta,
    gprime_series,
    validate,
)
from stablekappa import series as series_module
from stablekappa.accurate import EPS, sin_mpi
from stablekappa.diophantine import RATIONAL_DENOMINATOR_CAP, AlphaClass, _profile
from stablekappa.series import _cut, _plan, _split

from oracles import cut_scan, cut_tail_scan


def _cf_oracle(x_str: str, n: int) -> list[int]:
    """Partial quotients from a 60-digit expansion (independent oracle)."""
    with mpmath.workdps(60):
        y = mpmath.mpf(x_str)
        out = []
        for _ in range(n):
            a = int(mpmath.floor(y))
            out.append(a)
            frac = y - a
            if frac == 0:
                break
            y = 1 / frac
        return out


def test_cf_three_halves():
    cf = cf_expand(1.5)
    assert cf.quotients == (1, 2)
    assert cf.convergents == ((1, 1), (3, 2))
    assert cf.exact


def test_cf_sqrt2_against_oracle():
    cf = cf_expand(math.sqrt(2.0))
    oracle = _cf_oracle("1.41421356237309504880168872420969807856967187537694", 15)
    assert list(cf.quotients[:15]) == oracle[:15]
    assert cf.convergents[:5] == ((1, 1), (3, 2), (7, 5), (17, 12), (41, 29))


def test_cf_golden_fraction():
    x = (1.0 + math.sqrt(5.0)) / 2.0 - 1.0
    cf = cf_expand(x)
    assert cf.quotients[0] == 0
    assert all(a == 1 for a in cf.quotients[1:12])


@settings(max_examples=200, deadline=None)
@given(x=st.floats(min_value=1e-3, max_value=2.0))
def test_convergents_quality(x):
    cf = cf_expand(x)
    for p, q in cf.convergents:
        assert abs(Fraction(x) - Fraction(p, q)) < Fraction(1, q * q) \
            or (p, q) == cf.convergents[0]


@settings(max_examples=200, deadline=None)
@given(p=st.integers(min_value=1, max_value=10**6),
       q=st.integers(min_value=1, max_value=10**6))
def test_rational_recovery(p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    if p > 2 * q:  # keep alpha-scale inputs
        p, q = q, p
    cf = cf_expand(p / q)
    assert cf.exact
    assert cf.convergents[-1] == (p, q)


def test_classify_rational():
    ac = classify(0.5)
    assert ac.kind is AlphaKind.RATIONAL
    assert (ac.p, ac.q) == (1, 2)
    ac = classify(2.0)
    assert (ac.p, ac.q) == (2, 1)


def test_classify_sqrt2_irrational():
    ac = classify(math.sqrt(2.0))
    assert ac.kind is AlphaKind.IRRATIONAL
    # every partial quotient past the first is 2: the series probes the
    # terms of the first convergent that precedes one
    assert _profile(math.sqrt(2.0))[1] == (1, 1)


def test_classify_near_rational_ill_conditioned():
    # 1e-12 from 1/2 the profile is Irrational with the pairing convergent
    # 1/2, where |sin(pi/alpha)| is 1.3e-11 and the generic sum fails; the
    # series, not classify, pairs at 1/2 where the pairs fit the term budget,
    # and refuses elsewhere.  At tol 1e-15 the pairs return a bound of
    # 4.9e-15, their rounding, and dispatch refuses it
    ac = classify(0.5 + 1e-12)
    assert (ac, (1, 2)) == _profile(0.5 + 1e-12)
    assert (ac.kind, ac.p, ac.q) == (AlphaKind.IRRATIONAL, None, None)
    params = validate(0.5 + 1e-12, 0.5)
    rep = gprime_series(params, 0.9)
    assert (rep.terms_first_series, rep.terms_second_series) == (225, 226)
    with pytest.raises(IllConditionedSeriesError, match="does not stop within 50 terms"):
        gprime_series(params, 0.9, Tolerance(max_terms=50))
    tight = Tolerance(abs_tol=1e-15)
    rep = gprime_series(params, 0.9, tight)
    assert (rep.terms_first_series, rep.terms_second_series) == (335, 335)
    assert rep.tail_bound <= 0.375 * tight.abs_tol < tight.abs_tol < rep.noise_bound
    with pytest.raises(ConvergenceFailureError, match="series: error bound 4.926e-15"):
        gprime_any_beta(params, 0.9, MethodChoice.SERIES, tight)


def test_series_refuses_a_tolerance_below_float_range():
    # a quarter (or 3/8) of the smallest subnormal rounds to 0: no cut
    # meets a zero budget, paired or not
    tol = Tolerance(abs_tol=5e-324)
    for alpha in (math.sqrt(2.0), 1.50000001, 0.5 + 1e-12):
        with pytest.raises(IllConditionedSeriesError):
            gprime_series(validate(alpha, 0.5), 0.9, tol)


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0,
                                   math.sqrt(2.0), math.sqrt(3.0),
                                   2.0 - math.sqrt(2.0), 0.5 + 1e-12])
def test_classify_reciprocal_agreement(alpha):
    if not 0.5 <= alpha <= 2.0:
        pytest.skip("reciprocal outside (0, 2]")
    a = classify(alpha)
    b = classify(1.0 / alpha)
    assert a.kind is b.kind


# ---------------------------------------------------------------------------
# the per-alpha profile cache behind classify
# ---------------------------------------------------------------------------

CACHE_ALPHAS = (math.sqrt(2.0), math.pi / 2.0, 0.5 + math.sqrt(2.0) / 40.0,
                1.0000001, 1.50000001, 0.8)
CACHE_BETAS = (2e-6, 1e-4, 0.01, 0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 0.95, 0.99)
CACHE_TOLS = (Tolerance(), Tolerance(abs_tol=1e-13, max_terms=2000))


def _uncached_profile(alpha: float) -> tuple[AlphaClass, tuple[int, int] | None]:
    """The beta-free part of classify, recomputed with no cache: the
    profile, and the pairing convergent p/q (p >= 1) before the largest
    partial quotient, first on ties."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        return AlphaClass(kind=AlphaKind.RATIONAL, p=p_last, q=q_last), None
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    best = max((a for a, _ in ahead), default=None)
    pair = next((pq for a, pq in ahead if a == best), None)
    return AlphaClass(kind=AlphaKind.IRRATIONAL), pair


def _paired_uncached(alpha: float, rho: float, tol: Tolerance,
                     beta: float) -> tuple[int, int] | None:
    """The stops of the split of g' at the pairing convergent recomputed, or
    None where it refuses: the convergent p/q (p >= 1) before the largest
    partial quotient (``_uncached_profile``); the cut scanned for a bound
    under 3/8 of the tolerance below the index where the pairs pass half a
    period, and each sum within the budget."""
    _, pair = _uncached_profile(alpha)
    if pair is None:
        return None
    p, q = pair
    delta1 = abs(float(Fraction(alpha) * q - p))
    half = 0.5 * min(alpha, 1.0)
    limit = min(2 * tol.max_terms, int(half / delta1) * p - 1)
    found = cut_scan(beta, alpha.as_integer_ratio(), rho, True, 0.375 * tol.abs_tol, limit)
    if found is None:
        return None
    stop1, stop2 = found
    if max(stop1 - stop1 // p, stop2 - stop2 // q, stop1 // p) > tol.max_terms:
        return None
    return found


# near-resonant alphas at several distances from 1/2, 1, 3/2 and 2, and
# generic irrationals on both sides of 1
GRID_ALPHAS = (0.5 + 1e-12, 0.5 + 1e-9 * math.pi, 0.5 + 1e-6 * math.pi,
               1.0 - 1e-8 * math.pi, 1.0 + 1e-5 * math.pi, 1.5 + 1e-8 * math.pi,
               1.5 - 1e-4 * math.pi, 2.0 - 1e-7 * math.pi, math.sqrt(2.0) / 2.0,
               math.sqrt(3.0), math.e / 2.0, 0.5 + math.sqrt(2.0) / 40.0,
               math.sqrt(2.0), math.pi / 2.0)
# 0.75 to 0.95 in steps of 0.01, where the well-conditioned alphas' term
# bounds come closest to the noise cap
GRID_BETAS = tuple(sorted({i / 20.0 for i in range(1, 20)} | {1e-6, 1e-3, 0.99}
                          | {i / 100.0 for i in range(75, 96)}))
GRID_TOLS = (Tolerance(abs_tol=1e-8), Tolerance(), Tolerance(abs_tol=1e-13),
             Tolerance(abs_tol=1e-10, max_terms=300), Tolerance(max_terms=100),
             Tolerance(abs_tol=1e-12, max_terms=500))


def test_classify_matches_uncached_recomputation():
    _profile.cache_clear()
    for alpha in CACHE_ALPHAS + GRID_ALPHAS:
        want = _uncached_profile(alpha)
        assert (classify(alpha), _profile(alpha)[1]) == want, alpha


def _own_ratio_uncached(alpha: float, rho: float, tol: Tolerance,
                        beta: float) -> tuple[int, int] | None:
    """The stops of the generic sum of g', the split at alpha's own ratio,
    recomputed with no table, or None where it refuses: the cut does not
    meet a quarter of the tolerance within the budget, or 4 eps times the
    |terms| of both families summed to it exceeds half the tolerance.  Each
    term is beta^(step m - 1) times step sin(m pi num) / sin(m pi div),
    signed (-1)^(m+1), as the families compute it."""
    (a_num, a_den), (r_num, r_den) = alpha.as_integer_ratio(), rho.as_integer_ratio()
    found = cut_tail_scan(beta, (a_num, a_den), rho, True, 0.25 * tol.abs_tol, tol.max_terms)
    if found is None or found[1] > tol.max_terms:
        return None
    *stops, _ = found
    abs_sum = 0.0
    for stop, step, div, num in zip(stops, (1.0, alpha), ((a_den, a_num), (a_num, a_den)),
                                    ((r_num, r_den), (r_num * a_num, r_den * a_den))):
        for m in range(1, stop + 1):
            abs_sum += abs(beta ** (step * m - 1.0) * (
                (step if m % 2 else -step) * sin_mpi(m, *num) / sin_mpi(m, *div)))
            if 4.0 * EPS * abs_sum > 0.5 * tol.abs_tol:
                return None  # the |terms| only add up
    return tuple(stops)


def test_series_stops_match_uncached_recomputation():
    # the decision the series of g' makes, at rho 0.5: the stops of the
    # split at alpha's own ratio, the generic sum (the cut read off its
    # plan from its first guess, and its refusals), else the split's at the
    # pairing convergent (the cut read off its plan), else a refusal; each
    # against a scan from the first unit
    # interval that could hold the cut and, for the generic sum, its terms
    # recomputed and summed
    rho, kinds = 0.5, set()
    for alphas, tols, betas in ((CACHE_ALPHAS, CACHE_TOLS, CACHE_BETAS),
                                (GRID_ALPHAS, GRID_TOLS, GRID_BETAS)):
        for alpha in alphas:
            profile, pair = _profile(alpha)
            if profile.kind is AlphaKind.RATIONAL:
                continue
            ratio = alpha.as_integer_ratio()
            for tol in tols:
                own = _plan(*ratio, *ratio, rho, True, tol.abs_tol, tol.max_terms, True)
                plan = _plan(*ratio, *pair, rho, True, tol.abs_tol, tol.max_terms)
                for beta in betas:
                    log_beta = math.log(beta)
                    got = _cut(beta, log_beta, own.ratio, own.lam, True, own.budget, own.limit)
                    if got is not None:
                        try:
                            _split(own, beta, pair)
                            got = got[:2]
                        except IllConditionedSeriesError:
                            got = None
                    assert got == _own_ratio_uncached(alpha, rho, tol, beta), (alpha, tol, beta)
                    if got is not None:
                        kinds.add("generic")
                        continue
                    got = _cut(beta, log_beta, plan.ratio, plan.lam, True, plan.budget,
                               plan.limit)
                    if got is not None:
                        p, q = pair
                        stop1, stop2, _ = got
                        got = None if max(stop1 - stop1 // p, stop2 - stop2 // q,
                                          stop1 // p) > tol.max_terms else (stop1, stop2)
                    assert got == _paired_uncached(alpha, rho, tol, beta), (alpha, tol, beta)
                    kinds.add("refused" if got is None else "paired")
    assert kinds == {"generic", "paired", "refused"}


def test_generic_sum_probe_changes_no_outcome():
    # before it sums, the generic sum reads its terms m = p and k = q at
    # alpha's pairing convergent p/q, where the divisors are smallest, and
    # refuses if 4 eps times either exceeds half the tolerance.  Wherever
    # it does, 4 eps times the |terms| of both families summed to the cut
    # exceeds half the tolerance too, and the sum without the probe refuses
    # on it; everywhere the outcome is the same with or without the probe
    probed = 0
    for alpha, derivative in itertools.product(GRID_ALPHAS, (False, True)):
        _, pair = _profile(alpha)
        ratio = alpha.as_integer_ratio()
        for tol in GRID_TOLS:
            own = _plan(*ratio, *ratio, 0.5, derivative, tol.abs_tol, tol.max_terms, True)
            for beta in GRID_BETAS:
                outcomes = []
                for probe in (pair, None):
                    try:
                        outcomes.append(_split(own, beta, probe))
                    except IllConditionedSeriesError as err:
                        outcomes.append(str(err))
                with_probe, without = outcomes
                if "a term's noise" not in str(with_probe):
                    assert with_probe == without, (alpha, derivative, tol, beta)
                    continue
                assert "summed noise" in without, (alpha, derivative, tol, beta)
                stop1, stop2, _ = _cut(beta, math.log(beta), own.ratio, own.lam, derivative,
                                       own.budget, own.limit)
                first, second = own.families
                terms = (first.terms(beta, stop1, derivative)
                         + second.terms(beta, stop2, derivative))
                assert 4.0 * EPS * math.fsum(map(abs, terms)) > 0.5 * tol.abs_tol
                probed += 1
    assert probed > 1000


def test_profile_cache_stays_at_its_bound():
    bound = _profile.cache_info().maxsize
    for i in range(bound + 8):
        classify(1.0 + math.sqrt(2.0) / (100.0 + i))
    assert _profile.cache_info().currsize == bound


def test_classify_leaves_the_series_caches_alone():
    # classify reads alpha's profile and builds no plan, so classifying
    # many alphas evicts none of the series' sine tables
    caches = (series_module._family, series_module._plan)
    for cache in caches:
        cache.cache_clear()
    for k in range(40):
        classify(0.5 + k * 1e-12)
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]

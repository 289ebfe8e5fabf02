import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekappa import (
    AlphaKind,
    IllConditionedSeriesError,
    Tolerance,
    cf_expand,
    classify,
    gprime_series,
    validate,
)
from stablekappa import series as series_module
from stablekappa.accurate import EPS, sin_mpi, sin_pi
from stablekappa.diophantine import RATIONAL_DENOMINATOR_CAP, AlphaClass, _profile, _truncation
from stablekappa.series import _pair_bound, _pair_prefactor, _plan, _split_stops, _stop


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
    # bounded partial quotients: the floor 1/2 / m holds at every convergent
    assert (ac.floor_power, ac.floor_constant) == (1.0, 0.5)


def test_classify_near_rational_ill_conditioned():
    # 1e-12 from 1/2 the profile is Irrational with the floor |sin(pi/alpha)|
    # of 1.3e-11, under which the generic sum fails; the series, not
    # classify, pairs at 1/2 where the pairs fit the term budget and their
    # noise the tolerance, and refuses elsewhere
    ac = classify(0.5 + 1e-12)
    assert ac == _profile(0.5 + 1e-12)[0]
    assert (ac.kind, ac.p, ac.q) == (AlphaKind.IRRATIONAL, None, None)
    assert ac.floor_constant == 1.2566092624600367e-11
    params = validate(0.5 + 1e-12, 0.5)
    rep = gprime_series(params, 0.9)
    assert (rep.terms_first_series, rep.terms_second_series) == (248, 267)
    with pytest.raises(IllConditionedSeriesError, match="does not stop within 50 terms"):
        gprime_series(params, 0.9, Tolerance(max_terms=50))
    with pytest.raises(IllConditionedSeriesError, match="projected noise"):
        gprime_series(params, 0.9, Tolerance(abs_tol=1e-15))


def test_series_refuses_a_tolerance_below_float_range():
    # an eighth of the smallest subnormal rounds to 0: no stopping index
    # reaches a zero target, paired or not
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


def _projected_cost_full(beta: float, step: float, prefactor: float,
                         c: float, nu: float, tol: Tolerance) -> tuple[int | None, float]:
    """Terms needed (or None) and the largest term bound for one
    derivative-series family, with no early exit: the loop runs to the
    stopping index and looks at every bound up to it."""
    base = beta ** step
    peak = 0.0
    for m in range(1, tol.max_terms + 1):
        peak = max(peak, prefactor * beta ** (step * m - 1.0) * m ** nu / c)
        nxt = prefactor * beta ** (step * (m + 1) - 1.0) * (m + 1) ** nu / c
        ratio = base * ((m + 2) / (m + 1)) ** nu
        if ratio < 1.0 and nxt / (1.0 - ratio) < 0.5 * tol.abs_tol:
            return m, peak
    return None, peak


def _exact_sin(m: int, x: Fraction) -> float:
    """sin(pi m x) from the exact distance of m x to its nearest integer."""
    k = round(m * x)
    s = math.sin(math.pi * float(m * x - k))
    return -s if k % 2 else s


def _uncached_profile(alpha: float) -> AlphaClass:
    """The beta-free part of classify, recomputed with no cache."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(kind=AlphaKind.RATIONAL, p=p_last, q=q_last,
                          floor_constant=floor)
    # the floor model from exact distances: c from the indices 1, nu from
    # every convergent denominator d >= 2 but the last, of 1/alpha (the p)
    # and of alpha (the q)
    x = Fraction(alpha)
    c = min(0.5, abs(_exact_sin(1, 1 / x)), abs(_exact_sin(1, x)))
    nu = 1.0
    for p, q in cf.convergents[:-1]:
        for d, y in ((p, 1 / x), (q, x)):
            if d >= 2:
                nu = max(nu, math.log(c / abs(_exact_sin(d, y))) / math.log(d) + 1e-9)
    return AlphaClass(kind=AlphaKind.IRRATIONAL, floor_power=nu, floor_constant=c)


def _paired_uncached(alpha: float, rho: float, tol: Tolerance,
                     beta: float) -> list[int] | None:
    """The stops of the split of g' at the pairing convergent recomputed, or
    None where it refuses: the convergent p/q (p >= 1) before the largest
    partial quotient, first on ties; stopping indices scanned term by term
    for a bound under tol/8, the pairs' at weight pi rho + |log beta|;
    proven floors from the exact drift; the noise projected at beta clamped
    into [1e-6, 0.95]."""
    cf = cf_expand(alpha)
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    if not ahead:
        return None
    best = max(a for a, _ in ahead)
    p, q = next(pq for a, pq in ahead if a == best)
    x = Fraction(alpha)
    eighth = Tolerance(abs_tol=tol.abs_tol / 4.0, max_terms=tol.max_terms)
    b = min(max(beta, 1e-6), 0.95)
    stops, noise = [0, 0], 0.0
    for i, (skip, step, drift) in enumerate(((p, 1.0, abs(1 / x - Fraction(q, p))),
                                             (q, alpha, abs(x - Fraction(p, q))))):
        if skip > 1:
            c = 0.5 * sin_pi(1.0 / skip)
            stops[i], _ = _projected_cost_full(beta, step, step, c, 0.0, eighth)
            margin = Fraction(1, skip) - stops[i] * drift if stops[i] else 0
            if stops[i] is None or margin <= 0 or sin_pi(float(margin)) < c:
                return None
            noise += step * b ** (step - 1.0) / (c * (1.0 - b ** step))
    delta1 = abs(float(x * q - p))
    reach = min(delta1 * tol.max_terms, 0.5 * min(alpha, 1.0))
    bound = _pair_bound(alpha, p, reach, 0)
    pre = _pair_prefactor(bound, math.pi * rho + abs(math.log(beta)), beta)
    stop, _ = _projected_cost_full(beta, p, pre, 1.0, 0.0, eighth)
    if stop is None or stop * delta1 > reach:
        return None
    pre = _pair_prefactor(bound, math.pi + abs(math.log(b)), b)
    noise += pre * b ** (p - 1.0) / (1.0 - b ** p)
    if 4.0 * EPS * noise > 0.5 * tol.abs_tol:
        return None
    return [stop, *stops]


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
        got, want = classify(alpha), _uncached_profile(alpha)
        assert got == want, alpha
        assert got.floor_constant.hex() == want.floor_constant.hex()


def _generic_uncached(alpha: float, tol: Tolerance, beta: float,
                      profile: AlphaClass) -> list[int | None]:
    """The stops of the two generic families of g' recomputed, each None
    where it does not stop within the budget or 4 eps times its largest
    term bound exceeds half the tolerance."""
    stops = []
    for step in (1.0, alpha):
        stop, peak = _projected_cost_full(beta, step, step, profile.floor_constant,
                                          profile.floor_power, tol)
        stops.append(stop if 4.0 * EPS * peak <= 0.5 * tol.abs_tol else None)
    return stops


def test_series_stops_match_uncached_recomputation():
    # the decision the series of g' makes before it sums, at rho 0.5: the
    # generic families' stops (``_stop``), else the split's at the pairing
    # convergent (``_split_stops``), else a refusal
    rho, kinds = 0.5, set()
    for alphas, tols, betas in ((CACHE_ALPHAS, CACHE_TOLS, CACHE_BETAS),
                                (GRID_ALPHAS, GRID_TOLS, GRID_BETAS)):
        for alpha in alphas:
            profile, pair = _profile(alpha)
            if profile.kind is AlphaKind.RATIONAL:
                continue
            c, nu = profile.floor_constant, profile.floor_power
            reference = _uncached_profile(alpha)
            for tol in tols:
                plan = _plan(*alpha.as_integer_ratio(), *pair, rho, True, tol.abs_tol,
                             tol.max_terms)
                for beta in betas:
                    got = [_stop(beta, step, True, c, nu, 0.5 * tol.abs_tol,
                                 tol.max_terms)[0] for step in (1.0, alpha)]
                    assert got == _generic_uncached(alpha, tol, beta, reference), (
                        alpha, tol, beta)
                    if None not in got:
                        kinds.add("generic")
                        continue
                    try:
                        got = [stop for stop, _ in _split_stops(plan, math.log(beta), beta)]
                    except IllConditionedSeriesError:
                        got = None
                    assert got == _paired_uncached(alpha, rho, tol, beta), (alpha, tol, beta)
                    kinds.add("refused" if got is None else "paired")
    assert kinds == {"generic", "paired", "refused"}


def test_floor_model_holds_below_the_last_denominator():
    # best approximation makes c / m**nu a floor on each family's divisors
    # |sin(pi m x)|, x = 1/alpha and x = alpha, for every m below the last
    # convergent denominator of x (p_last and q_last), checked by exact
    # reduction up to 20000
    checked = 0
    for alpha in dict.fromkeys(GRID_ALPHAS + CACHE_ALPHAS):
        profile, _ = _profile(alpha)
        if profile.kind is AlphaKind.RATIONAL:
            continue
        c, nu = profile.floor_constant, profile.floor_power
        num, den = alpha.as_integer_ratio()
        p_last, q_last = cf_expand(alpha).convergents[-1]
        for last, ratio in ((p_last, (den, num)), (q_last, (num, den))):
            for m in range(1, min(20000, last)):
                assert abs(sin_mpi(m, *ratio)) >= c / m ** nu, (alpha, ratio, m)
                checked += 1
    assert checked > 500000


def test_classify_shortcut_premise_peak_bounds_the_noise_sum():
    # the series' noise check before it sums (``_stop``) reads a family's largest term bound p from two bounds, and
    # p <= sum <= s p places the family's bound-sum, s its stopping index:
    # bounds step beta**(step m - 1) m**nu / c up to s, and p taken, as
    # ``_stop`` takes it, at floor k or floor k + 1 with
    # k = nu / (-step log beta), where a log-concave sequence peaks
    checked = 0
    for alpha in (math.sqrt(2.0), 0.5 + math.sqrt(2.0) / 40.0, math.pi / 2.0):
        for step, nu, beta, c, noise_cap in itertools.product(
                (1.0, alpha), (0.0, 1.0, 1.355, 25.6),
                (1e-6, 0.05, 0.3, 0.6, 0.8, 0.9, 0.95), (0.5, 1e-4, 1e-9),
                (5e-11, 5e-14)):
            stop, _ = _truncation(beta, step, step, 1.0, nu, c, noise_cap, 10000)
            if stop is None:
                continue
            bounds = [step * beta ** (step * m - 1.0) * m ** nu / c
                      for m in range(1, stop + 1)]
            top = int(min(nu / (-step * math.log(beta)), stop))
            peak = max(bounds[m - 1] for m in (max(top, 1), min(top + 1, stop)))
            assert peak == max(bounds), (step, nu, beta, c)
            assert peak <= math.fsum(bounds) <= stop * peak, (step, nu, beta, c)
            checked += 1
    assert checked > 1000


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

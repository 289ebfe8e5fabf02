import itertools
import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekappa import (
    AlphaKind,
    Tolerance,
    cf_expand,
    classify,
)
from stablekappa.accurate import EPS, sin_mpi, sin_pi
from stablekappa.diophantine import (
    RATIONAL_DENOMINATOR_CAP,
    AlphaClass,
    _fits,
    _pair_prefactor,
    _profile,
    _truncation,
)


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
    ac = classify(math.sqrt(2.0), beta=0.3)
    assert ac.kind is AlphaKind.IRRATIONAL
    # bounded partial quotients: the floor 1/2 / m holds at every convergent
    assert (ac.floor_power, ac.floor_constant) == (1.0, 0.5)


def test_classify_near_rational_ill_conditioned():
    # 1e-12 from 1/2 the generic floor model fails and the pairing at 1/2
    # holds; ill-conditioned is left where the pairs do not fit the term
    # budget or their noise the tolerance
    ac = classify(0.5 + 1e-12, Tolerance(), beta=0.9)
    assert (ac.kind, ac.p, ac.q) == (AlphaKind.IRRATIONAL, 1, 2)
    assert ac.floor_constant == 0.5 * sin_pi(0.5)
    for tol in (Tolerance(max_terms=50), Tolerance(abs_tol=1e-15)):
        ac = classify(0.5 + 1e-12, tol, beta=0.9)
        assert (ac.kind, ac.p, ac.q) == (AlphaKind.ILL_CONDITIONED, None, None)


def test_classify_tolerance_below_float_range_is_ill_conditioned():
    # an eighth of the smallest subnormal rounds to 0: no stopping index
    # reaches a zero target, paired or not
    tol = Tolerance(abs_tol=5e-324)
    for alpha in (math.sqrt(2.0), 1.50000001, 0.5 + 1e-12):
        assert classify(alpha, tol).kind is AlphaKind.ILL_CONDITIONED


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0,
                                   math.sqrt(2.0), math.sqrt(3.0),
                                   2.0 - math.sqrt(2.0), 0.5 + 1e-12])
def test_classify_reciprocal_agreement(alpha):
    if not 0.5 <= alpha <= 2.0:
        pytest.skip("reciprocal outside (0, 2]")
    a = classify(alpha, beta=0.5)
    b = classify(1.0 / alpha, beta=0.5)
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
    """Terms needed (or None) and bound-sum for one derivative-series
    family, with no early exit: the loop runs to the stopping index."""
    base = beta ** step
    s_abs = 0.0
    for m in range(1, tol.max_terms + 1):
        s_abs += prefactor * beta ** (step * m - 1.0) * m ** nu / c
        nxt = prefactor * beta ** (step * (m + 1) - 1.0) * (m + 1) ** nu / c
        ratio = base * ((m + 2) / (m + 1)) ** nu
        if ratio < 1.0 and nxt / (1.0 - ratio) < 0.5 * tol.abs_tol:
            return m, s_abs
    return None, s_abs


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


def _paired_uncached(alpha: float, tol: Tolerance, beta: float,
                     profile: AlphaClass) -> AlphaClass | None:
    """classify's pairing recomputed: the convergent p/q (p >= 1) before the
    largest partial quotient, first on ties; stopping indices scanned term
    by term for a bound under tol/8; proven floors from the exact drift."""
    cf = cf_expand(alpha)
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    if not ahead:
        return None
    best = max(a for a, _ in ahead)
    p, q = next(pq for a, pq in ahead if a == best)
    x = Fraction(alpha)
    eighth = Tolerance(abs_tol=tol.abs_tol / 4.0, max_terms=tol.max_terms)
    noise = 0.0
    for skip, step, drift in ((p, 1.0, abs(1 / x - Fraction(q, p))),
                              (q, alpha, abs(x - Fraction(p, q)))):
        if skip > 1:
            c = 0.5 * sin_pi(1.0 / skip)
            stop, _ = _projected_cost_full(beta, step, step, c, 0.0, eighth)
            margin = Fraction(1, skip) - stop * drift if stop else 0
            if stop is None or margin <= 0 or sin_pi(float(margin)) < c:
                return None
            noise += step * beta ** (step - 1.0) / (c * (1.0 - beta ** step))
    delta1 = abs(float(x * q - p))
    reach = min(delta1 * tol.max_terms, 0.5 * min(alpha, 1.0))
    pre = _pair_prefactor(alpha, p, reach, math.pi + abs(math.log(beta)), beta, 0)
    stop, _ = _projected_cost_full(beta, p, pre, 1.0, 0.0, eighth)
    if stop is None or stop * delta1 > reach:
        return None
    noise += pre * beta ** (p - 1.0) / (1.0 - beta ** p)
    if 4.0 * EPS * noise > 0.5 * tol.abs_tol:
        return None
    return replace(profile, p=p, q=q, floor_constant=0.5 * sin_pi(1.0 / max(p, q))
                   if max(p, q) > 1 else 0.0)


def _classify_uncached(alpha: float, tol: Tolerance, beta: float,
                       profile: AlphaClass | None = None) -> AlphaClass:
    """classify recomputed with no cache in between and both families
    projected in full, then the pairing where that fails; ``profile`` is
    alpha's ``_uncached_profile`` when the caller already has it."""
    profile = profile or _uncached_profile(alpha)
    if profile.kind is AlphaKind.RATIONAL:
        return profile
    nu = profile.floor_power
    c = profile.floor_constant
    beta_proj = min(max(beta, 1e-6), 0.95)
    m1, s1 = _projected_cost_full(beta_proj, 1.0, 1.0, c, nu, tol)
    m2, s2 = _projected_cost_full(beta_proj, alpha, alpha, c, nu, tol)
    ill = m1 is None or m2 is None or 4.0 * EPS * (s1 + s2) > 0.5 * tol.abs_tol
    if not ill:
        return profile
    paired = _paired_uncached(alpha, tol, beta_proj, profile)
    return paired or replace(profile, kind=AlphaKind.ILL_CONDITIONED)


def test_classify_matches_uncached_recomputation():
    _profile.cache_clear()
    kinds = set()
    for alpha in CACHE_ALPHAS:
        for tol in CACHE_TOLS:
            for beta in CACHE_BETAS:
                got = classify(alpha, tol, beta)
                want = _classify_uncached(alpha, tol, beta)
                assert got == want, (alpha, tol, beta)
                assert got.floor_constant.hex() == want.floor_constant.hex()
                kinds.add((got.kind, got.p is not None))
    assert kinds == {(AlphaKind.RATIONAL, True), (AlphaKind.IRRATIONAL, False),
                     (AlphaKind.IRRATIONAL, True), (AlphaKind.ILL_CONDITIONED, False)}


# near-resonant alphas at several distances from 1/2, 1, 3/2 and 2, and
# generic irrationals on both sides of 1
GRID_ALPHAS = (0.5 + 1e-12, 0.5 + 1e-9 * math.pi, 0.5 + 1e-6 * math.pi,
               1.0 - 1e-8 * math.pi, 1.0 + 1e-5 * math.pi, 1.5 + 1e-8 * math.pi,
               1.5 - 1e-4 * math.pi, 2.0 - 1e-7 * math.pi, math.sqrt(2.0) / 2.0,
               math.sqrt(3.0), math.e / 2.0, 0.5 + math.sqrt(2.0) / 40.0,
               math.sqrt(2.0), math.pi / 2.0)
# 0.75 to 0.95 in steps of 0.01, where the well-conditioned alphas move from
# the upper-bound shortcut to the exact noise sum
GRID_BETAS = tuple(sorted({i / 20.0 for i in range(1, 20)} | {1e-6, 1e-3, 0.99}
                          | {i / 100.0 for i in range(75, 96)}))
GRID_TOLS = (Tolerance(abs_tol=1e-8), Tolerance(), Tolerance(abs_tol=1e-13),
             Tolerance(abs_tol=1e-10, max_terms=300), Tolerance(max_terms=100),
             Tolerance(abs_tol=1e-12, max_terms=500))


def test_classify_early_exit_keeps_every_verdict():
    kinds = set()
    for alpha in GRID_ALPHAS:
        profile = _uncached_profile(alpha)
        for tol in GRID_TOLS:
            for beta in GRID_BETAS:
                got = classify(alpha, tol, beta)
                want = _classify_uncached(alpha, tol, beta, profile)
                assert got == want, (alpha, tol, beta)
                kinds.add((got.kind, got.p is not None))
    # generic, paired near a resonance, and ill-conditioned where neither fits
    assert kinds == {(AlphaKind.IRRATIONAL, False), (AlphaKind.IRRATIONAL, True),
                     (AlphaKind.ILL_CONDITIONED, False)}


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


def test_fits_refuses_a_noise_sum_just_over_the_cap():
    # term bounds nearly flat up to the stopping index (nu = 16 at beta 1/2)
    # bring the exact bound-sum within 20x of classify's shortcut upper bound
    # 2 s p per family: each peak fits, the sum's noise does not, so _fits
    # must refuse, where a shortcut loosened to 20x the cap would accept
    alpha, nu, c, tol, beta = math.sqrt(2.0), 16.0, 3.3e11, Tolerance(), 0.5
    noise_cap = 0.5 * tol.abs_tol
    total, upper = [], 0.0
    for step in (1.0, alpha):
        stop, _ = _truncation(beta, step, step, 1.0, nu, c, noise_cap, tol.max_terms)
        bounds = [step * beta ** (step * m - 1.0) * m ** nu / c
                  for m in range(1, stop + 1)]
        assert 4.0 * EPS * max(bounds) <= noise_cap
        total += bounds
        upper += 2.0 * stop * max(bounds)
    assert noise_cap < 4.0 * EPS * math.fsum(total)
    assert 4.0 * EPS * upper <= 20.0 * noise_cap
    assert not _fits(alpha, nu, c, tol, beta)


def test_classify_shortcut_premise_peak_bounds_the_noise_sum():
    # classify decides Irrational from 2 s p and IllConditioned from p alone
    # (p a family's largest term bound, s its stopping index), without the
    # bound-sum in between.  That rests on p <= sum <= s p for every family
    # it builds: bounds step beta**(step m - 1) m**nu / c up to s, and p
    # taken, as classify takes it, at floor k or floor k + 1 with
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


def test_classify_pairing_needs_the_proven_floors():
    # 3.1e-3 above 3/2 at tol 1e-13 the generic model fails and the pairs
    # fit their reach; from beta 0.8 on the first family
    # stops past the index where its proven floor, 1/3 less the drift, keeps
    # half of sin(pi/3), so the pairing is refused there
    alpha, tol = 1.5 + 1e-3 * math.pi, Tolerance(abs_tol=1e-13)
    ac = classify(alpha, tol, 0.75)
    assert (ac.kind, ac.p, ac.q) == (AlphaKind.IRRATIONAL, 3, 2)
    assert classify(alpha, tol, 0.8).kind is AlphaKind.ILL_CONDITIONED


def test_profile_cache_stays_at_its_bound():
    bound = _profile.cache_info().maxsize
    for i in range(bound + 8):
        classify(1.0 + math.sqrt(2.0) / (100.0 + i), beta=0.5)
    assert _profile.cache_info().currsize == bound

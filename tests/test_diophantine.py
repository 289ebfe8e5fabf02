import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablekappa import (
    AlphaKind,
    InsufficientDataError,
    Tolerance,
    cf_expand,
    classify,
    estimate_exponent,
)
from stablekappa.accurate import EPS, sin_mpi, sin_pi
from stablekappa.diophantine import (
    RATIONAL_DENOMINATOR_CAP,
    AlphaClass,
    ContinuedFraction,
    _floor_constant,
    _profile,
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


def _build_cf(quotients: list[int]) -> ContinuedFraction:
    """ContinuedFraction from given quotients (for synthetic expansions)."""
    p1, q1, p2, q2 = 1, 0, 0, 1
    convs = []
    for a in quotients:
        p, q = a * p1 + p2, a * q1 + q2
        convs.append((p, q))
        p2, q2, p1, q1 = p1, q1, p, q
    return ContinuedFraction(tuple(quotients), tuple(convs), 0.0, False)


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


def test_estimate_exponent_sqrt2_close_to_two():
    nhat = estimate_exponent(cf_expand(math.sqrt(2.0)))
    assert 2.0 <= nhat < 2.5


def test_estimate_exponent_sqrt3_golden():
    assert 2.0 <= estimate_exponent(cf_expand(math.sqrt(3.0))) < 2.6
    x = (1.0 + math.sqrt(5.0)) / 2.0 - 1.0
    assert 2.0 <= estimate_exponent(cf_expand(x)) < 2.3


def test_estimate_exponent_liouville_like_large_and_monotone():
    quotients = [1, 10, 10**2, 10**4, 10**8]
    prev = 0.0
    for depth in (3, 4, 5):
        nhat = estimate_exponent(_build_cf(quotients[:depth]))
        assert nhat >= prev
        prev = nhat
    assert prev >= 3.0


def test_estimate_exponent_needs_three_convergents():
    with pytest.raises(InsufficientDataError):
        estimate_exponent(_build_cf([1, 2]))


def test_classify_rational():
    ac = classify(0.5)
    assert ac.kind is AlphaKind.RATIONAL
    assert (ac.p, ac.q) == (1, 2)
    ac = classify(2.0)
    assert (ac.p, ac.q) == (2, 1)


def test_classify_sqrt2_irrational():
    ac = classify(math.sqrt(2.0), beta=0.3)
    assert ac.kind is AlphaKind.IRRATIONAL
    assert 2.0 <= ac.exponent_estimate < 2.5
    assert ac.floor_constant > 0.0


def test_classify_near_rational_ill_conditioned():
    ac = classify(0.5 + 1e-12, Tolerance(), beta=0.9)
    assert ac.kind is AlphaKind.ILL_CONDITIONED


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0, 1.5, 2.0,
                                   math.sqrt(2.0), math.sqrt(3.0),
                                   2.0 - math.sqrt(2.0), 0.5 + 1e-12])
def test_classify_reciprocal_agreement(alpha):
    if not 0.5 <= alpha <= 2.0:
        pytest.skip("reciprocal outside (0, 2]")
    a = classify(alpha, beta=0.5)
    b = classify(1.0 / alpha, beta=0.5)
    assert a.kind is b.kind


def test_classify_profile_is_model_floor():
    # c / m**(N - 1) bounds both divisor families over the 256 probed
    # indices and touches one of them (or is the 0.5 cap)
    alpha = math.sqrt(2.0)
    ac = classify(alpha, beta=0.5)
    nu = ac.exponent_estimate - 1.0
    num, den = alpha.as_integer_ratio()
    scaled = [min(abs(sin_mpi(m, den, num)), abs(sin_mpi(m, num, den))) * m ** nu
              for m in range(1, 257)]
    assert min(scaled + [0.5]) == ac.floor_constant


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


def _uncached_profile(alpha: float) -> AlphaClass:
    """The beta-free part of classify, recomputed with no cache."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(kind=AlphaKind.RATIONAL, p=p_last, q=q_last,
                          floor_constant=floor)
    try:
        nhat = estimate_exponent(cf)
    except InsufficientDataError:
        nhat = 2.0
    return AlphaClass(kind=AlphaKind.IRRATIONAL, exponent_estimate=nhat,
                      floor_constant=_floor_constant(alpha, nhat - 1.0))


def _classify_uncached(alpha: float, tol: Tolerance, beta: float,
                       profile: AlphaClass | None = None) -> AlphaClass:
    """classify recomputed with no cache in between and both families
    projected in full; ``profile`` is alpha's ``_uncached_profile`` when
    the caller already has it."""
    profile = profile or _uncached_profile(alpha)
    if profile.kind is AlphaKind.RATIONAL:
        return profile
    nu = profile.exponent_estimate - 1.0
    c = profile.floor_constant
    beta_proj = min(max(beta, 1e-6), 0.95)
    m1, s1 = _projected_cost_full(beta_proj, 1.0, 1.0, c, nu, tol)
    m2, s2 = _projected_cost_full(beta_proj, alpha, alpha, c, nu, tol)
    ill = m1 is None or m2 is None or 4.0 * EPS * (s1 + s2) > 0.5 * tol.abs_tol
    return replace(profile, kind=AlphaKind.ILL_CONDITIONED) if ill else profile


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
                kinds.add(got.kind)
    assert kinds == set(AlphaKind)


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
                kinds.add(got.kind)
    assert kinds == {AlphaKind.IRRATIONAL, AlphaKind.ILL_CONDITIONED}


def test_profile_cache_stays_at_its_bound():
    bound = _profile.cache_info().maxsize
    for i in range(bound + 8):
        classify(1.0 + math.sqrt(2.0) / (100.0 + i), beta=0.5)
    assert _profile.cache_info().currsize == bound

import math
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
    min_abs_sin,
)
from stablekappa.accurate import div2, sin_mpi
from stablekappa.diophantine import ContinuedFraction


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
    cf = cf_expand(x, 40)
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


def test_min_abs_sin_exact_zero_at_half():
    assert min_abs_sin(0.5, 4) == 0.0


def test_min_abs_sin_sqrt2_bound():
    v = min_abs_sin(math.sqrt(2.0), 100)
    assert v >= 1.0 / 200.0
    # independent spot check of the minimum via mpmath
    with mpmath.workdps(50):
        s2 = mpmath.sqrt(2)
        want = min(abs(mpmath.sinpi(m * s2)) for m in range(1, 101))
    assert abs(v - float(want)) < 1e-12


def test_min_abs_sin_near_half():
    v = min_abs_sin(0.5 + 1e-9, 4)
    # attained at m = 2: |sin(pi + 2 pi 1e-9)| = 2 pi 1e-9 to first order
    assert abs(v - 2.0 * math.pi * 1e-9) < 1e-14


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
    inv = div2(1.0, alpha)
    scaled = [min(abs(sin_mpi(m, *inv)), abs(sin_mpi(m, alpha))) * m ** nu
              for m in range(1, 257)]
    assert min(scaled + [0.5]) == ac.floor_constant

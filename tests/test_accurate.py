from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CompensatedSum
from stablekappa.accurate import (
    cos_mpi,
    cos_pi,
    reduced,
    sin_mpi,
    sin_pi,
)


def _exact_reduction(n: int, x: Fraction) -> tuple[Fraction, int]:
    """n*x as (distance to the nearest integer, its parity), ties to even."""
    k = round(n * x)  # Fraction rounds half to even
    return n * x - k, k & 1


# doubles carry power-of-two denominators; b/a and rho p/q carry any
_ratios = st.one_of(
    st.floats(min_value=1e-3, max_value=4.0).map(float.as_integer_ratio),
    st.tuples(st.integers(min_value=-2**60, max_value=2**60),
              st.integers(min_value=1, max_value=2**60)))


@settings(max_examples=400, deadline=None)
@given(ratio=_ratios, n=st.integers(min_value=0, max_value=2**60))
def test_reduced_matches_exact_rational_reduction(ratio, n):
    # the residue is exact for any multiplier, here up to 2**60
    num, den = ratio
    d, parity = reduced(n, num, den)
    exact_d, exact_parity = _exact_reduction(n, Fraction(num, den))
    assert d == float(exact_d)
    assert parity == exact_parity


def test_reduced_ties_go_to_the_even_integer():
    # n*x = j + 1/2 sits halfway between j and j + 1
    for j in range(-4, 5):
        d, parity = reduced(1, 2 * j + 1, 2)
        assert parity == 0
        assert d == (0.5 if j % 2 == 0 else -0.5)
    assert reduced(3, 1, 2) == (-0.5, 0)      # 1.5 -> 2
    assert reduced(5, 1, 2) == (0.5, 0)       # 2.5 -> 2
    assert reduced(2**60 + 1, 1, 2) == (0.5, 0)   # 2**59 + 1/2 -> 2**59
    assert reduced(2**60 + 3, 1, 2) == (-0.5, 0)  # 2**59 + 3/2 -> 2**59 + 2


def test_sin_cos_mpi_near_a_resonance():
    # sin(n pi x) at a multiple 1e-17 away from an integer, with n = 3**40,
    # keeps its relative accuracy
    x = Fraction(1, 3) + Fraction(1, 10**17 * 3**40)
    num, den = x.numerator, x.denominator
    n = 3**40
    with mpmath.workdps(60):
        want_s = float(mpmath.sinpi(mpmath.mpf(n * num) / den))
        want_c = float(mpmath.cospi(mpmath.mpf(n * num) / den))
    assert abs(sin_mpi(n, num, den) - want_s) <= 4e-16 * abs(want_s)
    assert abs(cos_mpi(n, num, den) - want_c) <= 4e-16


@settings(max_examples=200, deadline=None)
@given(r=st.floats(min_value=-1.0, max_value=1.0))
def test_sin_cos_pi_match_mpmath(r):
    with mpmath.workdps(40):
        want_s = float(mpmath.sinpi(r))
        want_c = float(mpmath.cospi(r))
    assert abs(sin_pi(r) - want_s) < 4e-16
    assert abs(cos_pi(r) - want_c) < 4e-16


def test_sin_pi_exact_zeros_and_ones():
    assert sin_pi(1.0) == 0.0
    assert sin_pi(-1.0) == 0.0
    assert sin_pi(0.0) == 0.0
    assert sin_pi(0.5) == 1.0
    assert cos_pi(0.5) == 0.0


def test_compensated_sum_beats_naive():
    values = [1.0, 1e-16, -1.0, 1e-16] * 10000
    acc = CompensatedSum()
    naive = 0.0
    for v in values:
        acc.add(v)
        naive += v
    assert abs(acc.value - 2e-12) < 1e-23
    assert abs(naive - 2e-12) > 1e-13

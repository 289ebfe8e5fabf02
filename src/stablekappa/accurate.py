"""Compensated summation and trig of pi-multiples.

Small divisors like sin(m*pi/alpha) are meaningless unless the product
m/alpha is reduced modulo 2 without losing its low bits.  Every argument
the package reduces is a ratio of integers taken exactly from doubles
(``float.as_integer_ratio``), so ``reduced`` takes one integer ``divmod``
and returns the exact residue, correctly rounded, for any index.
"""

from __future__ import annotations

import math

EPS = 2.220446049250313e-16  # 2**-52


class CompensatedSum:
    """Running sum with Neumaier compensation.

    Keeps the accumulated rounding residue in a side term so that sums of
    wildly different magnitudes (alternating series with small divisors)
    lose almost nothing to cancellation.
    """

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


def reduced(n: int, num: int, den: int) -> tuple[float, int]:
    """n*num/den (den > 0) as (d, parity): distance d in [-1/2, 1/2] to the
    nearest integer, and that integer's parity.  A tie goes to the even
    integer.  The residue is exact until the final division, so d is the
    correctly rounded distance even when the multiple sits very close to an
    integer.
    """
    q, r = divmod(n * num, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
        r -= den
    return r / den, q & 1


def sin_pi(r: float) -> float:
    """sin(pi * r) for r in [-1, 1], exact at the lattice points."""
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def cos_pi(r: float) -> float:
    """cos(pi * r) for r in [-1, 1], accurate near the zero at r = 1/2."""
    r = abs(r)
    if r <= 0.25:
        return math.cos(math.pi * r)
    if r < 0.75:
        return math.sin(math.pi * (0.5 - r))
    return -math.cos(math.pi * (1.0 - r))


def sin_mpi(n: int, num: int, den: int) -> float:
    """sin(n * pi * num/den)."""
    d, parity = reduced(n, num, den)
    s = math.sin(math.pi * d)
    return -s if parity else s


def cos_mpi(n: int, num: int, den: int) -> float:
    """cos(n * pi * num/den)."""
    d, parity = reduced(n, num, den)
    c = cos_pi(d)
    return -c if parity else c


def sincos_mpi(n: int, num: int, den: int) -> tuple[float, float]:
    """(sin, cos) of n * pi * num/den from one reduction."""
    d, parity = reduced(n, num, den)
    s, c = math.sin(math.pi * d), cos_pi(d)
    return (-s, -c) if parity else (s, c)

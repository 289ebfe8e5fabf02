"""Closed-form Doney evaluators.

When rho + k = l/alpha for integers k >= 1, l >= 0, the function g
collapses to finite Chebyshev-logarithm sums

    g(beta) = g_k(alpha, (-1)^(l+1) beta^alpha) - g_l(1/alpha, (-1)^(k+1) beta)

with g_k(a, x) = sum_m x^m U_{k-1}(cos(m pi a))/m, valid for every alpha
in (0, 2] by continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .accurate import EPS, cos_mpi
from .params import DegenerateLogError, OutOfRangeError, StableParams

_K_MAX = 32
_MATCH_RTOL = 4.0 * EPS
_DONEY_CACHE = 64


@dataclass(frozen=True)
class DoneyCase:
    """Integers (k, l) with rho + k = l/alpha, k >= 1, l >= 0."""

    k: int
    l: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.l < 0:
            raise OutOfRangeError(f"need k >= 1 and l >= 0, got {self!r}")


@lru_cache(maxsize=_DONEY_CACHE)
def find_doney_case(params: StableParams) -> DoneyCase | None:
    """Smallest k in [1, _K_MAX] with rho + k = l/alpha for an integer l >= 0.

    Matching tolerance is 4 ulp relative on rho + k; returns None when no
    such pair exists, which is the generic outcome for irrational alpha.
    The answer depends on params alone and is cached for the last
    ``_DONEY_CACHE`` of them.
    """
    for k in range(1, _K_MAX + 1):
        target = params.rho + k
        l = round(params.alpha * target)
        if l < 0:
            continue
        if abs(target - l / params.alpha) <= _MATCH_RTOL * target:
            return DoneyCase(k, int(l))
    return None


@lru_cache(maxsize=_DONEY_CACHE)
def _cosines(a: float, k: int) -> tuple[float, ...]:
    """cos(n pi a) for the n of g_k's closed form: the odd n < k for even k,
    the even 2 <= n < k for odd k."""
    num, den = a.as_integer_ratio()
    return tuple(cos_mpi(n, num, den) for n in range(1 + k % 2, k, 2))


def _log_term(x: float, c: float, derivative: bool) -> float:
    """log(x^2 - 2 x c + 1), or x times its derivative in x, 2 x (x - c) /
    (x^2 - 2 x c + 1), raising when the argument degenerates."""
    arg = x * (x - 2.0 * c)
    if arg <= -1.0:
        raise DegenerateLogError(
            f"log argument {1.0 + arg!r} not positive (x={x!r}, cos={c!r})")
    return 2.0 * x * (x - c) / (1.0 + arg) if derivative else math.log1p(arg)


def g_k_closed(a: float, x: float, k: int, derivative: bool = False) -> float:
    """g_k(a, x) via its finite parity-split closed form, or x d/dx g_k(a, x)
    = sum_m x^m U_{k-1}(cos(m pi a)) from the derivative of each log.

    Even k:  -g_k = sum_{n<k/2} log(x^2 - 2x cos((2n+1) a pi) + 1).
    Odd k:   -g_k = log(1-x) + sum_{1<=n<=(k-1)/2} log(x^2 - 2x cos(2n a pi) + 1).

    The cosines depend on (a, k) alone and are cached (``_cosines``).
    """
    if not abs(x) < 1.0:
        raise OutOfRangeError(f"|x| must be below 1, got {x!r}")
    if k < 0:
        raise OutOfRangeError(f"k must be nonnegative, got {k!r}")
    if k == 0:
        return 0.0
    total = 0.0
    if k % 2:
        total = -x / (1.0 - x) if derivative else math.log1p(-x)
    for c in _cosines(a, k):
        total += _log_term(x, c, derivative)
    return -total


def g_doney(params: StableParams, beta: float, case: DoneyCase,
            derivative: bool = False) -> float:
    """g(beta), or g'(beta), assembled from the closed Chebyshev-log sums of
    the case: g' = (alpha X_k(alpha, x1) - X_l(1/alpha, x2))/beta with X =
    x d/dx g_k, since dx1/dbeta = alpha x1/beta and dx2/dbeta = x2/beta."""
    if not 0.0 < beta < 1.0:
        raise OutOfRangeError(f"beta must lie in (0, 1), got {beta!r}")
    alpha = params.alpha
    x1 = beta ** alpha if case.l % 2 == 1 else -(beta ** alpha)
    x2 = beta if case.k % 2 == 1 else -beta
    first = g_k_closed(alpha, x1, case.k, derivative)
    second = g_k_closed(1.0 / alpha, x2, case.l, derivative)
    return (alpha * first - second) / beta if derivative else first - second

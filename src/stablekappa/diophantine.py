"""Continued fractions and alpha's profile.

The power-series evaluators divide by sin(m*pi/alpha) and sin(k*pi*alpha).
How small those divisors get is a diophantine question, answered by the
convergents of alpha: by the best-approximation theorem (Khinchin,
*Continued Fractions*), the divisors are smallest at the convergent
denominators, the q_k of alpha's convergents p_k/q_k for the second series
and the p_k for the first.

* ``cf_expand``   partial quotients and convergents of a float,
* ``classify``    alpha's profile, all that dispatch reads (``_profile``).

The series stops at a contour cut whose tail bound needs no divisor bound,
and measures the rounding noise of the terms it sums.  A float can never
certify membership in a number-theoretic set, so the series' refusal
(``IllConditionedSeriesError``) is a statement about work and rounding noise
at the requested (beta, tolerance), not about the number itself.

The expansion, the rational verdict and the pairing convergent depend on
alpha alone; ``_profile`` computes them once per alpha (an LRU over
``_PROFILE_CACHE`` alphas).  The series decides its conditioning at each
beta from them, its cut and its terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .params import OutOfRangeError

# A terminating expansion counts as "really" rational only up to this
# denominator; beyond it the float cannot be told apart from an irrational.
RATIONAL_DENOMINATOR_CAP = 1_000_000

_CF_TERMS = 64              # partial quotients expanded at most
_PROFILE_CACHE = 64         # alphas whose beta-free profile is kept


class AlphaKind(Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a positive real.

    Convergents satisfy p_k = a_k p_{k-1} + p_{k-2} (same for q) and the
    denominators increase strictly from index 1 on.  ``exact`` is set when
    the expansion reproduced the input to float precision (the rationality
    cutoff), which happens for every rational input and eventually for any
    float whatsoever.
    """

    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]
    value: float
    exact: bool


def cf_expand(x: float) -> ContinuedFraction:
    """Continued-fraction expansion of x > 0.

    The expansion runs on the exact dyadic value of the float (integer
    Euclid steps), so every returned pair is a true convergent and
    |x - p/q| < 1/q**2 holds throughout.  It stops after ``_CF_TERMS``
    terms, on exact termination, or at the rationality cutoff: a convergent
    whose residual |x - p/q| falls below 4 machine epsilons of x.  The last
    two cases set ``exact``.
    """
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or not x > 0.0:
        raise OutOfRangeError(f"cf_expand requires finite x > 0, got {x!r}")
    x = float(x)
    num0, den0 = x.as_integer_ratio()
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_m1, q_m1 = 1, 0
    p_m2, q_m2 = 0, 1
    num, den = num0, den0
    exact = False
    for _ in range(_CF_TERMS):
        a, rem = divmod(num, den)
        p = a * p_m1 + p_m2
        q = a * q_m1 + q_m2
        quotients.append(int(a))
        convergents.append((p, q))
        if rem == 0:
            exact = True
            break
        # cutoff |x - p/q| <= 4 eps x, as exact integers:
        # |num0 q - p den0| * 2**50 <= num0 q  (4 eps = 2**-50)
        if abs(num0 * q - p * den0) << 50 <= num0 * q:
            exact = True
            break
        p_m2, q_m2 = p_m1, q_m1
        p_m1, q_m1 = p, q
        num, den = den, rem
    return ContinuedFraction(tuple(quotients), tuple(convergents), x, exact)


@dataclass(frozen=True)
class AlphaClass:
    """Profile of a stability index: Rational(p, q), or Irrational."""

    kind: AlphaKind
    p: int | None = None
    q: int | None = None


@lru_cache(maxsize=_PROFILE_CACHE)
def _profile(alpha: float) -> tuple[AlphaClass, tuple[int, int] | None]:
    """``classify``'s profile: Rational(p, q), or Irrational; and the
    pairing convergent: the p/q (p >= 1) before the largest partial quotient
    a, where |alpha q - p| < 1/(a q) comes closest for its size, and where
    the divisors of the terms m = p and k = q are smallest."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        return AlphaClass(AlphaKind.RATIONAL, p=p_last, q=q_last), None
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    pair = max(ahead, key=lambda t: t[0])[1] if ahead else None
    return AlphaClass(AlphaKind.IRRATIONAL), pair


def classify(alpha: float) -> AlphaClass:
    """alpha's profile, cached per alpha: Rational(p, q) when its expansion
    terminates at a modest denominator, else Irrational.  The series
    decides its conditioning at each beta from it."""
    if not 0.0 < alpha <= 2.0:
        raise OutOfRangeError(f"alpha must lie in (0, 2], got {alpha!r}")
    return _profile(float(alpha))[0]

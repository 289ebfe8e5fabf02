"""Continued fractions, divisor floors, and stopping indices.

The power-series evaluators divide by sin(m*pi/alpha) and sin(k*pi*alpha).
How small those divisors get is a diophantine question, answered by the
convergents of alpha.  By the best-approximation theorem (Khinchin,
*Continued Fractions*), if d_k < d_{k+1} are consecutive convergent
denominators of x, then ||m x|| >= ||d_k x|| for every 1 <= m < d_{k+1}.
The denominators are the q_k of alpha's convergents p_k/q_k for x = alpha,
and the p_k for x = 1/alpha.  So one value per convergent bounds a whole
segment of indices, and this module reads the divisor floor c / m**nu off
the expansion (``_floor_model``):

* ``cf_expand``   partial quotients and convergents of a float,
* ``classify``    alpha's profile, all that dispatch reads (``_profile``),
* ``_truncation`` the stopping index of a sum of term bounds.

The floor is proven for every index below the last denominator of the
expansion; past it the model is assumed.  A float can never certify
membership in a number-theoretic set, so the series' refusal
(``IllConditionedSeriesError``) is a statement about projected work and
rounding noise at the requested (beta, tolerance), not about the number
itself.

The expansion, the rational verdict, the floor model and the pairing
convergent depend on alpha alone; ``_profile`` computes them once per alpha
(an LRU over ``_PROFILE_CACHE`` alphas).  The series decides its
conditioning at each beta from them and the stopping indices it sums to.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .accurate import sin_mpi, sin_pi
from .params import OutOfRangeError

# A terminating expansion counts as "really" rational only up to this
# denominator; beyond it the float cannot be told apart from an irrational.
RATIONAL_DENOMINATOR_CAP = 1_000_000

_CF_TERMS = 64              # partial quotients expanded at most
_PROFILE_CACHE = 64         # alphas whose beta-free profile is kept
_NEWTON_STEPS = 16          # iterations for a stopping index's root


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
    """Profile of a stability index: Rational(p, q), or Irrational.

    The lower bound for both divisor families |sin(m*pi/alpha)| and
    |sin(m*pi*alpha)| is floor_constant / m**floor_power, proven below the
    last convergent denominator of each family and assumed past it
    (``_floor_model``); for a recognized rational p/q it is the constant
    sin(pi/max(p, q)), and floor_power is None.
    """

    kind: AlphaKind
    p: int | None = None
    q: int | None = None
    floor_power: float | None = None
    floor_constant: float = 0.5


def _floor_model(cf: ContinuedFraction) -> tuple[float, float]:
    """(c, nu) with |sin(pi m x)| >= c / m**nu for x = 1/alpha and x = alpha
    and every m below the last convergent denominator of x: p_k for 1/alpha,
    q_k for alpha.

    c = min(1/2, |sin(pi/alpha)|, |sin(pi alpha)|) bounds the indices below
    the first denominator d >= 2, and nu = max(1, log(c / |sin(pi d x)|) /
    log d) over every denominator d >= 2 but the last makes c / d**nu a
    floor at each of them; each log ratio is raised by 1e-9, so the float
    c / d**nu stays below the sine it is read from.  By best approximation
    every m from d to the next denominator has |sin(pi m x)| >= |sin(pi d
    x)| >= c / m**nu.  The sines are exact reductions, two per convergent.
    """
    num, den = cf.value.as_integer_ratio()
    c = min(0.5, abs(sin_mpi(1, den, num)), abs(sin_mpi(1, num, den)))
    nu = 1.0
    for p, q in cf.convergents[:-1]:
        for d, ratio in ((p, (den, num)), (q, (num, den))):
            if d >= 2:
                nu = max(nu, math.log(c / abs(sin_mpi(d, *ratio))) / math.log(d) + 1e-9)
    return c, nu


def _truncation(beta: float, step: float, pre: float, shift: float, power: float,
                c: float, half_tol: float, max_terms: int) -> tuple[int | None, float]:
    """First m <= max_terms whose tail bound is below half_tol, with that
    bound; (None, the bound after max_terms) if none.  Term j is bounded by
    pre * beta**(step*j - shift) * j**power / c, the tail after m by term
    m + 1's bound over 1 - ratio, with ratio = beta**step *
    ((m+2)/(m+1))**max(power, 0) the largest ratio of consecutive bounds
    from there on (inf while ratio >= 1).  Both fall with m, and m + 1 is
    the root of log(tail / half_tol) (closed-form at power 0, else Newton's
    method right of the pole at ratio = 1), settled by walking the tail from
    that index to the first one below half_tol.  At power < 0 (g's sums in
    the split series) the ratio is beta**step and the log-tail convex, so
    Newton's method from the power-0 root converges to it as well.  Only
    where the root is out of reach is m found by doubling, which probes no
    index past 2m, and bisecting.
    """
    base, rise = beta ** step, max(power, 0)

    def tail(m: int) -> float:
        j = m + 1
        ratio = base * ((j + 1) / j) ** rise
        try:
            return (pre * beta ** (step * j - shift) * j ** power / c / (1.0 - ratio)
                    if ratio < 1.0 else math.inf)
        except OverflowError:
            return math.inf

    def root() -> float | None:
        room = half_tol * c / pre
        if not (0.0 < base < 1.0 and 0.0 < room < math.inf):
            return None
        log_beta, goal = math.log(beta), math.log(room)
        y = step * log_beta / rise if rise else -math.inf
        pole = math.exp(y) / -math.expm1(y)  # 1/expm1(-y), which cannot overflow
        j = max(((goal + math.log1p(-base)) / log_beta + shift) / step, 1.0, 2.0 * pole)
        for _ in range(_NEWTON_STEPS if power else 0):
            r = base * (1.0 + 1.0 / j) ** rise
            excess = (step * j - shift) * log_beta + power * math.log(j) - math.log1p(-r) - goal
            slope = step * log_beta + power / j - r * rise / (j * (j + 1.0) * (1.0 - r))
            j, last = max(j - excess / slope, 0.5 * (j + pole)), j
            if abs(j - last) < 0.5:
                return j
        return None if power else j

    guess = root()
    if guess is None:
        lo, hi = 0, 1
        while not tail(hi) < half_tol:
            if hi == max_terms:
                return None, tail(hi)
            lo, hi = hi, min(2 * hi, max_terms)
        stop = lo + 1 + bisect_left(range(lo + 1, hi), True, key=lambda m: tail(m) < half_tol)
        return stop, tail(stop)
    m = min(max(math.ceil(guess) - 1, 1), max_terms)
    while m > 1 and tail(m - 1) < half_tol:
        m -= 1
    while not (bound := tail(m)) < half_tol:
        if m == max_terms:
            return None, bound
        m += 1
    return m, bound


@lru_cache(maxsize=_PROFILE_CACHE)
def _profile(alpha: float) -> tuple[AlphaClass, tuple[int, int] | None]:
    """``classify``'s profile: Rational(p, q), or Irrational with the floor
    of ``_floor_model``; and the pairing convergent: the p/q (p >= 1)
    before the largest partial quotient a, where |alpha q - p| < 1/(a q)
    comes closest for its size."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(AlphaKind.RATIONAL, p=p_last, q=q_last, floor_constant=floor), None
    c, nu = _floor_model(cf)
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    pair = max(ahead, key=lambda t: t[0])[1] if ahead else None
    return AlphaClass(AlphaKind.IRRATIONAL, floor_power=nu, floor_constant=c), pair


def classify(alpha: float) -> AlphaClass:
    """alpha's profile, cached per alpha: Rational(p, q) when its expansion
    terminates at a modest denominator, else Irrational with the floor
    model.  The series decides its conditioning at each beta from it."""
    if not 0.0 < alpha <= 2.0:
        raise OutOfRangeError(f"alpha must lie in (0, 2], got {alpha!r}")
    return _profile(float(alpha))[0]

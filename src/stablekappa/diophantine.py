"""Continued fractions, irrationality-exponent estimation, and conditioning.

The power-series evaluators divide by sin(m*pi/alpha) and sin(k*pi*alpha).
How small those divisors get is a diophantine question: convergents p/q of
alpha witness near-resonances, and the growth rate of their denominators
bounds the irrationality exponent N in |alpha - p/q| > 1/q**N.  This module
turns that machinery into computable heuristics:

* ``cf_expand``       partial quotients and convergents of a float,
* ``estimate_exponent`` a denominator-growth estimate of N (clamped at 2),
* ``classify``        the verdict used for method dispatch.

A float can never certify membership in a number-theoretic set, so
``IllConditioned`` is a statement about projected work and rounding noise
at the requested (beta, tolerance), not about the number itself.

Only that last verdict depends on beta and the tolerance.  The expansion,
the rational verdict, the exponent estimate and the calibrated floor
depend on alpha alone; ``_profile`` computes them once per alpha (an LRU
over ``_PROFILE_CACHE`` alphas), and ``classify`` adds the per-beta noise
bound on top, up to each family's bisected stopping index (``_truncation``,
where every series of the package stops, the rational-alpha split's too).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .accurate import EPS, sin_mpi, sin_pi
from .params import InsufficientDataError, OutOfRangeError, Tolerance

# A terminating expansion counts as "really" rational only up to this
# denominator; beyond it the float cannot be told apart from an irrational.
RATIONAL_DENOMINATOR_CAP = 1_000_000

_CF_TERMS = 64              # partial quotients expanded at most
_CALIBRATION_DEPTH = 256    # indices probed when fitting the divisor floor
_EXPONENT_Q_MIN = 8         # denominators below this carry no growth signal
_PROFILE_CACHE = 64         # alphas whose beta-free profile is kept


class AlphaKind(Enum):
    RATIONAL = "rational"
    IRRATIONAL = "irrational"
    ILL_CONDITIONED = "ill_conditioned"


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


def estimate_exponent(cf: ContinuedFraction) -> float:
    """Irrationality-exponent estimate from convergent-denominator growth.

    Returns max over consecutive convergents of log(q_{k+1})/log(q_k) + 1,
    clamped below at 2 (the generic floor).  Pairs with tiny q_k carry no
    signal and are skipped whenever deeper pairs exist.
    """
    convs = cf.convergents
    if len(convs) < 3:
        raise InsufficientDataError(
            f"need at least 3 convergents, got {len(convs)}")
    ratios: list[tuple[int, float]] = []
    for (_, qk), (_, qk1) in zip(convs, convs[1:]):
        if qk >= 2:
            ratios.append((qk, math.log(qk1) / math.log(qk)))
    if not ratios:
        return 2.0
    deep = [r for qk, r in ratios if qk >= _EXPONENT_Q_MIN]
    pool = deep if deep else [r for _, r in ratios]
    return max(2.0, max(pool) + 1.0)


@dataclass(frozen=True)
class AlphaClass:
    """Conditioning verdict for a stability index.

    The model lower bound for both divisor families |sin(m*pi/alpha)| and
    |sin(m*pi*alpha)| is floor_constant / m**(exponent_estimate - 1); for a
    recognized rational p/q it is the constant sin(pi/max(p, q)).
    """

    kind: AlphaKind
    p: int | None = None
    q: int | None = None
    exponent_estimate: float | None = None
    floor_constant: float = 0.5


def _floor_constant(alpha: float, nu: float) -> float:
    """Empirical c with |sin(m*pi*x)| >= c / m**nu over the probed range."""
    num, den = alpha.as_integer_ratio()
    c = 0.5
    for m in range(1, _CALIBRATION_DEPTH + 1):
        scale = m ** nu
        c = min(c, abs(sin_mpi(m, den, num)) * scale,
                abs(sin_mpi(m, num, den)) * scale)
    return max(c, 5e-324)


def _truncation(beta: float, step: float, pre: float, shift: float, power: float,
                c: float, half_tol: float, max_terms: int) -> tuple[int | None, float]:
    """First m <= max_terms whose tail bound is below half_tol, with that
    bound; (None, the bound after max_terms) if none.  Term j is bounded by
    pre * beta**(step*j - shift) * j**power / c, the tail after m by term
    m + 1's bound over 1 - ratio, with ratio = beta**step *
    ((m+2)/(m+1))**max(power, 0) the largest ratio of consecutive bounds
    from there on (inf while ratio >= 1).  Both fall with m, so m is found
    by doubling, which probes no index past 2m, and then by bisection.
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

    lo, hi = 0, 1
    while not tail(hi) < half_tol:
        if hi == max_terms:
            return None, tail(hi)
        lo, hi = hi, min(2 * hi, max_terms)
    stop = lo + 1 + bisect_left(range(lo + 1, hi), True, key=lambda m: tail(m) < half_tol)
    return stop, tail(stop)


@lru_cache(maxsize=_PROFILE_CACHE)
def _profile(alpha: float) -> AlphaClass:
    """The beta-free part of ``classify``: Rational(p, q), or Irrational
    with the exponent estimate and the calibrated floor constant."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(AlphaKind.RATIONAL, p=p_last, q=q_last, floor_constant=floor)
    try:
        nhat = estimate_exponent(cf)
    except InsufficientDataError:
        nhat = 2.0
    return AlphaClass(AlphaKind.IRRATIONAL, exponent_estimate=nhat,
                      floor_constant=_floor_constant(alpha, nhat - 1.0))


def classify(alpha: float, tol: Tolerance | None = None, beta: float = 0.9) -> AlphaClass:
    """Classify alpha for series use at the given (beta, tolerance).

    Rational(p, q) when the expansion terminates at a modest denominator;
    IllConditioned when the projected series work or the projected rounding
    noise exceeds the budget of ``tol`` at this beta; Irrational otherwise.
    Only the IllConditioned verdict depends on beta and ``tol``: the rest
    is the per-alpha profile.  Per call, the term bounds
    step * beta**(step*m - 1) * m**nu / c of each g' family are log-concave
    in m, so their peak p and stopping index s give p <= sum <= s p.  The
    noise 4 eps sum must stay under half the tolerance: 4 eps p over it is
    IllConditioned, 4 eps 2 s p under it Irrational, else the sum decides.
    """
    if not 0.0 < alpha <= 2.0:
        raise OutOfRangeError(f"alpha must lie in (0, 2], got {alpha!r}")
    alpha = float(alpha)
    profile = _profile(alpha)
    if profile.kind is AlphaKind.RATIONAL:
        return profile
    tol = tol or Tolerance()
    nu = profile.exponent_estimate - 1.0
    c = profile.floor_constant
    beta = min(max(float(beta), 1e-6), 0.95)
    noise_cap = 0.5 * tol.abs_tol
    stops, upper = [], 0.0
    for step in (1.0, alpha):
        stop, _ = _truncation(beta, step, step, 1.0, nu, c, noise_cap, tol.max_terms)
        if stop is None:
            return replace(profile, kind=AlphaKind.ILL_CONDITIONED)
        top, peak = int(min(nu / (-step * math.log(beta)), stop)), 0.0
        for m in (max(top, 1), min(top + 1, stop)):
            peak = max(peak, step * beta ** (step * m - 1.0) * m ** nu / c)
        if 4.0 * EPS * peak > noise_cap:
            return replace(profile, kind=AlphaKind.ILL_CONDITIONED)
        stops.append(stop)
        upper += 2.0 * stop * peak
    if 4.0 * EPS * upper <= noise_cap:
        return profile
    carried = 0.0
    for step, stop in zip((1.0, alpha), stops):
        s_abs = 0.0
        for m in range(1, stop + 1):
            s_abs += step * beta ** (step * m - 1.0) * m ** nu / c
            if 4.0 * EPS * (carried + s_abs) > noise_cap:
                return replace(profile, kind=AlphaKind.ILL_CONDITIONED)
        carried = s_abs
    return profile

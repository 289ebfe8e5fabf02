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
over ``_PROFILE_CACHE`` alphas), and ``classify`` adds the per-beta
projection on top.
"""

from __future__ import annotations

import math
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


def _projected_cost(beta: float, step: float, prefactor: float, c: float,
                    nu: float, tol: Tolerance, carried: float) -> float | None:
    """Bound-sum of one derivative-series family, or None when it is over
    budget.

    Term m is bounded by prefactor * beta**(step*m - 1) * m**nu / c; the
    projection stops once the geometric-dominated tail of these bounds
    drops below half the target tolerance.  The family is over budget when
    that takes more than ``tol.max_terms`` terms, or when the projected
    rounding noise 4 eps (carried + bound-sum) exceeds half the tolerance;
    the sum only grows, so the second test ends the loop as soon as it
    fails.
    """
    base = beta ** step
    noise_cap = 0.5 * tol.abs_tol
    s_abs = 0.0
    for m in range(1, tol.max_terms + 1):
        s_abs += prefactor * beta ** (step * m - 1.0) * m ** nu / c
        if 4.0 * EPS * (carried + s_abs) > noise_cap:
            return None
        nxt = prefactor * beta ** (step * (m + 1) - 1.0) * (m + 1) ** nu / c
        ratio = base * ((m + 2) / (m + 1)) ** nu
        if ratio < 1.0 and nxt / (1.0 - ratio) < noise_cap:
            return s_abs
    return None


@lru_cache(maxsize=_PROFILE_CACHE)
def _profile(alpha: float) -> AlphaClass:
    """The beta-free part of ``classify``: Rational(p, q), or Irrational
    with the exponent estimate and the calibrated floor constant."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(
            kind=AlphaKind.RATIONAL,
            p=p_last, q=q_last,
            floor_constant=floor,
        )
    try:
        nhat = estimate_exponent(cf)
    except InsufficientDataError:
        nhat = 2.0
    return AlphaClass(
        kind=AlphaKind.IRRATIONAL,
        exponent_estimate=nhat,
        floor_constant=_floor_constant(alpha, nhat - 1.0),
    )


def classify(alpha: float, tol: Tolerance | None = None, beta: float = 0.9) -> AlphaClass:
    """Classify alpha for series use at the given (beta, tolerance).

    Rational(p, q) when the expansion terminates at a modest denominator;
    IllConditioned when the projected series work or the projected rounding
    noise exceeds the budget of ``tol`` at this beta; Irrational otherwise.
    Only the IllConditioned verdict depends on beta and ``tol``: the rest
    is the per-alpha profile, computed once, and each call reruns just the
    projection of the two series' cost at this beta.
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
    beta_proj = min(max(float(beta), 1e-6), 0.95)
    s1 = _projected_cost(beta_proj, 1.0, 1.0, c, nu, tol, 0.0)
    if s1 is None or _projected_cost(beta_proj, alpha, alpha, c, nu, tol, s1) is None:
        return replace(profile, kind=AlphaKind.ILL_CONDITIONED)
    return profile

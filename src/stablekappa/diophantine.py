"""Continued fractions, irrationality-exponent estimation, and conditioning.

The power-series evaluators divide by sin(m*pi/alpha) and sin(k*pi*alpha).
How small those divisors get is a diophantine question: convergents p/q of
alpha witness near-resonances, and the growth rate of their denominators
bounds the irrationality exponent N in |alpha - p/q| > 1/q**N.  This module
turns that machinery into computable heuristics and, near a resonance,
into proven floors:

* ``cf_expand``       partial quotients and convergents of a float,
* ``estimate_exponent`` a denominator-growth estimate of N (clamped at 2),
* ``classify``        the verdict used for method dispatch.

A float can never certify membership in a number-theoretic set, so
``IllConditioned`` is a statement about projected work and rounding noise
at the requested (beta, tolerance), not about the number itself.

Near a resonance alpha = p/q + eps the generic model floor is tiny, and
the series pairs instead: the first family's term m = n p and the second's
k = n q are summed as one (see ``series``), and every other index keeps a
proven floor.  For m <= M with p not dividing m,

    ||m/alpha|| >= 1/p - M |1/alpha - q/p|,

and for k <= M with q not dividing k, ||k alpha|| >= 1/q - M |alpha - p/q|
(``_proven_floor``).  ``classify`` tries that pairing only where its generic
verdict is IllConditioned, at the convergent ``_profile`` picks.

Only the conditioning verdict depends on beta and the tolerance.  The
expansion, the rational verdict, the exponent estimate, the calibrated floor
and the pairing convergent depend on alpha alone; ``_profile`` computes them
once per alpha (an LRU over ``_PROFILE_CACHE`` alphas), and ``classify`` adds
the per-beta noise bound on top, up to each family's bisected stopping
index (``_truncation``, where every series of the package stops).
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
    recognized rational p/q it is the constant sin(pi/max(p, q)).  An
    Irrational verdict with p and q set pairs the near-resonant terms at
    the convergent p/q: its floor_constant is half of sin(pi/max(p, q)),
    the floor proven for every other index up to the stopping index.
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
    by doubling, which probes no index past 2m, and then by bisection.  At
    power 0 the tail is geometric, pre beta**(step (m+1) - shift) / c /
    (1 - beta**step), and m comes from its logarithm instead, settled by
    evaluating the same tail at that index and its neighbours.
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

    # the geometric tail of power 0 falls below half_tol past log(room)
    room = half_tol * c * (1.0 - base) / pre if power == 0 else 0.0
    if 0.0 < base < 1.0 and 0.0 < room < math.inf:
        m = math.floor((math.log(room) / math.log(beta) + shift) / step)
        m = min(max(m, 1), max_terms)
        while m > 1 and tail(m - 1) < half_tol:
            m -= 1
        while not tail(m) < half_tol:
            if m == max_terms:
                return None, tail(m)
            m += 1
        return m, tail(m)

    lo, hi = 0, 1
    while not tail(hi) < half_tol:
        if hi == max_terms:
            return None, tail(hi)
        lo, hi = hi, min(2 * hi, max_terms)
    stop = lo + 1 + bisect_left(range(lo + 1, hi), True, key=lambda m: tail(m) < half_tol)
    return stop, tail(stop)


def _proven_floor(skip: int, drift: float, m: int) -> float:
    """A floor on |sin(pi j x)| for every j <= m that skip does not divide,
    where x lies within drift of a fraction with denominator skip (x = 1/alpha
    near q/p with skip = p, or x = alpha near p/q with skip = q): there
    ||j x|| >= 1/skip - m drift, and |sin(pi t)| grows with ||t|| up to 1/2.
    0 once the drift has eaten the distance 1/skip.
    """
    r = 1.0 / skip - m * drift
    return sin_pi(r) if r > 0.0 else 0.0


def _split_floors(ratio: tuple[int, int], p: int,
                  q: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """(floor, drift) of the split series' two nonresonant families at p/q,
    alpha given as its exact ratio of integers: sin(pi/p) and sin(pi/q) with
    no drift at alpha = p/q; else half of them, with the drifts
    |1/alpha - q/p| and |alpha - p/q| of ``_proven_floor``."""
    a_num, a_den = ratio
    gap = abs(a_num * q - p * a_den)
    c1, c2 = sin_pi(1.0 / p), sin_pi(1.0 / q)
    if not gap:
        return (c1, 0.0), (c2, 0.0)
    return (0.5 * c1, gap / (p * a_num)), (0.5 * c2, gap / (q * a_den))


def _pair_reach(delta1: float, alpha: float, max_terms: int) -> float:
    """The largest |delta_n| = n |delta_1| a pair bound must cover: that of
    every n up to the term budget, capped where delta or delta/alpha would
    reach half a period."""
    return min(abs(delta1) * max_terms, 0.5 * min(alpha, 1.0))


def _pair_prefactor(alpha: float, p: int, reach: float, weight: float, beta: float,
                    deg: int) -> float:
    """pre with |pair n| <= pre beta**(p n - shift) / n**deg for every pair n
    of the split series (``series._split``) with |delta_n| <= reach, where
    weight >= pi rho + |log beta| and deg is 1 for g, 0 for g'.

    The pair is s alpha/pi [D/sinc(delta) + H(N) E] with D the difference
    quotient of H between N and N + delta and E that of 1/sinc between
    delta/alpha and delta, divided by delta.  By the mean-value theorem
    D = H'(xi) for some xi within reach of N, so |D| <= beta**(N - shift -
    reach) (weight + deg/(N - reach)) / (N - reach)**deg; 1/sinc is even,
    convex and increasing in |x| below 1, so 1/sinc(delta) <= 1/sinc(reach)
    and |E| <= |1 - 1/alpha| times the slope of 1/sinc at reach/min(alpha,
    1).  With N - reach >= n (p - reach) that is the prefactor; at reach 0
    it is the resonant term's alpha (weight + deg/p) / (pi p**deg).
    """
    if reach == 0.0:
        return alpha * (weight + deg / p) / (math.pi * p ** deg)
    x = math.pi * reach
    grow = beta ** -reach * x / math.sin(x)
    y = x / min(alpha, 1.0)
    sin_y = math.sin(y)
    slope = abs(1.0 - 1.0 / alpha) * math.pi * (sin_y - y * math.cos(y)) / (sin_y * sin_y)
    lead = p - reach
    return alpha * (grow * (weight + deg / lead) + slope * (lead / p) ** deg) / (
        math.pi * lead ** deg)


@lru_cache(maxsize=_PROFILE_CACHE)
def _profile(alpha: float) -> tuple[AlphaClass, tuple[int, int] | None]:
    """The beta-free part of ``classify``: Rational(p, q), or Irrational
    with the exponent estimate and the calibrated floor constant, and the
    pairing convergent: the p/q (p >= 1) before the largest partial
    quotient a, where |alpha q - p| < 1/(a q) comes closest for its size."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(AlphaKind.RATIONAL, p=p_last, q=q_last, floor_constant=floor), None
    try:
        nhat = estimate_exponent(cf)
    except InsufficientDataError:
        nhat = 2.0
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    pair = max(ahead, key=lambda t: t[0])[1] if ahead else None
    return AlphaClass(AlphaKind.IRRATIONAL, exponent_estimate=nhat,
                      floor_constant=_floor_constant(alpha, nhat - 1.0)), pair


def _fits(alpha: float, nu: float, c: float, tol: Tolerance, beta: float) -> bool:
    """Whether both generic families stop within the term budget with their
    noise under half the tolerance (see ``classify``)."""
    noise_cap = 0.5 * tol.abs_tol
    stops, upper = [], 0.0
    for step in (1.0, alpha):
        stop, _ = _truncation(beta, step, step, 1.0, nu, c, noise_cap, tol.max_terms)
        if stop is None:
            return False
        top, peak = int(min(nu / (-step * math.log(beta)), stop)), 0.0
        for m in (max(top, 1), min(top + 1, stop)):
            peak = max(peak, step * beta ** (step * m - 1.0) * m ** nu / c)
        if 4.0 * EPS * peak > noise_cap:
            return False
        stops.append(stop)
        upper += 2.0 * stop * peak
    if 4.0 * EPS * upper <= noise_cap:
        return True
    carried = 0.0
    for step, stop in zip((1.0, alpha), stops):
        s_abs = 0.0
        for m in range(1, stop + 1):
            s_abs += step * beta ** (step * m - 1.0) * m ** nu / c
            if 4.0 * EPS * (carried + s_abs) > noise_cap:
                return False
        carried = s_abs
    return True


def _paired(alpha: float, profile: AlphaClass, pair: tuple[int, int],
            tol: Tolerance, beta: float) -> AlphaClass | None:
    """The paired verdict at the convergent p/q, or None where it fails.

    Like the split series, every sum stops where its bound falls below an
    eighth of the tolerance: the two nonresonant families with floors half
    of sin(pi/p) and sin(pi/q), the pairs by ``_pair_prefactor``.  The
    pairing holds when both proven floors stay at or above those halves up
    to the families' stopping indices and the pairs stop within their
    reach; the noise, 4 eps times the sum of every g' term bound (geometric
    sums in closed form), must stay under half the tolerance.
    """
    p, q = pair
    ratio = alpha.as_integer_ratio()
    target = 0.125 * tol.abs_tol
    noise = 0.0
    for skip, step, (c, drift) in zip((p, q), (1.0, alpha), _split_floors(ratio, p, q)):
        if skip == 1:
            continue  # every index of the family is paired
        stop, _ = _truncation(beta, step, step, 1.0, 0.0, c, target, tol.max_terms)
        if stop is None or _proven_floor(skip, drift, stop) < c:
            return None
        noise += step * beta ** (step - 1.0) / (c * (1.0 - beta ** step))
    delta1 = abs(ratio[0] * q - p * ratio[1]) / ratio[1]
    reach = _pair_reach(delta1, alpha, tol.max_terms)
    pre = _pair_prefactor(alpha, p, reach, math.pi + abs(math.log(beta)), beta, 0)
    stop, _ = _truncation(beta, p, pre, 1.0, 0.0, 1.0, target, tol.max_terms)
    if stop is None or stop * delta1 > reach:
        return None
    noise += pre * beta ** (p - 1.0) / (1.0 - beta ** p)
    if 4.0 * EPS * noise > 0.5 * tol.abs_tol:
        return None
    floor = 0.5 * sin_pi(1.0 / max(p, q)) if max(p, q) > 1 else 0.0
    return AlphaClass(AlphaKind.IRRATIONAL, p, q, profile.exponent_estimate, floor)


def classify(alpha: float, tol: Tolerance | None = None, beta: float = 0.9) -> AlphaClass:
    """Classify alpha for series use at the given (beta, tolerance).

    Rational(p, q) when the expansion terminates at a modest denominator;
    Irrational when the generic series fits the budget of ``tol`` at this
    beta, or else when the near-resonant pairs at the pairing convergent
    p/q do (``_paired``; the verdict then carries p and q);
    IllConditioned when neither does.  Only the Rational verdict is the
    per-alpha profile alone.  Per call, the generic term bounds
    step * beta**(step*m - 1) * m**nu / c of each g' family are log-concave
    in m, so their peak p and stopping index s give p <= sum <= s p.  The
    noise 4 eps sum must stay under half the tolerance: 4 eps p over it
    fails, 4 eps 2 s p under it fits, else the sum decides.
    """
    if not 0.0 < alpha <= 2.0:
        raise OutOfRangeError(f"alpha must lie in (0, 2], got {alpha!r}")
    alpha = float(alpha)
    profile, pair = _profile(alpha)
    if profile.kind is AlphaKind.RATIONAL:
        return profile
    tol = tol or Tolerance()
    beta = min(max(float(beta), 1e-6), 0.95)
    if _fits(alpha, profile.exponent_estimate - 1.0, profile.floor_constant, tol, beta):
        return profile
    paired = _paired(alpha, profile, pair, tol, beta) if pair else None
    return paired or replace(profile, kind=AlphaKind.ILL_CONDITIONED)

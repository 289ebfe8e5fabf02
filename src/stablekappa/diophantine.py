"""Continued fractions, proven divisor floors, and conditioning.

The power-series evaluators divide by sin(m*pi/alpha) and sin(k*pi*alpha).
How small those divisors get is a diophantine question, answered by the
convergents of alpha.  By the best-approximation theorem (Khinchin,
*Continued Fractions*), if d_k < d_{k+1} are consecutive convergent
denominators of x, then ||m x|| >= ||d_k x|| for every 1 <= m < d_{k+1}.
The denominators are the q_k of alpha's convergents p_k/q_k for x = alpha,
and the p_k for x = 1/alpha.  So one value per convergent bounds a whole
segment of indices, and this module reads the divisor floor c / m**nu off
the expansion (``_floor_model``):

* ``cf_expand``  partial quotients and convergents of a float,
* ``classify``   the verdict used for method dispatch, or at one beta.

The floor is proven for every index below the last denominator of the
expansion; past it the model is assumed.  A float can never certify
membership in a number-theoretic set, so ``IllConditioned`` is a statement
about projected work and rounding noise at the requested (beta,
tolerance), not about the number itself.

Near a resonance alpha = p/q + eps the generic floor is tiny, and
the series pairs instead: the first family's term m = n p and the second's
k = n q are summed as one (see ``series``), and every other index keeps a
proven floor.  For m <= M with p not dividing m,

    ||m/alpha|| >= 1/p - M |1/alpha - q/p|,

and for k <= M with q not dividing k, ||k alpha|| >= 1/q - M |alpha - p/q|
(``_proven_floor``).  The series pairs only where its generic sum
refuses, at the convergent ``_profile`` picks.

The expansion, the rational verdict, the floor model and the pairing
convergent depend on alpha alone; ``_profile`` computes them once per alpha
(an LRU over ``_PROFILE_CACHE`` alphas), and dispatch reads nothing else.
The series decides its conditioning at each beta from the stopping indices
it sums to (``_stop``, ``_split_stops``); ``classify`` reports it for g'.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import suppress
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

from .accurate import EPS, sin_mpi, sin_pi
from .params import IllConditionedSeriesError, OutOfRangeError, Tolerance

# A terminating expansion counts as "really" rational only up to this
# denominator; beyond it the float cannot be told apart from an irrational.
RATIONAL_DENOMINATOR_CAP = 1_000_000

_CF_TERMS = 64              # partial quotients expanded at most
_PROFILE_CACHE = 64         # alphas whose beta-free profile is kept
_NEWTON_STEPS = 16          # iterations for a stopping index's root


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


@dataclass(frozen=True)
class AlphaClass:
    """Conditioning verdict for a stability index.

    The lower bound for both divisor families |sin(m*pi/alpha)| and
    |sin(m*pi*alpha)| is floor_constant / m**floor_power, proven below the
    last convergent denominator of each family and assumed past it
    (``_floor_model``); for a recognized rational p/q it is the constant
    sin(pi/max(p, q)), and floor_power is None.  An Irrational verdict with
    p and q set pairs the near-resonant terms at the convergent p/q: its
    floor_constant is half of sin(pi/max(p, q)), the floor proven for every
    other index up to the stopping index.
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


def _proven_floor(skip: int, drift: float, m: int) -> float:
    """A floor on |sin(pi j x)| for every j <= m that skip does not divide,
    where x lies within drift of a fraction with denominator skip (x = 1/alpha
    near q/p with skip = p, or x = alpha near p/q with skip = q): there
    ||j x|| >= 1/skip - m drift, and |sin(pi t)| grows with ||t|| up to 1/2.
    0 once the drift has eaten the distance 1/skip.
    """
    r = 1.0 / skip - m * drift
    return sin_pi(r) if r > 0.0 else 0.0


def _pair_bound(alpha: float, p: int, reach: float, deg: int) -> tuple:
    """The beta-free factors of ``_pair_prefactor`` for the pairs n of the
    split series (``series._split``) with |delta_n| <= reach, deg 1 for g
    and 0 for g'.

    The pair is s alpha/pi [D/sinc(delta) + H(N) E] with D the difference
    quotient of H between N and N + delta and E that of 1/sinc between
    delta/alpha and delta, divided by delta.  By the mean-value theorem
    D = H'(xi) for some xi within reach of N, so |D| <= beta**(N - shift -
    reach) (weight + deg/(N - reach)) / (N - reach)**deg; 1/sinc is even,
    convex and increasing in |x| below 1, so 1/sinc(delta) <= 1/sinc(reach)
    and |E| <= |1 - 1/alpha| times the slope of 1/sinc at reach/min(alpha,
    1).  With N - reach >= n (p - reach) = n lead that is the prefactor
    alpha (beta**-reach x/sin(x) (weight + deg/lead) + slope (lead/p)**deg)
    / (pi lead**deg), x = pi reach; at reach 0 it is the resonant term's
    alpha (weight + deg/p) / (pi p**deg).  Returns (alpha, reach, x, sin x,
    slope (lead/p)**deg, deg/lead, pi lead**deg).
    """
    if reach == 0.0:
        return alpha, reach, 0.0, 0.0, 0.0, deg / p, math.pi * p ** deg
    x = math.pi * reach
    y = x / min(alpha, 1.0)
    sin_y = math.sin(y)
    slope = abs(1.0 - 1.0 / alpha) * math.pi * (sin_y - y * math.cos(y)) / (sin_y * sin_y)
    lead = p - reach
    return (alpha, reach, x, math.sin(x), slope * (lead / p) ** deg, deg / lead,
            math.pi * lead ** deg)


def _pair_prefactor(bound: tuple, weight: float, beta: float) -> float:
    """pre with |pair n| <= pre beta**(p n - shift) / n**deg for every pair n
    within the reach of ``bound`` (``_pair_bound``), where weight >= pi rho +
    |log beta|."""
    alpha, reach, x, sin_x, lean, bend, scale = bound
    if reach == 0.0:
        return alpha * (weight + bend) / scale
    return alpha * (beta ** -reach * x / sin_x * (weight + bend) + lean) / scale


@lru_cache(maxsize=_PROFILE_CACHE)
def _profile(alpha: float) -> tuple[AlphaClass, tuple[int, int] | None]:
    """The beta-free part of ``classify``: Rational(p, q), or Irrational
    with the floor of ``_floor_model``, and the pairing convergent: the p/q
    (p >= 1) before the largest partial quotient a, where |alpha q - p| <
    1/(a q) comes closest for its size."""
    cf = cf_expand(alpha)
    p_last, q_last = cf.convergents[-1]
    if cf.exact and q_last <= RATIONAL_DENOMINATOR_CAP:
        floor = sin_pi(1.0 / max(p_last, q_last)) if max(p_last, q_last) > 1 else 0.0
        return AlphaClass(AlphaKind.RATIONAL, p=p_last, q=q_last, floor_constant=floor), None
    c, nu = _floor_model(cf)
    ahead = [(a, pq) for pq, a in zip(cf.convergents, cf.quotients[1:]) if pq[0] >= 1]
    pair = max(ahead, key=lambda t: t[0])[1] if ahead else None
    return AlphaClass(AlphaKind.IRRATIONAL, floor_power=nu, floor_constant=c), pair


def _stop(beta: float, step: float, derivative: bool, c: float, nu: float, target: float,
          max_terms: int, noise_cap: float | None = None) -> tuple[int | None, float]:
    """``_truncation`` for a divisor series of g (or g') with divisors above
    c / m^nu: term m is below pre beta^(step m - shift) m^(nu - deg) / c,
    (pre, shift, deg) = (step, 1, 0) for g' and (1, 0, 1) for g.  Given a
    noise_cap, also None where 4 eps times the first bound (checked first)
    or the largest, at floor k or k + 1 for k = (nu - deg)/(-step log beta)
    capped at the stop (the bounds are log-concave in m), exceeds it."""
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    power = nu - deg
    if noise_cap is None:
        return _truncation(beta, step, pre, shift, power, c, target, max_terms)

    def noisy(m: int) -> bool:
        return 4.0 * EPS * (pre * beta ** (step * m - shift) * m ** power / c) > noise_cap

    if noisy(1):
        return None, math.inf
    stop, tail = _truncation(beta, step, pre, shift, power, c, target, max_terms)
    if stop is not None:
        top = int(min(power / (-step * math.log(beta)), stop))
        if noisy(max(top, 1)) or noisy(min(top + 1, stop)):
            return None, tail
    return stop, tail


@dataclass(frozen=True)
class SplitFrame:
    """The beta-free part of the stops of the split series at p/q
    (``_split_stops``) for one exact ratio alpha = a_num/a_den, g or g' and
    tolerance: delta_1 = (a_num q - p a_den)/a_den, the reach of the pair
    bound, an eighth of the tolerance as each sum's target, the pairs'
    exponent shift and index power -deg, their prefactor's factors
    (``_pair_bound``; at deg 0 for the projected noise of ``strict``), and
    per nonresonant sum (name, skip, step, (prefactor, shift, index power)
    of its term bounds, floor, drift): floors sin(pi/p), sin(pi/q) at
    alpha = p/q, else half of them, proven up to an index by the drifts
    |1/alpha - q/p|, |alpha - p/q| (``_proven_floor``)."""

    p: int
    q: int
    delta1: float
    reach: float
    target: float
    abs_tol: float
    max_terms: int
    shift: int
    deg: int
    pair_bound: tuple
    noise_bound: tuple
    families: tuple


def _split_frame(ratio: tuple[int, int], p: int, q: int, derivative: bool, abs_tol: float,
                 max_terms: int) -> SplitFrame:
    a_num, a_den = ratio
    alpha, gap = a_num / a_den, a_num * q - p * a_den
    half = 0.5 if gap else 1.0
    shift, deg = (1, 0) if derivative else (0, 1)
    reach = min(abs(gap / a_den) * max_terms, 0.5 * min(alpha, 1.0))  # < half a period
    families = tuple(
        (name, skip, step, (step, 1.0, 0.0) if derivative else (1.0, 0.0, -1.0),
         half * sin_pi(1.0 / skip), drift)
        for name, skip, step, drift in (("first", p, 1.0, abs(gap) / (p * a_num)),
                                        ("second", q, alpha, abs(gap) / (q * a_den))))
    return SplitFrame(p, q, gap / a_den, reach, 0.125 * abs_tol, abs_tol, max_terms,
                      shift, deg, _pair_bound(alpha, p, reach, deg),
                      _pair_bound(alpha, p, reach, 0), families)


def _split_stops(frame: SplitFrame, weight: float, beta: float, strict: bool) -> list:
    """(stop, tail bound) of the pairs and the two nonresonant sums of the
    split series at p/q (``series._split``), each for a bound under the
    frame's target (the pairs' by ``_pair_prefactor``, weight >= pi rho +
    |log beta|); an empty sum stops at 0.  IllConditionedSeriesError is
    raised where the last pair summed passes the reach or a floor is not
    proven up to its sum's last index; with ``strict`` also where a sum does
    not stop within the budget, or 4 eps times the g' term bounds summed in
    closed form at beta clamped into [1e-6, 0.95] exceeds tol/2."""
    p, target, max_terms = frame.p, frame.target, frame.max_terms
    if strict:
        b = min(max(beta, 1e-6), 0.95)
        noise = 0.0
        for _, skip, step, _, c, _ in frame.families:
            if skip > 1:
                noise += step * b ** (step - 1.0) / (c * (1.0 - b ** step))
        pre = _pair_prefactor(frame.noise_bound, math.pi + abs(math.log(b)), b)
        noise += pre * b ** (p - 1.0) / (1.0 - b ** p)
        if 4.0 * EPS * noise > 0.5 * frame.abs_tol:
            raise IllConditionedSeriesError(f"split at {p}/{frame.q}: projected noise "
                                            f"{4.0 * EPS * noise:.3e} above half the tolerance")
    pre = _pair_prefactor(frame.pair_bound, weight, beta)
    stops = [_truncation(beta, p, pre, frame.shift, -frame.deg, 1, target, max_terms)]
    last = stops[0][0] or max_terms
    if last * abs(frame.delta1) > frame.reach:
        raise IllConditionedSeriesError(f"pairs: delta {last * abs(frame.delta1):.3e} past "
                                        f"the bounded reach {frame.reach:.3e}")
    for name, skip, step, shape, c, drift in frame.families:
        stop, tail = 0, 0.0
        if skip > 1:
            stop, tail = _truncation(beta, step, *shape, c, target, max_terms)
            last = stop or max_terms
            if drift and _proven_floor(skip, drift, last) < c:
                raise IllConditionedSeriesError(f"{name} nonresonant sum: divisor floor "
                                                f"{c:.3e} not proven up to index {last}")
        stops.append((stop, tail))
    if strict and None in (stop for stop, _ in stops):
        raise IllConditionedSeriesError(
            f"split at {p}/{frame.q}: a sum does not stop within {max_terms} terms")
    return stops


def classify(alpha: float, tol: Tolerance | None = None,
             beta: float | None = 0.9) -> AlphaClass:
    """Rational(p, q) when alpha's expansion terminates at a modest
    denominator, else Irrational with the floor model: with beta None, the
    per-alpha profile that dispatch reads.  Given beta (clamped into
    [1e-6, 0.95]) and the tolerance, an irrational alpha gets the decision
    the series of g' makes before it sums, at rho = 1 in its pair bound:
    Irrational where both generic families pass ``_stop``'s noise checks,
    else paired (p and q set) where the split at the pairing convergent
    passes ``_split_stops``, else IllConditioned.  After it sums, the
    series can still refuse a generic sum's noise, and then pairs.
    """
    if not 0.0 < alpha <= 2.0:
        raise OutOfRangeError(f"alpha must lie in (0, 2], got {alpha!r}")
    alpha = float(alpha)
    profile, pair = _profile(alpha)
    if beta is None or profile.kind is AlphaKind.RATIONAL:
        return profile
    tol = tol or Tolerance()
    beta = min(max(float(beta), 1e-6), 0.95)
    c, nu, cap = profile.floor_constant, profile.floor_power, 0.5 * tol.abs_tol
    if all(_stop(beta, step, True, c, nu, cap, tol.max_terms, cap)[0] for step in (1.0, alpha)):
        return profile
    if pair:
        with suppress(IllConditionedSeriesError):
            _split_stops(_split_frame(alpha.as_integer_ratio(), *pair, True, tol.abs_tol,
                                      tol.max_terms), math.pi + abs(math.log(beta)), beta, True)
            floor = 0.5 * sin_pi(1.0 / max(pair)) if max(pair) > 1 else 0.0
            return AlphaClass(AlphaKind.IRRATIONAL, *pair, nu, floor)
    return replace(profile, kind=AlphaKind.ILL_CONDITIONED)

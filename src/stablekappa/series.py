"""Power-series evaluation of g and g' with small-divisor-aware truncation.

For irrational alpha and 0 < beta < 1:

    g(beta)  = sum_m (-1)^(m+1) beta^m  sin(rho m pi) / (m sin(m pi/alpha))
             + sum_k (-1)^(k+1) beta^(alpha k) sin(rho alpha k pi)
                                               / (k sin(alpha k pi))

and g' is its termwise derivative.  Truncation uses the divisor floor
|sin(m pi x)| >= c / m^nu that the diophantine module reads off alpha's
convergents, proven for every index below the last convergent denominator of
the float's expansion and assumed past it.  The stopping index follows from
the resulting tail bound, which is reported.  Each term is beta^(step m -
shift) times a coefficient cached across beta, and each sum is ``math.fsum``.

Near a resonance, alpha = p/q + eps, the term m = n p of the first series
and k = n q of the second have divisors of size n eps with opposite signs.
``_split`` sums each such pair as one term, with delta = n (alpha q - p):

    s alpha/(pi delta) [H(N + delta)/sinc(delta) - H(N)/sinc(delta/alpha)],

N = n p, s = (-1)^(n(p+q)+1), H(x) = beta^x sin(rho pi x)/x for g and
beta^(x-1) sin(rho pi x) for g', sinc(x) = sin(pi x)/(pi x).  Every pair
summed keeps a mean-value bound (``_pair_bound``), and every other index a
proven floor, half of sin(pi/p) and sin(pi/q): for m <= M with p not
dividing m,

    ||m/alpha|| >= 1/p - M |1/alpha - q/p|,

and for k <= M with q not dividing k, ||k alpha|| >= 1/q - M |alpha - p/q|
(``_proven_floor``).  The tail bound past the stopping index assumes the
same floors and pair bound for the later indices, where they are not
checked.

At rational alpha = p/q (a Rational ``diophantine._profile``) the divisors of
the terms m = n p and k = n q vanish, and ``_split`` runs at delta = 0 on
the exact ratio (p, q): each pair is its limit s alpha H'(N)/pi, the
resonant term, taken like every pair from beta-free factors cached across
beta, and every other index keeps the floor sin(pi/p) or sin(pi/q) with no
drift.

The split reads all that does not depend on beta off one cached plan per
(alpha, p/q, rho, g or g', tolerance) (``_plan``): the reach, floors and
drifts of its stops, the exponents and coefficients of its two nonresonant
families, and the exponents and factors of its pairs.  At each beta it
computes only log beta, the three stops (``_split_stops``), and one pass
over each sum.

The series decides its conditioning at each beta itself, from alpha's
cached ``diophantine._profile`` and the stopping indices it sums to, each
computed once: the split at a rational alpha; else the generic sum, unless
a family does not stop within the budget, the noise of a term bound
(``_stop``, before the sum) or of the summed |terms| exceeds half the
tolerance, or its bound the tolerance; else the split at the pairing
convergent, the p/q before alpha's largest partial quotient, unless it
fails the checks of ``_split_stops``, all made before it sums.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from operator import add, mul

from .accurate import EPS, sin_mpi, sin_pi, sincos_mpi
from .diophantine import AlphaClass, AlphaKind, _profile, _truncation
from .params import (
    DEFAULT_TOLERANCE,
    ConvergenceFailureError,
    IllConditionedSeriesError,
    OutOfRangeError,
    StableParams,
    Tolerance,
)


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of a series evaluation.

    tail_bound is the truncation bound: the divisor floors behind it (and,
    when the series pairs the near-resonant terms, the pair bound) are
    proven for the terms summed and assumed past the stopping index;
    noise_bound, 4 eps times the left-to-right sum of |terms| and |value|,
    bounds the rounding of the terms, whose every sum is exactly rounded.
    Split at p/q (paired near it, or at a rational alpha = p/q),
    terms_first_series counts the first series' terms that p does not divide
    plus the pairs, and terms_second_series those of the second that q does
    not divide.
    """

    value: float
    terms_first_series: int
    terms_second_series: int
    tail_bound: float
    noise_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.tail_bound < 0.0 or self.noise_bound < 0.0:
            raise OutOfRangeError("series bounds must be nonnegative")
        if self.terms_first_series < 0 or self.terms_second_series < 0:
            raise OutOfRangeError("term counts must be nonnegative")


_TABLES = 32         # divisor families and split plans kept, each
_TABLE_TERMS = 4096  # terms kept per table; later ones are recomputed
_TABLE_LOCK = threading.RLock()


def _rows(columns: tuple, count: int, entries, *args) -> tuple:
    """The first ``count`` rows of a beta-free table, parallel float columns:
    the first ``_TABLE_TERMS`` rows read from the arrays ``columns``, a short
    table extended with ``entries(start, kept, *args)``, one list per column,
    under the (reentrant) lock, start being its length then; rows past the
    cap chained on from ``entries(kept, count, *args)``.  A table only grows,
    by whole rows and its last column last, so a reader that finds that
    column long enough reads no row half-written; the reader bounds its own
    read at ``count`` rows."""
    kept = min(count, _TABLE_TERMS)
    if len(columns[-1]) < kept:
        with _TABLE_LOCK:
            for column, values in zip(columns, entries(len(columns[-1]), kept, *args)):
                column.extend(values)
    if count > kept:
        return tuple(chain(column, values)
                     for column, values in zip(columns, entries(kept, count, *args)))
    return columns


class _Family:
    """One divisor series of g and g' over the indices m that ``skip`` does
    not divide, and its beta-free tables:

        g:   sum_m (-1)^(m+1) beta^(step m) sin(m pi num) / (m sin(m pi div))
        g':  sum_m (-1)^(m+1) step beta^(step m - 1) sin(m pi num) / sin(m pi div)

    ``sines`` holds sin(m pi num) and sin(m pi div), shared by g and g', and
    ``tables[derivative]`` each term's exponent step m - shift and
    coefficient.  The split series leaves out the multiples of skip (it sums
    them as pairs); the generic one passes a skip above its stop."""

    __slots__ = ("step", "div", "num", "skip", "sines", "tables")

    def __init__(self, step: float, d_num: int, d_den: int, n_num: int, n_den: int, skip: int):
        self.step, self.div, self.num, self.skip = step, (d_num, d_den), (n_num, n_den), skip
        self.sines = (array("d"), array("d"))
        self.tables = ((array("d"), array("d")), (array("d"), array("d")))

    def _indices(self, start: int, end: int) -> list[int]:
        """The indices m of the terms numbered start..end-1 from 0: the
        m that skip does not divide, in increasing order."""
        k = self.skip - 1
        return [i + i // k + 1 for i in range(start, end)]

    def _sines(self, start: int, end: int) -> tuple[list, list]:
        ms = self._indices(start, end)
        return [sin_mpi(m, *self.num) for m in ms], [sin_mpi(m, *self.div) for m in ms]

    def _terms(self, start: int, end: int, derivative: bool) -> tuple[list, list]:
        pre, shift, deg = (self.step, 1.0, 0) if derivative else (1.0, 0.0, 1)
        nums, divs = _rows(self.sines, end, self._sines)
        ms = self._indices(start, end)
        return ([self.step * m - shift for m in ms],
                [(pre if m % 2 else -pre) * s_num / (m ** deg * s_div) for m, s_num, s_div
                 in zip(ms, islice(nums, start, end), islice(divs, start, end))])

    def terms(self, beta: float, count: int, derivative: bool) -> list[float]:
        """The first ``count`` terms at beta: beta^(step m - shift) times
        the coefficient."""
        exps, coefs = _rows(self.tables[derivative], count, self._terms, derivative)
        return list(map(mul, map(pow, repeat(beta, count), exps), coefs))


# the family of divisor sin(m pi d_num/d_den) and numerator sin(m pi
# n_num/n_den), shared by every beta, g and g', the generic sum and the plans
_family = lru_cache(maxsize=_TABLES)(_Family)


def _divisor_series(family: _Family, beta: float, derivative: bool, stop: int | None,
                    tail: float, max_terms: int, abs_sum: float, carry: float,
                    name: str) -> tuple[float, int, float]:
    """The terms of ``family`` summed up to its stopping index
    (``_stop``, ``_split_stops``); skip = 1 leaves the family empty.  Returns
    (value, terms summed, abs_sum plus the |terms|); where stop is None,
    ConvergenceFailureError reports carry plus the sum to ``max_terms``.
    """
    if family.skip == 1:
        return 0.0, 0, abs_sum
    n = stop or max_terms
    count = n - n // family.skip
    terms = family.terms(beta, count, derivative)
    if stop is None:
        raise ConvergenceFailureError(
            f"{name}: tail bound {tail:.3e} above tolerance after {max_terms} terms",
            value=carry + math.fsum(terms), error_bound=tail)
    return math.fsum(terms), count, reduce(add, map(abs, terms), abs_sum)


def _excess(y: float) -> float:
    """y/sin(y) - 1 = (y - sin y)/sin y for 0 < |y| <= pi/2, with y - sin y
    summed from its Taylor series y^3/3! - y^5/5! + ... until a term falls
    below eps times the sum: the series alternates with falling terms, so
    the first omitted term bounds the error, and the result is good to a
    few ulps relative however small y is."""
    y2 = y * y
    term = total = y * y2 / 6.0
    k = 4
    while abs(term) > EPS * abs(total):
        term *= -y2 / (k * (k + 1))
        total += term
        k += 2
    return total / math.sin(y)


def _pair_factors(ns, ratio: tuple[int, int], p: int, q: int,
                  rho: tuple[int, int], deg: int):
    """X_n, Y_n for each n of ns, interleaved: pair n of the split series is
    beta^(N - shift) (e_n X_n + Y_n) with N = n p, delta = n delta_1 and
    e_n = expm1(delta log beta)/delta, or log beta at delta_1 = 0.

    The pair is s alpha/(pi delta) [H(N + delta)/sinc(delta) -
    H(N)/sinc(delta/alpha)] with H(x) = beta^(x - shift) sin(rho pi x)/x^deg.
    It is summed as D/sinc(delta) + H(N) E with D = (H(N + delta) -
    H(N))/delta and E = (1/sinc(delta) - 1/sinc(delta/alpha))/delta, and
    neither is taken as a difference quotient: beta^delta - 1 is
    expm1(delta log beta), sin(a + h) - sin(a) at a = rho pi N is cos(a)
    sin(h) - 2 sin(a) sin(h/2)^2 with h = rho pi delta, and E is the
    difference of two ``_excess`` values over delta.  At delta = 0 the pair
    is its limit s alpha H'(N)/pi, the resonant term at rational alpha = p/q:
    X_n = s alpha sin(a)/(pi N^deg), Y_n = s alpha (rho pi cos(a) - deg
    sin(a)/N)/(pi N^deg).  Only e_n and the power of beta depend on beta.
    """
    a_num, a_den = ratio
    alpha = a_num / a_den
    delta1 = (a_num * q - p * a_den) / a_den
    rho_pi = math.pi * rho[0] / rho[1]
    for n in ns:
        big_n, delta = n * p, n * delta1
        sin_a, cos_a = sincos_mpi(big_n, *rho)
        s = alpha / math.pi if (n * (p + q) + 1) % 2 == 0 else -alpha / math.pi
        if not delta:
            lead = s / big_n ** deg
            yield lead * sin_a
            yield lead * (rho_pi * cos_a - deg * sin_a / big_n)
            continue
        h = rho_pi * delta
        half = math.sin(0.5 * h)
        dsin = cos_a * math.sin(h) - 2.0 * sin_a * half * half
        y = math.pi * delta
        excess = _excess(y)
        gain = (excess - _excess(y / alpha)) / delta
        lead = s * (1.0 + excess) / (big_n + delta) ** deg
        yield lead * (sin_a + dsin)
        yield lead * (dsin / delta - deg * sin_a / big_n) + s * sin_a * gain / big_n ** deg


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
    split series (``_split``) with |delta_n| <= reach, deg 1 for g and 0
    for g'.

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


class _Plan:
    """The beta-free part of the split series at p/q for one exact ratio
    alpha = a_num/a_den, rho, g or g' and tolerance.  For its stops
    (``_split_stops``): delta_1 = (a_num q - p a_den)/a_den, the reach of
    the pair bound, an eighth of the tolerance as each sum's target, the
    pairs' exponent shift and index power -deg, their prefactor's factors
    (``_pair_bound``; at deg 0 for the projected noise of a paired split),
    and per nonresonant family (name, family, (prefactor, shift, index
    power) of its term bounds, floor, drift): floors sin(pi/p), sin(pi/q)
    at alpha = p/q, else half of them, proven up to an index by the drifts
    |1/alpha - q/p|, |alpha - p/q| (``_proven_floor``).  For its sums: pi
    rho, the two nonresonant families, and the table of its pairs n:
    exponent N - shift and factors X_n, Y_n (``_pair_factors``)."""

    __slots__ = ("p", "q", "delta1", "reach", "target", "abs_tol", "max_terms", "shift", "deg",
                 "pair_bound", "noise_bound", "bounds", "rho_pi", "families", "derivative",
                 "ratio", "rho", "pairs")

    def __init__(self, a_num: int, a_den: int, p: int, q: int, rho: float, derivative: bool,
                 abs_tol: float, max_terms: int):
        r_num, r_den = rho.as_integer_ratio()
        alpha, gap = a_num / a_den, a_num * q - p * a_den
        self.p, self.q, self.delta1 = p, q, gap / a_den
        self.reach = min(abs(self.delta1) * max_terms, 0.5 * min(alpha, 1.0))  # < half a period
        self.target, self.abs_tol, self.max_terms = 0.125 * abs_tol, abs_tol, max_terms
        self.shift, self.deg = (1, 0) if derivative else (0, 1)
        self.pair_bound = _pair_bound(alpha, p, self.reach, self.deg)
        self.noise_bound = _pair_bound(alpha, p, self.reach, 0)
        self.rho_pi = math.pi * rho
        # the first family over m with p not dividing m, the second over k
        # with q not dividing k, in powers beta^alpha, with sin(k pi rho alpha)
        self.families = (_family(1.0, a_den, a_num, r_num, r_den, p),
                         _family(alpha, a_num, a_den, r_num * a_num, r_den * a_den, q))
        half = 0.5 if gap else 1.0
        self.bounds = tuple(
            (name, family, (family.step, 1.0, 0.0) if derivative else (1.0, 0.0, -1.0),
             half * sin_pi(1.0 / family.skip), drift)
            for name, family, drift in zip(("first", "second"), self.families,
                                           (abs(gap) / (p * a_num), abs(gap) / (q * a_den))))
        self.derivative, self.ratio, self.rho = derivative, (a_num, a_den), (r_num, r_den)
        self.pairs = (array("d"), array("d"), array("d"))

    def _pairs(self, start: int, end: int) -> tuple[list, list, list]:
        ns = range(start + 1, end + 1)
        factors = list(_pair_factors(ns, self.ratio, self.p, self.q, self.rho, self.deg))
        return [n * self.p - self.shift for n in ns], factors[::2], factors[1::2]


# the plan of one (a_num, a_den, p, q, rho, derivative, abs_tol, max_terms)
_plan = lru_cache(maxsize=_TABLES)(_Plan)


def _split_stops(plan: _Plan, log_beta: float, beta: float) -> list:
    """(stop, tail bound) of the pairs and the two nonresonant sums of the
    split series at p/q (``_split``), each for a bound under the plan's
    target (the pairs' by ``_pair_prefactor`` at weight pi rho + |log
    beta|); an empty sum stops at 0.  IllConditionedSeriesError is raised
    where the last pair summed passes the reach or a floor is not proven up
    to its sum's last index; paired (delta_1 != 0) also where a sum does
    not stop within the budget, or 4 eps times the g' term bounds summed in
    closed form at beta clamped into [1e-6, 0.95] exceeds tol/2."""
    p, target, max_terms = plan.p, plan.target, plan.max_terms
    if plan.delta1:
        b = min(max(beta, 1e-6), 0.95)
        noise = 0.0
        for _, family, _, c, _ in plan.bounds:
            if family.skip > 1:
                noise += family.step * b ** (family.step - 1.0) / (c * (1.0 - b ** family.step))
        pre = _pair_prefactor(plan.noise_bound, math.pi + abs(math.log(b)), b)
        noise += pre * b ** (p - 1.0) / (1.0 - b ** p)
        if 4.0 * EPS * noise > 0.5 * plan.abs_tol:
            raise IllConditionedSeriesError(f"split at {p}/{plan.q}: projected noise "
                                            f"{4.0 * EPS * noise:.3e} above half the tolerance")
    pre = _pair_prefactor(plan.pair_bound, plan.rho_pi + abs(log_beta), beta)
    stops = [_truncation(beta, p, pre, plan.shift, -plan.deg, 1, target, max_terms)]
    last = stops[0][0] or max_terms
    if last * abs(plan.delta1) > plan.reach:
        raise IllConditionedSeriesError(f"pairs: delta {last * abs(plan.delta1):.3e} past "
                                        f"the bounded reach {plan.reach:.3e}")
    for name, family, shape, c, drift in plan.bounds:
        stop, tail = 0, 0.0
        if family.skip > 1:
            stop, tail = _truncation(beta, family.step, *shape, c, target, max_terms)
            last = stop or max_terms
            if drift and _proven_floor(family.skip, drift, last) < c:
                raise IllConditionedSeriesError(f"{name} nonresonant sum: divisor floor "
                                                f"{c:.3e} not proven up to index {last}")
        stops.append((stop, tail))
    if plan.delta1 and None in (stop for stop, _ in stops):
        raise IllConditionedSeriesError(
            f"split at {p}/{plan.q}: a sum does not stop within {max_terms} terms")
    return stops


def _split(plan: _Plan, beta: float) -> tuple[float, int, int, float, float]:
    """g(beta) (or g') for 0 < beta < 1 by the series split at p/q (see the
    module docstring), read off its plan: the two divisor series less the
    indices m = n p and k = n q, plus one sum over the pairs n, each
    beta^(N - shift) (e_n X_n + Y_n).  Only the stops, log beta, e_n and
    the powers of beta are computed per beta.  The stops, and the checks
    made before any sum, are those of ``_split_stops``; at delta_1 = 0,
    whose noise no projection budgets, a bound above the tolerance raises
    IllConditionedSeriesError.  Returns the fields of a ``SeriesReport``,
    the pairs counted in its ``terms_first_series``."""
    derivative, max_terms = plan.derivative, plan.max_terms
    log_beta = math.log(beta)
    (stop, tail3), (stop1, tail1), (stop2, tail2) = _split_stops(plan, log_beta, beta)
    first, second = plan.families
    v1, terms1, abs_sum = _divisor_series(first, beta, derivative, stop1, tail1,
                                          max_terms, 0.0, 0.0, "first nonresonant sum")
    v2, terms2, abs_sum = _divisor_series(second, beta, derivative, stop2, tail2,
                                          max_terms, abs_sum, v1, "second nonresonant sum")

    # the pairs, reindexed by m = n p, k = n q
    n, delta1 = stop or max_terms, plan.delta1
    growth = (repeat(log_beta, n) if not delta1 else
              (math.expm1(k * delta1 * log_beta) / (k * delta1) for k in range(1, n + 1)))
    terms = [beta ** e * (g * x + y)
             for g, e, x, y in zip(growth, *_rows(plan.pairs, n, plan._pairs))]
    if stop is None:
        raise ConvergenceFailureError("resonant sum did not converge",
                                      value=math.fsum(terms), error_bound=tail3)

    value = v1 + v2 + math.fsum(terms)
    noise = 4.0 * EPS * (reduce(add, map(abs, terms), abs_sum) + abs(value))
    tail = tail1 + tail2 + tail3
    if not delta1 and tail + noise > plan.abs_tol:
        raise IllConditionedSeriesError(
            f"error bound {tail + noise:.3e} above the tolerance {plan.abs_tol:.3e}")
    return value, terms1 + stop, terms2, tail, noise


def _stop(beta: float, step: float, derivative: bool, c: float, nu: float, cap: float,
          max_terms: int) -> tuple[int | None, float]:
    """``_truncation`` for a divisor series of g (or g') with divisors above
    c / m^nu and a tail bound under cap: term m is below pre beta^(step m -
    shift) m^(nu - deg) / c, (pre, shift, deg) = (step, 1, 0) for g' and
    (1, 0, 1) for g.  None also where 4 eps times the first bound (checked
    first) or the largest, at floor k or k + 1 for k = (nu - deg)/(-step log
    beta) capped at the stop (the bounds are log-concave in m), exceeds cap."""
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    power = nu - deg

    def noisy(m: int) -> bool:
        return 4.0 * EPS * (pre * beta ** (step * m - shift) * m ** power / c) > cap

    if noisy(1):
        return None, math.inf
    stop, tail = _truncation(beta, step, pre, shift, power, c, cap, max_terms)
    if stop is not None:
        top = int(min(power / (-step * math.log(beta)), stop))
        if noisy(max(top, 1)) or noisy(min(top + 1, stop)):
            return None, tail
    return stop, tail


def _one_sided(beta: float, alpha: float, derivative: bool, c: float, nu: float,
               skew: float, target: float, max_terms: int) -> float:
    """A bound on the second divisor series skew = |rho alpha - 1| from the
    one-sided endpoint: |sin(k pi rho alpha)| <= pi k skew, so term k lies
    below pi skew k times its bound; those summed to their stop plus its
    tail, or inf where they do not stop within the budget."""
    pre, shift, deg = (alpha, 1.0, 0) if derivative else (1.0, 0.0, 1)
    power = nu + 1.0 - deg
    stop, tail = _truncation(beta, alpha, pre, shift, power, c, target, max_terms)
    return math.inf if stop is None else math.pi * skew * (tail + math.fsum(
        pre * beta ** (alpha * k - shift) * k ** power / c for k in range(1, stop + 1)))


def _generic(alpha: float, rho: float, beta: float, tol: Tolerance, profile: AlphaClass,
             derivative: bool) -> SeriesReport | None:
    """The two divisor series at the floor model of ``profile``, each summed
    to its stop for a tail bound under half the tolerance, or None where the
    series refuses them (see the module docstring)."""
    a_num, a_den = alpha.as_integer_ratio()
    r_num, r_den = rho.as_integer_ratio()
    c, nu, cap = profile.floor_constant, profile.floor_power, 0.5 * tol.abs_tol
    families = [(1.0, (a_den, a_num), (r_num, r_den), "first series", "sin({} pi/alpha)")]
    # at the spectrally one-sided endpoint rho*alpha = 1 the second series
    # vanishes termwise; within 4 eps of it, it is left out and bounded
    tail = math.inf
    if abs(rho * alpha - 1.0) <= 4.0 * EPS:
        tail = _one_sided(beta, alpha, derivative, c, nu, abs(r_num * a_num - r_den * a_den)
                          / (r_den * a_den), cap, tol.max_terms)
    if tail == math.inf:
        tail = 0.0
        families.append((alpha, (a_num, a_den), (r_num * a_num, r_den * a_den),
                         "second series", "sin({} pi alpha)"))
    stops = []
    for step, div, _, _, divisor in families:
        stop, bound = _stop(beta, step, derivative, c, nu, cap, tol.max_terms)
        if stop is None:
            return None
        # sin(m pi div) is exactly 0 where div's denominator divides m
        if div[1] <= stop:
            raise IllConditionedSeriesError(f"divisor {divisor.format(div[1])} vanished")
        stops.append((stop, bound))
    value = abs_sum = 0.0
    counts = [0, 0]
    for i, ((stop, bound), (step, div, num, name, _)) in enumerate(zip(stops, families)):
        v, counts[i], abs_sum = _divisor_series(_family(step, *div, *num, div[1]), beta,
                                                derivative, stop, bound, tol.max_terms,
                                                abs_sum, value, name)
        value += v
        tail += bound
    noise = 4.0 * EPS * (abs_sum + abs(value))
    if 4.0 * EPS * abs_sum > cap or tail + noise > tol.abs_tol:
        return None
    return SeriesReport(value, *counts, tail, noise)


def _series(params: StableParams, beta: float, tol: Tolerance | None,
            derivative: bool) -> SeriesReport:
    tol = tol or DEFAULT_TOLERANCE
    if beta == 0.0 and not derivative:
        return SeriesReport(0.0, 0, 0, 0.0)
    if not 0.0 < beta < 1.0:
        lower = "0 <" if derivative else "0 <="
        raise OutOfRangeError(f"series form needs {lower} beta < 1, got {beta!r}")
    alpha, rho = params.alpha, params.rho
    profile, pair = _profile(alpha)
    if profile.kind is AlphaKind.RATIONAL:
        # split at the exact ratio p/q itself (the float 0.8 is not 4/5), so
        # that its pairs sit at delta = 0
        return SeriesReport(*_split(_plan(profile.p, profile.q, profile.p, profile.q, rho,
                                          derivative, tol.abs_tol, tol.max_terms), beta))
    report = _generic(alpha, rho, beta, tol, profile, derivative)
    if report is not None:
        return report
    if pair is None:
        raise IllConditionedSeriesError("small divisors exceed the work/noise budget at this "
                                        "beta and tolerance, paired or not")
    plan = _plan(*alpha.as_integer_ratio(), *pair, rho, derivative, tol.abs_tol, tol.max_terms)
    return SeriesReport(*_split(plan, beta))


def g_series(params: StableParams, beta: float, tol: Tolerance | None = None) -> SeriesReport:
    """g(beta) by the two-series expansion, for 0 <= beta < 1: generic,
    paired near a resonance p/q, or split at a rational alpha = p/q."""
    return _series(params, beta, tol, derivative=False)


def gprime_series(params: StableParams, beta: float,
                  tol: Tolerance | None = None) -> SeriesReport:
    """g'(beta) by the termwise-differentiated expansion, for 0 < beta < 1;
    see ``g_series``."""
    return _series(params, beta, tol, derivative=True)

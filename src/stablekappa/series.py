"""Power-series evaluation of g and g', stopped at one contour cut.

For irrational alpha and 0 < beta < 1:

    g(beta)  = sum_m (-1)^(m+1) beta^m  sin(rho m pi) / (m sin(m pi/alpha))
             + sum_k (-1)^(k+1) beta^(alpha k) sin(rho alpha k pi)
                                               / (k sin(alpha k pi))

and g' is its termwise derivative.  Both sums are the residue sums of one
Mellin-Barnes integral, taken along Re s = c for any 0 < c < min(1, alpha):

    g(beta) = 1/(2 pi i) int F(s) beta^s ds,
    F(s) = pi sin(pi rho s) / (s sin(pi s) sin(pi s/alpha)),

with poles at s = m and s = alpha k; g' drops the 1/s and takes beta^(s-1).
Shifting the line right to a cut c' picks up exactly the terms m < c' and
alpha k < c', and |sin pi(x + iy)| >= |sin pi x| cosh(pi y) with
|sin pi rho(x + iy)| <= cosh(pi rho y) bound what is left, the integral
along c', by

    R(c') = 4 beta^c' / (lambda c' |sin pi c'| |sin(pi c'/alpha)|)     (g),
    R(c') = 4 beta^(c'-1) / (lambda |sin pi c'| |sin(pi c'/alpha)|)    (g'),

lambda = pi (1 + 1/alpha - rho).  The bound is proven for every alpha and
rho: it assumes nothing about the divisors.  ``_cut`` picks one c' per call
that stops every sum of it, and R(c') is the tail bound reported.  Each
term is beta^(step m) times a coefficient cached across beta, that of g or
of g', each sum is ``math.fsum``, and the sum of g' is divided by beta
once.

Near a resonance, alpha = p/q + eps, the term m = n p of the first series
and k = n q of the second have divisors of size n eps with opposite signs.
``_split`` sums each such pair as one term, with delta = n (alpha q - p):

    s alpha/(pi delta) [H(N + delta)/sinc(delta) - H(N)/sinc(delta/alpha)],

N = n p, s = (-1)^(n(p+q)+1), H(x) = beta^x sin(rho pi x)/x for g and
beta^(x-1) sin(rho pi x) for g', sinc(x) = sin(pi x)/(pi x).  A pair's two
poles are N and N + delta, and the cut keeps each pair whole, both below
it or both above, as long as |delta| stays within half a period,
min(alpha, 1)/2, where the pair formula holds too; the split cuts only
below the first pair past it.

At rational alpha = p/q (a Rational ``diophantine._profile``) the divisors of
the terms m = n p and k = n q vanish, and ``_split`` runs at delta = 0 on
the exact ratio (p, q): each pair is its limit s alpha H'(N)/pi, the
resonant term at the double pole N, taken like every pair from beta-free
factors cached across beta.  The generic sum, at an irrational alpha, is
the same split at the float's own exact ratio a_num/a_den: its first pair,
at m = a_num, lies far past any term budget, so it sums the two divisor
series alone, and a pair that the cut does reach is a resonant term.

The split reads all that does not depend on beta off one cached plan per
(alpha, p/q, rho, g or g', tolerance, own ratio or not) (``_plan``):
lambda, the budget of its cut and the last interval the cut walks to,
the exponents and coefficients of its two nonresonant families, and the
exponents and factors of its pairs.  At each beta it computes only log
beta, the cut, and one pass over each sum.

The series picks its form at each beta from alpha's cached
``diophantine._profile``, its cut and its terms, the cut computed once per
form tried: the split at a rational alpha; else the generic sum, unless a
family needs more terms than the budget or the noise of the summed |terms|
exceeds half the tolerance; else the split at the pairing convergent p/q,
the one before alpha's largest partial quotient, unless no cut meets the
tolerance within the budget and before the pairs pass half a period.  The
generic sum reads its terms m = p and k = q, where alpha's divisors are
smallest, before it sums the rest: 4 eps times either above half the
tolerance makes the summed noise so too.  Past that a form refuses only a
sum past the term budget or a term that overflows, and returns its bound
whatever its size: dispatch (``kappa._outcome``) checks the tolerance.
"""

from __future__ import annotations

import math
import threading
from array import array
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from operator import add, mul
from typing import NamedTuple

from .accurate import EPS, sin_mpi, sincos_mpi
from .diophantine import AlphaKind, _profile
from .params import (
    DEFAULT_TOLERANCE,
    ConvergenceFailureError,
    IllConditionedSeriesError,
    OutOfRangeError,
    StableParams,
    Tolerance,
    _Record,
)


class _ReportFields(NamedTuple):
    value: float
    terms_first_series: int
    terms_second_series: int
    tail_bound: float
    noise_bound: float = 0.0


class SeriesReport(_Record, _ReportFields):
    """Outcome of a series evaluation.

    tail_bound is R(c'), the proven bound on the contour integral left at
    the cut c' that stops every sum (see the module docstring);
    noise_bound, 4 eps times the left-to-right sum of |terms| and |value|
    (for g', of the terms over beta), bounds the rounding of the terms,
    whose every sum is exactly rounded; for g', where a power of beta or a
    term can fall below the normal floats, it adds 2^-1074 (1 + |coefficient|)
    per term over beta.
    Split at p/q (paired near it, at a rational alpha = p/q, or for the
    generic sum at alpha's own ratio), terms_first_series counts the first
    series' terms that p does not divide plus the pairs, and
    terms_second_series those of the second that q does not divide.
    """

    __slots__ = ()

    def __new__(cls, value: float, terms_first_series: int, terms_second_series: int,
                tail_bound: float, noise_bound: float = 0.0) -> SeriesReport:
        if tail_bound < 0.0 or noise_bound < 0.0:
            raise OutOfRangeError("series bounds must be nonnegative")
        if terms_first_series < 0 or terms_second_series < 0:
            raise OutOfRangeError("term counts must be nonnegative")
        return tuple.__new__(cls, (value, terms_first_series, terms_second_series,
                                   tail_bound, noise_bound))


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
    not divide, and its beta-free table:

        g:   sum_m (-1)^(m+1) beta^(step m) sin(m pi num) / (m sin(m pi div))
        g':  sum_m (-1)^(m+1) beta^(step m) step sin(m pi num) / sin(m pi div)

    g' being that sum over beta (``_split`` divides once).  ``table`` holds
    each term's exponent step m and its g and g' coefficients, all three
    from the term's two exact sine reductions.  The split series sums the
    multiples of skip, p or q, as pairs; at alpha's own ratio they are the
    indices whose divisor vanishes."""

    __slots__ = ("step", "div", "num", "skip", "table")

    def __init__(self, step: float, d_num: int, d_den: int, n_num: int, n_den: int, skip: int):
        self.step, self.div, self.num, self.skip = step, (d_num, d_den), (n_num, n_den), skip
        self.table = (array("d"), array("d"), array("d"))

    def _terms(self, start: int, end: int) -> tuple[list, list, list]:
        """The rows of the terms numbered start..end-1 from 0, whose indices
        m are those that skip does not divide, in increasing order."""
        k, step, exps, gs, gprimes = self.skip - 1, self.step, [], [], []
        for i in range(start, end):
            m = i + i // k + 1
            s_num, s_div = sin_mpi(m, *self.num), sin_mpi(m, *self.div)
            exps.append(step * m)
            gs.append((1.0 if m % 2 else -1.0) * s_num / (m * s_div))
            gprimes.append((step if m % 2 else -step) * s_num / s_div)
        return exps, gs, gprimes

    def term(self, beta: float, m: int, derivative: bool) -> float:
        """The term at index m <= ``_TABLE_TERMS``, m < skip, at beta (for
        g', beta times it)."""
        table = _rows(self.table, m, self._terms)
        return beta ** table[0][m - 1] * table[1 + derivative][m - 1]

    def terms(self, beta: float, count: int, derivative: bool) -> list[float]:
        """The first ``count`` terms at beta: beta^(step m) times the g or
        g' coefficient."""
        table = _rows(self.table, count, self._terms)
        return list(map(mul, map(pow, repeat(beta, count), table[0]), table[1 + derivative]))


# the family of divisor sin(m pi d_num/d_den) and numerator sin(m pi
# n_num/n_den), shared by every beta, g and g' and the plans
_family = lru_cache(maxsize=_TABLES)(_Family)


class _Cuts:
    """The beta-free part of ``_cut`` at one exact ratio alpha = a_num/a_den,
    per unit interval (M, M + 1), M = 0, 1, ...: in flat columns, each
    candidate c' with its float sine product |sin(pi c') sin(pi c'/alpha)|,
    and its K (the last k with alpha k < c') and exact sine product, both -1
    until the cut first takes the candidate; K's column is a list, since K
    passes any fixed width at small alpha.  The last column, ``ends``, holds
    where each interval's candidates end (``_rows``)."""

    __slots__ = ("alpha", "columns")

    def __init__(self, a_num: int, a_den: int):
        self.alpha = a_num / a_den
        self.columns = (array("d"), array("d"), [], array("d"), array("q"))

    def _intervals(self, start: int, end: int) -> tuple[list, ...]:
        """The columns of the intervals start..end-1, each interval's
        candidates in increasing order (see ``_cut``)."""
        alpha, cuts, floats, ends = self.alpha, [], [], []
        total = len(self.columns[0])
        for m in range(start, end):
            j = int((m + 0.5) / alpha - 0.5)
            for x in sorted((m + 0.5, alpha * (j + 0.5), alpha * (j + 1.5))):
                if m < x < m + 1:
                    cuts.append(x)
                    floats.append(abs(math.sin(math.pi * (x - m)) * math.sin(math.pi * x / alpha)))
            ends.append(total + len(cuts))
        return cuts, floats, [-1] * len(cuts), [-1.0] * len(cuts), ends


# the cut table of one (a_num, a_den), shared by every beta, rho, g and g'
# and tolerance
_cuts = lru_cache(maxsize=_TABLES)(_Cuts)


def _cut(beta: float, log_beta: float, ratio: tuple[int, int], lam: float, derivative: bool,
         budget: float, limit: int) -> tuple[int, int, float] | None:
    """(M, K, R(c')) for the cut c' that stops the series at alpha =
    a_num/a_den: the first family sums m <= M (m < c'), the second k <= K
    (alpha k < c'), and R(c') <= budget bounds the rest (see the module
    docstring); None where no cut with M <= limit meets the budget.

    A first guess solves beta^c' = budget lambda c'/4 (beta^(c'-1) =
    budget lambda/4 for g'), one logarithm refined once for g, which
    undershoots: the sines only raise R.  In each unit interval (M, M + 1)
    from there (g' from M = 1 on: below 1, beta^(c'-1) > 1) the candidates
    are M + 1/2 and the two midpoints alpha (j + 1/2) of the second family's
    poles that bracket it, and the cut is the first of them, in increasing
    order, whose R meets the budget: it sums the fewest terms.  M + 1/2 lies
    1/2 from every pole m, and alpha (j + 1/2) alpha/2 from every pole alpha
    k, so no candidate falls between two poles closer than min(alpha, 1)/2:
    a pair of the split within half a period stays whole.

    None of this but beta^c' depends on beta: the candidates and their
    sines are read off alpha's cut table (``_Cuts``), and past its
    ``_TABLE_TERMS`` intervals recomputed.  R is first estimated with the
    float sines; for the cut taken, a dyadic float, the sines are exact
    reductions, kept in the table once taken, and R is raised by 16 ulps
    for the rounding of its few operations, so it stays a bound."""
    if not budget > 0.0:
        return None
    a_num, a_den = ratio
    goal = math.log(budget) + math.log(0.25 * lam)
    guess = goal / log_beta
    if derivative:
        guess += 1.0
    elif guess > 1.0:
        guess = (goal + math.log(guess)) / log_beta
    table = _cuts(a_num, a_den)
    columns = table.columns
    m, scale = max(int(guess), int(derivative)), budget * lam
    while m <= limit:
        if m < _TABLE_TERMS:
            if len(columns[-1]) <= m:
                _rows(columns, m + 1, table._intervals)
            cuts, floats, stops, exacts, ends = columns
            row = range(ends[m - 1] if m else 0, ends[m])
        else:
            cuts, floats, stops, exacts, _ = table._intervals(m, m + 1)
            row = range(len(cuts))
        for i in row:
            x = cuts[i]
            power = beta ** (x - 1.0) if derivative else beta ** x / x
            if 4.0 * power > scale * floats[i]:
                continue
            if exacts[i] < 0.0:
                x_num, x_den = x.as_integer_ratio()
                # K first: a reader takes K once the exact product is set
                stops[i], exacts[i] = ((x_num * a_den - 1) // (x_den * a_num), abs(
                    sin_mpi(x_num, 1, x_den) * sin_mpi(x_num, a_den, x_den * a_num)))
            if (sines := exacts[i]) and (
                    tail := 4.0 * (1.0 + 16.0 * EPS) * power / (lam * sines)) <= budget:
                return m, stops[i], tail
        m += 1
    return None


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
    beta^N (e_n X_n + Y_n), for g' over beta, with N = n p, delta = n
    delta_1 and e_n = expm1(delta log beta)/delta, or log beta at delta_1 = 0.

    The pair is s alpha/(pi delta) [H(N + delta)/sinc(delta) -
    H(N)/sinc(delta/alpha)] with H(x) = beta^x sin(rho pi x)/x^deg.
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


def _last(a_num: int, a_den: int, p: int, q: int, max_terms: int) -> int:
    """The last M at which a cut c' in (M, M + 1) can meet the term budget
    of the split at p/q, alpha = a_num/a_den.  Such a cut sums M - M // p
    terms of the first family and n = M // p pairs, and at least the K =
    floor(M/alpha) terms alpha k <= M < c' of the second less their
    multiples of q.  All three only grow with M, so no cut past the last M
    where each fits in max_terms meets the budget; by bisection, since M =
    2 max_terms + 1 sums more than max_terms of the first family or pairs."""
    def fits(m: int) -> bool:
        k = m * a_den // a_num
        return max(m - m // p, m // p, k - k // q) <= max_terms

    lo, hi = 0, 2 * max_terms + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid) else (lo, mid)
    return lo


class _Plan:
    """The beta-free part of the split series at p/q for one exact ratio
    alpha = a_num/a_den, rho, g or g' and tolerance: delta_1 = (a_num q -
    p a_den)/a_den, lambda, the budget of its cut (3/8 of the tolerance; a
    quarter for the generic sum at alpha's own ratio, marked ``own``) and
    the index it stays below, the last M its cut walks to (``_last``), the
    pairs' index power -deg, the two nonresonant families, and the table of
    its pairs n: exponent N and factors X_n, Y_n (``_pair_factors``)."""

    __slots__ = ("p", "q", "delta1", "lam", "budget", "abs_tol", "max_terms", "limit", "last",
                 "deg", "own", "families", "derivative", "ratio", "rho", "pairs")

    def __init__(self, a_num: int, a_den: int, p: int, q: int, rho: float, derivative: bool,
                 abs_tol: float, max_terms: int, own: bool = False):
        r_num, r_den = rho.as_integer_ratio()
        alpha, gap = a_num / a_den, a_num * q - p * a_den
        self.p, self.q, self.delta1, self.own = p, q, gap / a_den, own
        self.lam = math.pi * (1.0 + a_den / a_num - rho)
        self.budget, self.abs_tol = (0.25 if own else 0.375) * abs_tol, abs_tol
        self.max_terms = max_terms
        self.deg = 0 if derivative else 1
        # the first family over m with p not dividing m, the second over k
        # with q not dividing k, in powers beta^alpha, with sin(k pi rho alpha)
        self.families = (_family(1.0, a_den, a_num, r_num, r_den, p),
                         _family(alpha, a_num, a_den, r_num * a_num, r_den * a_den, q))
        # the cut stays below 2 max_terms, and paired, where the pairs stay
        # within half a period: |delta_n| <= min(alpha, 1)/2 for n <= m // p + 1,
        # the pairs summed (``_pair_factors`` holds there) and the next
        self.limit = 2 * max_terms
        if gap:
            self.limit = min(self.limit, int(0.5 * min(alpha, 1.0) / abs(self.delta1)) * p - 1)
        # it walks no further than a cut can meet the term budget
        self.last = min(self.limit, _last(a_num, a_den, p, q, max_terms))
        self.derivative, self.ratio, self.rho = derivative, (a_num, a_den), (r_num, r_den)
        self.pairs = (array("d"), array("d"), array("d"))

    def _pairs(self, start: int, end: int) -> tuple[list, list, list]:
        ns = range(start + 1, end + 1)
        factors = list(_pair_factors(ns, self.ratio, self.p, self.q, self.rho, self.deg))
        return [n * self.p for n in ns], factors[::2], factors[1::2]


# the plan of one (a_num, a_den, p, q, rho, derivative, abs_tol, max_terms, own)
_plan = lru_cache(maxsize=_TABLES)(_Plan)


def _split(plan: _Plan, beta: float,
           probe: tuple[int, int] | None = None) -> tuple[float, int, int, float, float]:
    """g(beta) (or g') for 0 < beta < 1 by the series split at p/q (see the
    module docstring), read off its plan: the two divisor series less the
    indices m = n p and k = n q, plus one sum over the pairs n, each
    beta^N (e_n X_n + Y_n), all stopped at one cut (``_cut``), and for g'
    divided by beta.  Only log beta, the cut, e_n and the powers of beta
    are computed per beta.  IllConditionedSeriesError is raised where no
    cut meets the budget before the pairs pass half a period, a sum needs
    more terms than the budget, or a term or its quotient by beta
    overflows; the generic sum (``own``) also raises it where 4 eps times
    its term m or k of ``probe`` (alpha's pairing convergent), read before
    the sum if the cut reaches it, exceeds half the tolerance, or where the
    noise of the summed |terms| does (for g', each over beta): each probed
    term is one of them, so the probe changes no outcome.  At
    rational alpha the term budget raises ConvergenceFailureError.  Returns
    the fields of a ``SeriesReport``, the pairs counted in its
    ``terms_first_series``, whatever the size of its bound."""
    p, q, delta1, max_terms, own = plan.p, plan.q, plan.delta1, plan.max_terms, plan.own
    log_beta = math.log(beta)
    cut = _cut(beta, log_beta, plan.ratio, plan.lam, plan.derivative, plan.budget, plan.last)
    if cut is None and plan.last == plan.limit < 2 * max_terms:
        raise IllConditionedSeriesError(f"split at {p}/{q}: no cut below {plan.limit + 1}, "
                                        f"where the pairs pass half a period")
    if cut is not None:
        stop1, stop2, tail = cut
        n = stop1 // p
        count1, count2 = stop1 - n, stop2 - stop2 // q
    if cut is None or max(count1, count2, n) > max_terms:
        error = IllConditionedSeriesError if delta1 or own else ConvergenceFailureError
        raise error(f"split at {p}/{q}: a sum does not stop within {max_terms} terms")
    first, second = plan.families
    derivative, cap = plan.derivative, 0.5 * plan.abs_tol
    # g' sums g's powers of beta and divides by beta once; here a power of
    # beta, or a term whose coefficient exceeds eps (2^-970 = 2^-1022/eps),
    # can fall below the normal floats, off by up to 2^-1074 whatever its
    # size, which the quotient by beta magnifies
    over = beta if derivative else 1.0
    subnormal = derivative and beta ** max(stop1, second.step * stop2) < 2.0 ** -970
    try:
        # the pairing convergent lies below alpha's own ratio: m = p and
        # k = q are terms of the families, not multiples they skip
        if probe and any(4.0 * EPS * (abs(family.term(beta, m, derivative)) / over) > cap
                         for family, m, stop in zip(plan.families, probe, (stop1, stop2))
                         if m <= min(stop, _TABLE_TERMS)):
            raise IllConditionedSeriesError(f"split at {p}/{q}: a term's noise above half "
                                            f"the tolerance")
        terms1 = first.terms(beta, count1, derivative) if count1 else ()
        terms2 = second.terms(beta, count2, derivative) if count2 else ()
        pairs = factors = ()
        if n:
            # the pairs, reindexed by m = n p, k = n q: beta^e (e_n x + y)
            growth = (repeat(log_beta, n) if not delta1 else
                      (math.expm1(k * delta1 * log_beta) / (k * delta1) for k in range(1, n + 1)))
            exps, xs, ys = _rows(plan.pairs, n, plan._pairs)
            factors = map(add, map(mul, growth, xs), ys)
            if subnormal:
                factors = list(factors)
            pairs = list(map(mul, map(pow, repeat(beta, n), exps), factors))
        value = (math.fsum(terms1) + math.fsum(terms2) + (math.fsum(pairs) if n else 0.0)) / over
        # left to right, in the order of the terms
        abs_sum = reduce(add, map(abs, chain(terms1, terms2, pairs)), 0.0) / over
        noise = 4.0 * EPS * (abs_sum + abs(value))
        if subnormal:
            coefs = (islice(_rows(family.table, count, family._terms)[2], count)
                     for family, count in zip(plan.families, (count1, count2)))
            noise += reduce(add, map(abs, chain(*coefs, factors)),
                            float(count1 + count2 + n)) * (2.0 ** -1074 / beta)
        if noise == math.inf:
            raise OverflowError
    except OverflowError:
        raise IllConditionedSeriesError(f"split at {p}/{q}: a term overflows") from None
    if own and 4.0 * EPS * abs_sum > cap:
        raise IllConditionedSeriesError(f"split at {p}/{q}: summed noise above half the tolerance")
    return value, count1 + n, count2, tail, noise


def _series(params: StableParams, beta: float, tol: Tolerance | None,
            derivative: bool) -> SeriesReport:
    tol = tol or DEFAULT_TOLERANCE
    if beta == 0.0 and not derivative:
        return SeriesReport(0.0, 0, 0, 0.0)
    if not 0.0 < beta < 1.0:
        lower = "0 <" if derivative else "0 <="
        raise OutOfRangeError(f"series form needs {lower} beta < 1, got {beta!r}")
    alpha, rho, bounds = params.alpha, params.rho, (tol.abs_tol, tol.max_terms)
    profile, pair = _profile(alpha)
    if profile.kind is AlphaKind.RATIONAL:
        # split at the exact ratio p/q itself (the float 0.8 is not 4/5), so
        # that its pairs sit at delta = 0
        ratio = profile.p, profile.q
        return SeriesReport(*_split(_plan(*ratio, *ratio, rho, derivative, *bounds), beta))
    # the generic sum: the split at the float's own ratio
    ratio = alpha.as_integer_ratio()
    try:
        return SeriesReport(*_split(_plan(*ratio, *ratio, rho, derivative, *bounds, True),
                                    beta, pair))
    except IllConditionedSeriesError:
        if pair is None:
            raise IllConditionedSeriesError("small divisors exceed the work/noise budget at "
                                            "this beta and tolerance, paired or not") from None
    return SeriesReport(*_split(_plan(*ratio, *pair, rho, derivative, *bounds), beta))


def g_series(params: StableParams, beta: float, tol: Tolerance | None = None) -> SeriesReport:
    """g(beta) by the two-series expansion, for 0 <= beta < 1: generic,
    paired near a resonance p/q, or split at a rational alpha = p/q."""
    return _series(params, beta, tol, derivative=False)


def gprime_series(params: StableParams, beta: float,
                  tol: Tolerance | None = None) -> SeriesReport:
    """g'(beta) by the termwise-differentiated expansion, for 0 < beta < 1;
    see ``g_series``."""
    return _series(params, beta, tol, derivative=True)

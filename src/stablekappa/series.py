"""Power-series evaluation of g and g' with small-divisor-aware truncation.

For irrational alpha and 0 < beta < 1:

    g(beta)  = sum_m (-1)^(m+1) beta^m  sin(rho m pi) / (m sin(m pi/alpha))
             + sum_k (-1)^(k+1) beta^(alpha k) sin(rho alpha k pi)
                                               / (k sin(alpha k pi))

and g' is its termwise derivative.  Truncation uses the divisor floor
|sin(m pi x)| >= c / m^nu that the diophantine module reads off alpha's
convergents, proven for every index below the last convergent denominator of
the float's expansion and assumed past it.  The stopping index is bisected
on the resulting tail bound, which is reported.  Both series are
accumulated with compensated summation and combined in a fixed order.

Near a resonance, alpha = p/q + eps, the term m = n p of the first series
and k = n q of the second have divisors of size n eps with opposite signs.
``_split`` sums each such pair as one term, with delta = n (alpha q - p):

    s alpha/(pi delta) [H(N + delta)/sinc(delta) - H(N)/sinc(delta/alpha)],

N = n p, s = (-1)^(n(p+q)+1), H(x) = beta^x sin(rho pi x)/x for g and
beta^(x-1) sin(rho pi x) for g', sinc(x) = sin(pi x)/(pi x).  Every other
index summed keeps a floor proven in the diophantine module, half of
sin(pi/p) and sin(pi/q), and every pair summed a mean-value bound.  The
tail bound past the stopping index assumes the same floors and pair bound
for the later indices, where they are not checked.

At rational alpha = p/q (``classify``'s Rational verdict) the divisors of
the terms m = n p and k = n q vanish, and ``_split`` runs at delta = 0 on
the exact ratio (p, q): the pair is its limit s alpha H'(N)/pi, for g'

    beta^(N-1) (A_n + B_n log beta),  A_n = s alpha rho cos(N pi rho),
                                      B_n = s alpha sin(N pi rho)/pi,

and for g its integral from 0 to beta, and every other index keeps the
floor sin(pi/p) or sin(pi/q) with no drift.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, cycle, islice

from .accurate import EPS, sin_mpi, sincos_mpi
from .diophantine import (
    AlphaClass,
    AlphaKind,
    _pair_prefactor,
    _pair_reach,
    _proven_floor,
    _split_floors,
    _truncation,
    classify,
)
from .params import (
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
    when the verdict pairs the near-resonant terms, the pair bound) are
    proven for the terms summed and assumed past the stopping index;
    noise_bound estimates the rounding floor of the compensated
    accumulation.  Split at p/q (paired near it, or at a rational alpha =
    p/q), terms_first_series counts the first series' terms that p does not
    divide plus the pairs, and terms_second_series the second series' terms
    that q does not divide.
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


_SINE_TABLES = 16         # sine (and pair factor) tables kept, each
_SINE_TABLE_TERMS = 4096  # terms kept per table; later ones are recomputed
_SINE_TABLE_LOCK = threading.Lock()


@lru_cache(maxsize=_SINE_TABLES)
def _sine_table(div: tuple[int, int], num: tuple[int, int], skip: int) -> array:
    """sin(m pi div), sin(m pi num) interleaved for the indices m = 1, 2, ...
    that skip does not divide, the ones a divisor series sums, with div and
    num exact ratios (numerator, denominator) of integers: the k-th such
    index (from 0) sits at 2k and 2k + 1.  The values do not depend on beta,
    so every beta of a (divisor, numerator, skip) triple shares them.  A
    series fills the table to its stopping index, or to
    ``_SINE_TABLE_TERMS`` terms, by ``_fill``, and then only reads it.
    """
    return array("d")


@lru_cache(maxsize=_SINE_TABLES)
def _pair_table(ratio: tuple[int, int], p: int, q: int, rho: tuple[int, int],
                deg: int) -> array:
    """The beta-free factors X_n, Y_n of the pairs n = 1, 2, ... of the split
    series at alpha = ratio near p/q (``_pair_factors``), interleaved as in
    ``_sine_table`` and filled the same way."""
    return array("d")


def _fill(table: array, kept: int, entries) -> None:
    """Fill a table to ``kept`` entries (two floats each) with one extend of
    ``entries(start, kept)`` under the lock, start being its length then.
    A table only grows, by whole entries, so no reader ever sees the pairs
    misaligned."""
    with _SINE_TABLE_LOCK:
        table.extend(array("d", entries(len(table) // 2, kept)))


def _indices(n: int, d: int):
    """The indices 1..n that d does not divide, in increasing order."""
    every = range(1, n + 1)
    return every if d > n else compress(every, cycle((1,) * (d - 1) + (0,)))


def _sines(ms, div: tuple[int, int], num: tuple[int, int]):
    """sin(m pi div), sin(m pi num) for each m of ms, interleaved."""
    return chain.from_iterable((sin_mpi(m, *div), sin_mpi(m, *num)) for m in ms)


def _divisor_series(beta: float, step: float, div: tuple[int, int],
                    num: tuple[int, int], derivative: bool, c: float, nu: float,
                    target: float, max_terms: int, abs_sum: float, carry: float,
                    name: str, divisor: str = "", skip: int | None = None,
                    drift: float = 0.0):
    """One divisor series of g (or g'), summed up to the first index whose
    model tail bound (divisors above c / m^nu) is below target.

        g:   sum_m (-1)^(m+1) beta^(step m) sin(m pi num) / (m sin(m pi div))
        g':  sum_m (-1)^(m+1) step beta^(step m - 1) sin(m pi num) / sin(m pi div)

    sin(m pi div) is exactly 0 where div's denominator d divides m: with
    ``skip`` None such an index raises IllConditionedSeriesError naming
    ``divisor.format(d)``.  Otherwise the multiples of ``skip`` are left
    out, sines and all (the split series sums them as resonant terms), and
    skip = 1 leaves the family empty.  A ``drift`` makes the floor c one
    that holds only up to an index: the stopping index must keep
    ``diophantine._proven_floor(skip, drift, m)`` at or above c, or
    IllConditionedSeriesError is raised before the sum starts.  Returns
    (value, terms summed, tail bound, abs_sum plus the |terms|); a failure
    reports carry plus the sum up to index ``max_terms`` as its value.
    """
    if skip == 1:
        return 0.0, 0, 0.0, abs_sum
    d = div[1]
    # prefactor, exponent shift and index power of each term
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    stop, tail = _truncation(beta, step, pre, shift, nu - deg, c, target, max_terms)
    n = stop or max_terms
    if skip is None and d <= n:
        raise IllConditionedSeriesError(f"divisor {divisor.format(d)} vanished")
    if drift and _proven_floor(skip, drift, n) < c:
        raise IllConditionedSeriesError(
            f"{name}: divisor floor {c:.3e} not proven up to index {n}")
    skip = skip or d
    terms = n - n // skip
    kept = min(terms, _SINE_TABLE_TERMS)
    sines = _sine_table(div, num, skip)
    if len(sines) < 2 * kept:
        _fill(sines, kept, lambda start, end: _sines(
            islice(_indices(n, skip), start, end), div, num))
    # the kept terms read the table, the rest compute their sines
    pairs = chain(sines[:2 * kept],
                  _sines(islice(_indices(n, skip), kept, None), div, num))
    # Neumaier-compensated running sum
    total = comp = 0.0
    for m, den, sin_num in zip(_indices(n, skip), pairs, pairs):
        signed = pre if m % 2 == 1 else -pre
        term = signed * beta ** (step * m - shift) * sin_num / (m ** deg * den)
        t = total + term
        size = abs(term)
        if abs(total) >= size:
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        abs_sum += size
    if stop is None:
        raise ConvergenceFailureError(
            f"{name}: tail bound {tail:.3e} above tolerance after {max_terms} terms",
            value=carry + (total + comp), error_bound=tail)
    return total + comp, terms, tail, abs_sum


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
    beta^(N - shift) (X_n e_n + Y_n) with e_n = expm1(delta log beta)/delta,
    N = n p and delta = n delta_1 != 0.

    The pair is s alpha/(pi delta) [H(N + delta)/sinc(delta) -
    H(N)/sinc(delta/alpha)] with H(x) = beta^(x - shift) sin(rho pi x)/x^deg.
    It is summed as D/sinc(delta) + H(N) E with D = (H(N + delta) -
    H(N))/delta and E = (1/sinc(delta) - 1/sinc(delta/alpha))/delta, and
    neither is taken as a difference quotient: beta^delta - 1 is
    expm1(delta log beta), sin(a + h) - sin(a) at a = rho pi N is cos(a)
    sin(h) - 2 sin(a) sin(h/2)^2 with h = rho pi delta, and E is the
    difference of two ``_excess`` values over delta.  Only e_n and the
    power of beta depend on beta.
    """
    a_num, a_den = ratio
    alpha = a_num / a_den
    delta1 = (a_num * q - p * a_den) / a_den
    rho_pi = math.pi * rho[0] / rho[1]
    for n in ns:
        big_n, delta = n * p, n * delta1
        sin_a, cos_a = sincos_mpi(big_n, *rho)
        h = rho_pi * delta
        half = math.sin(0.5 * h)
        dsin = cos_a * math.sin(h) - 2.0 * sin_a * half * half
        y = math.pi * delta
        excess = _excess(y)
        gain = (excess - _excess(y / alpha)) / delta
        s = alpha / math.pi if (n * (p + q) + 1) % 2 == 0 else -alpha / math.pi
        lead = s * (1.0 + excess) / (big_n + delta) ** deg
        yield lead * (sin_a + dsin)
        yield lead * (dsin / delta - deg * sin_a / big_n) + s * sin_a * gain / big_n ** deg


def _split(ratio: tuple[int, int], p: int, q: int, rho: float, beta: float,
           tol: Tolerance, derivative: bool) -> tuple[float, int, int, float, float]:
    """g(beta) (or g') for 0 < beta < 1 by the series split at p/q, alpha
    given as its exact ratio of integers: the two divisor series less the
    indices m = n p and k = n q, plus one sum over n of those pairs.

    With delta_1 = alpha q - p (exact from the ratio), N = n p, delta =
    n delta_1 and s = (-1)^(n(p+q)+1), the terms m = N and k = n q sum to

        s alpha/(pi delta) [H(N + delta)/sinc(delta) - H(N)/sinc(delta/alpha)]

    with H(x) = beta^x sin(rho pi x)/x for g, beta^(x-1) sin(rho pi x) for
    g', and sinc(x) = sin(pi x)/(pi x) (``_pair_factors``).  At delta_1 = 0, alpha =
    p/q exactly, that is its limit s alpha H'(N)/pi, summed as
    beta^(N - shift)/N^deg alpha (rho cos(N pi rho) + (log beta - deg/N)
    sin(N pi rho)/pi), the exact resonant term at rational alpha.

    The nonresonant sums take the floors sin(pi/p) and sin(pi/q) at
    delta_1 = 0, else half of them, proven up to each stopping index
    (``diophantine._split_floors`` and ``_proven_floor``).  The pairs are bounded by
    ``diophantine._pair_prefactor`` over |delta| <= ``_pair_reach``, which
    covers every pair up to the term budget unless that reaches half a
    period; a last pair past the reach (the stopping index, or the term
    budget where the pairs do not converge) raises
    IllConditionedSeriesError before any sum runs.  Each
    sum stops for a bound under an eighth of the tolerance.  Returns the
    fields of a ``SeriesReport``, the pairs counted in its
    ``terms_first_series``.
    """
    a_num, a_den = ratio
    alpha = a_num / a_den
    gap = a_num * q - p * a_den         # delta_1 a_den, exact
    target = 0.125 * tol.abs_tol
    log_beta = math.log(beta)
    r_num, r_den = rho.as_integer_ratio()
    (c1, drift1), (c2, drift2) = _split_floors(ratio, p, q)

    # the pairs, reindexed by m = n p, k = n q: at delta = 0 the term of g'
    # is beta^(N-1) (A + B log beta), that of g its integral from 0 to beta,
    # beta^N/N (A + B (log beta - 1/N)); every pair is below
    # pre beta^(N - shift) / n^deg
    shift, deg = (1, 0) if derivative else (0, 1)
    delta1 = gap / a_den
    reach = _pair_reach(delta1, alpha, tol.max_terms) if gap else 0.0
    pre = _pair_prefactor(alpha, p, reach, math.pi * rho + abs(log_beta), beta, deg)
    stop, tail3 = _truncation(beta, p, pre, shift, -deg, 1, target, tol.max_terms)
    pairs = stop or tol.max_terms
    if pairs * abs(delta1) > reach:
        raise IllConditionedSeriesError(
            f"pairs: delta {pairs * abs(delta1):.3e} past the bounded reach {reach:.3e}")

    # nonresonant sums over m with p not dividing m, and over k with q not
    # dividing k (the second in powers beta^alpha, with sin(k pi rho alpha))
    v1, terms1, tail1, abs_sum = _divisor_series(
        beta, 1.0, (a_den, a_num), (r_num, r_den), derivative, c1, 0.0, target,
        tol.max_terms, 0.0, 0.0, "first nonresonant sum", skip=p, drift=drift1)
    v2, terms2, tail2, abs_sum = _divisor_series(
        beta, alpha, (a_num, a_den), (r_num * a_num, r_den * a_den), derivative, c2,
        0.0, target, tol.max_terms, abs_sum, v1, "second nonresonant sum", skip=q,
        drift=drift2)

    ns = range(1, pairs + 1)
    if gap:
        kept = min(len(ns), _SINE_TABLE_TERMS)
        key = (ratio, p, q, (r_num, r_den), deg)
        table = _pair_table(*key)
        if len(table) < 2 * kept:
            _fill(table, kept, lambda start, end: _pair_factors(ns[start:end], *key))
        factors = chain(table[:2 * kept], _pair_factors(ns[kept:], *key))
        factors = zip(factors, factors)
    total = comp = 0.0
    for n in ns:
        np_ = n * p
        if gap:
            x, y = next(factors)
            delta = n * delta1
            term = beta ** (np_ - shift) * (math.expm1(delta * log_beta) / delta * x + y)
        else:
            sign = 1.0 if (n * (p + q) + 1) % 2 == 0 else -1.0
            sin_n, cos_n = sincos_mpi(np_, r_num, r_den)
            term = sign * beta ** (np_ - shift) / np_ ** deg * alpha * (
                rho * cos_n + (log_beta - deg / np_) * sin_n / math.pi)
        t = total + term
        size = abs(term)
        if abs(total) >= size:
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        abs_sum += size
    if stop is None:
        raise ConvergenceFailureError("resonant sum did not converge",
                                      value=total + comp, error_bound=tail3)

    value = v1 + v2 + (total + comp)
    return (value, terms1 + stop, terms2, tail1 + tail2 + tail3,
            4.0 * EPS * (abs_sum + abs(value)))


def _series(params: StableParams, beta: float, tol: Tolerance | None,
            aclass: AlphaClass | None, derivative: bool) -> SeriesReport:
    tol = tol or Tolerance()
    if beta == 0.0 and not derivative:
        return SeriesReport(0.0, 0, 0, 0.0)
    if not 0.0 < beta < 1.0:
        lower = "0 <" if derivative else "0 <="
        raise OutOfRangeError(f"series form needs {lower} beta < 1, got {beta!r}")
    if aclass is None:
        aclass = classify(params.alpha, tol, beta)
    if aclass.kind is AlphaKind.RATIONAL:
        # the split at p/q itself, on the exact ratio: the float 0.8 is not 4/5
        ratio = (aclass.p, aclass.q)
        return SeriesReport(*_split(ratio, *ratio, params.rho, beta, tol, derivative))
    if aclass.kind is AlphaKind.ILL_CONDITIONED:
        raise IllConditionedSeriesError(
            "small divisors exceed the work/noise budget at this beta and tolerance, "
            "paired or not")
    alpha, rho = params.alpha, params.rho
    a_num, a_den = alpha.as_integer_ratio()
    if aclass.p is not None:
        return SeriesReport(*_split((a_num, a_den), aclass.p, aclass.q, rho, beta, tol,
                                    derivative))
    r_num, r_den = rho.as_integer_ratio()
    c = aclass.floor_constant
    nu = aclass.floor_power or 1.0
    half_tol = 0.5 * tol.abs_tol
    v1, terms1, tail1, abs_sum = _divisor_series(
        beta, 1.0, (a_den, a_num), (r_num, r_den), derivative, c, nu, half_tol,
        tol.max_terms, 0.0, 0.0, "first series", "sin({} pi/alpha)")
    # at the spectrally one-sided endpoint rho*alpha = 1 the second series
    # vanishes termwise
    v2, terms2, tail2 = 0.0, 0, 0.0
    if abs(rho * alpha - 1.0) > 4.0 * EPS:
        v2, terms2, tail2, abs_sum = _divisor_series(
            beta, alpha, (a_num, a_den), (r_num * a_num, r_den * a_den),
            derivative, c, nu, half_tol, tol.max_terms, abs_sum, v1, "second series",
            "sin({} pi alpha)")
    value = v1 + v2
    noise = 4.0 * EPS * (abs_sum + abs(value))
    return SeriesReport(value, terms1, terms2, tail1 + tail2, noise)


def g_series(params: StableParams, beta: float, tol: Tolerance | None = None,
             aclass: AlphaClass | None = None) -> SeriesReport:
    """g(beta) by the two-series expansion, for 0 <= beta < 1: generic,
    paired near a resonance p/q, or split at a rational alpha = p/q."""
    return _series(params, beta, tol, aclass, derivative=False)


def gprime_series(params: StableParams, beta: float, tol: Tolerance | None = None,
                  aclass: AlphaClass | None = None) -> SeriesReport:
    """g'(beta) by the termwise-differentiated expansion, for 0 < beta < 1;
    see ``g_series``."""
    return _series(params, beta, tol, aclass, derivative=True)

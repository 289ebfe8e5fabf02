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
beta^(x-1) sin(rho pi x) for g', sinc(x) = sin(pi x)/(pi x).  Every other
index summed keeps a floor proven in the diophantine module, half of
sin(pi/p) and sin(pi/q), and every pair summed a mean-value bound.  The
tail bound past the stopping index assumes the same floors and pair bound
for the later indices, where they are not checked.

At rational alpha = p/q (``classify``'s Rational verdict) the divisors of
the terms m = n p and k = n q vanish, and ``_split`` runs at delta = 0 on
the exact ratio (p, q): each pair is its limit s alpha H'(N)/pi, the
resonant term, taken like every pair from beta-free factors cached across
beta, and every other index keeps the floor sin(pi/p) or sin(pi/q) with no
drift.

Called without a verdict, the series decides its conditioning at each beta
itself, from alpha's cached ``diophantine._profile`` and the stopping
indices it sums to, each computed once: the split at a rational alpha;
else the generic sum, unless a family does not stop within the budget,
the noise of a term bound (``diophantine._stop``, before the sum) or of
the summed |terms| exceeds half the tolerance, or its bound the
tolerance; else the split at the pairing convergent, unless it fails the
checks of ``diophantine._split_stops``, all made before it sums.  A
verdict the caller passes stands as given, with no conditioning test.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, compress, cycle, islice, repeat
from operator import add

from .accurate import EPS, sin_mpi, sincos_mpi
from .diophantine import AlphaClass, AlphaKind, _profile, _split_stops, _stop
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


_TABLES = 64         # sine, coefficient and pair factor tables kept, each
_TABLE_TERMS = 4096  # terms kept per table; later ones are recomputed
_TABLE_LOCK = threading.RLock()


@lru_cache(maxsize=_TABLES)
def _table(key: tuple) -> array:
    """The beta-free factors of one sum of a series: keyed on (div, num,
    skip), sin(m pi num) and sin(m pi div) of a divisor series, shared by g
    and g'; on (div, num, skip, pre, deg), its coefficients (-1)^(m+1) pre
    sin(m pi num) / (m^deg sin(m pi div)); on the arguments of
    ``_pair_factors``, a split series' pair factors, two per term.  Every
    beta of a key shares them.  A series fills its table to its stopping
    index, or to ``_TABLE_TERMS`` terms, by ``_cached``, then only reads it.
    """
    return array("d")


def _cached(key: tuple, terms: int, width: int, entries):
    """An iterator over the floats of ``entries(0, terms)``, ``width`` per
    term, the first ``_TABLE_TERMS`` terms read from ``_table(key)``: a
    short table is extended with ``entries(start, kept)`` under the
    (reentrant) lock, start being its length in terms then.  A table only
    grows, by whole terms, so no reader sees a term's floats misaligned."""
    kept = min(terms, _TABLE_TERMS)
    table = _table(key)
    if len(table) < width * kept:
        with _TABLE_LOCK:
            table.extend(array("d", entries(len(table) // width, kept)))
    head = table[:width * kept]
    return chain(head, entries(kept, terms)) if terms > kept else iter(head)


def _indices(n: int, d: int):
    """The indices 1..n that d does not divide, in increasing order."""
    every = range(1, n + 1)
    return every if d > n else compress(every, cycle((1,) * (d - 1) + (0,)))


def _divisor_series(beta: float, step: float, div: tuple[int, int],
                    num: tuple[int, int], derivative: bool, stop: int | None,
                    tail: float, max_terms: int, skip: int, abs_sum: float,
                    carry: float, name: str) -> tuple[float, int, float]:
    """One divisor series of g (or g') summed up to its stopping index
    (``diophantine._stop``), over the indices m that skip does not divide:

        g:   sum_m (-1)^(m+1) beta^(step m) sin(m pi num) / (m sin(m pi div))
        g':  sum_m (-1)^(m+1) step beta^(step m - 1) sin(m pi num) / sin(m pi div)

    The split series leaves out the multiples of ``skip`` (it sums them as
    resonant terms), and skip = 1 leaves the family empty.  Returns (value,
    terms summed, abs_sum plus the |terms|); where stop is None,
    ConvergenceFailureError reports carry plus the sum to ``max_terms``.
    """
    if skip == 1:
        return 0.0, 0, abs_sum
    # prefactor, exponent shift and index power of each term
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    n = stop or max_terms
    sines = (div, num, skip)

    def coefs(start: int, end: int):
        both = islice(_cached(sines, end, 2, lambda first, last: chain.from_iterable(
            (sin_mpi(m, *num), sin_mpi(m, *div))
            for m in islice(_indices(n, skip), first, last))), 2 * start, None)
        return ((pre if m % 2 else -pre) * s_num / (m ** deg * s_div)
                for m, s_num, s_div in zip(islice(_indices(n, skip), start, end), both, both))

    count = n - n // skip
    terms = [beta ** (step * m - shift) * coef for m, coef in
             zip(_indices(n, skip), _cached(sines + (pre, deg), count, 1, coefs))]
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


def _split(ratio: tuple[int, int], p: int, q: int, rho: float, beta: float,
           tol: Tolerance, derivative: bool,
           strict: bool) -> tuple[float, int, int, float, float]:
    """g(beta) (or g') for 0 < beta < 1 by the series split at p/q (see the
    module docstring), alpha given as its exact ratio of integers: the two
    divisor series less the indices m = n p and k = n q, plus one sum over
    the pairs n, each beta^(N - shift) (e_n X_n + Y_n) with beta-free
    factors X_n, Y_n (``_pair_factors``) read from a table shared across
    beta.  The stops, and the checks made before any sum, are those of
    ``diophantine._split_stops``; at delta_1 = 0, whose noise no projection
    budgets, a bound above the tolerance raises IllConditionedSeriesError.
    Returns the fields of a ``SeriesReport``, the pairs counted in its
    ``terms_first_series``."""
    a_num, a_den = ratio
    alpha = a_num / a_den
    delta1 = (a_num * q - p * a_den) / a_den
    log_beta = math.log(beta)
    r_num, r_den = rho.as_integer_ratio()
    (stop, tail3), (stop1, tail1), (stop2, tail2) = _split_stops(
        ratio, p, q, math.pi * rho + abs(log_beta), beta, tol, derivative, strict)

    # nonresonant sums over m with p not dividing m, and over k with q not
    # dividing k (the second in powers beta^alpha, with sin(k pi rho alpha))
    v1, terms1, abs_sum = _divisor_series(
        beta, 1.0, (a_den, a_num), (r_num, r_den), derivative, stop1, tail1,
        tol.max_terms, p, 0.0, 0.0, "first nonresonant sum")
    v2, terms2, abs_sum = _divisor_series(
        beta, alpha, (a_num, a_den), (r_num * a_num, r_den * a_den), derivative, stop2,
        tail2, tol.max_terms, q, abs_sum, v1, "second nonresonant sum")

    # the pairs, reindexed by m = n p, k = n q
    shift, deg = (1, 0) if derivative else (0, 1)
    ns = range(1, (stop or tol.max_terms) + 1)
    key = (ratio, p, q, (r_num, r_den), deg)
    factors = _cached(key, len(ns), 2, lambda start, end: _pair_factors(ns[start:end], *key))
    growth = (repeat(log_beta) if not delta1 else
              (math.expm1(n * delta1 * log_beta) / (n * delta1) for n in ns))
    terms = [beta ** (n * p - shift) * (e * x + y)
             for n, e, x, y in zip(ns, growth, factors, factors)]
    if stop is None:
        raise ConvergenceFailureError("resonant sum did not converge",
                                      value=math.fsum(terms), error_bound=tail3)

    value = v1 + v2 + math.fsum(terms)
    noise = 4.0 * EPS * (reduce(add, map(abs, terms), abs_sum) + abs(value))
    tail = tail1 + tail2 + tail3
    if not delta1 and tail + noise > tol.abs_tol:
        raise IllConditionedSeriesError(
            f"error bound {tail + noise:.3e} above the tolerance {tol.abs_tol:.3e}")
    return value, terms1 + stop, terms2, tail, noise


def _one_sided(beta: float, alpha: float, derivative: bool, c: float, nu: float,
               skew: float, target: float, max_terms: int) -> float:
    """A bound on the second divisor series skew = |rho alpha - 1| from the
    one-sided endpoint: |sin(k pi rho alpha)| <= pi k skew, so term k lies
    below pi skew k times its bound; those summed to their stop plus its
    tail, or inf where they do not stop within the budget."""
    pre, shift, deg = (alpha, 1.0, 0) if derivative else (1.0, 0.0, 1)
    stop, tail = _stop(beta, alpha, derivative, c, nu + 1.0, target, max_terms)
    return math.inf if stop is None else math.pi * skew * (tail + math.fsum(
        pre * beta ** (alpha * k - shift) * k ** (nu + 1.0 - deg) / c
        for k in range(1, stop + 1)))


def _generic(alpha: float, rho: float, beta: float, tol: Tolerance, aclass: AlphaClass,
             derivative: bool, decide: bool) -> SeriesReport | None:
    """The two divisor series at the floor model of ``aclass``, each summed
    to its stop for a tail bound under half the tolerance; with ``decide``,
    None where the series refuses them (see the module docstring)."""
    a_num, a_den = alpha.as_integer_ratio()
    r_num, r_den = rho.as_integer_ratio()
    c, nu, cap = aclass.floor_constant, aclass.floor_power or 1.0, 0.5 * tol.abs_tol
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
        stop, bound = _stop(beta, step, derivative, c, nu, cap, tol.max_terms,
                            cap if decide else None)
        if decide and stop is None:
            return None
        # sin(m pi div) is exactly 0 where div's denominator divides m
        if div[1] <= (stop or tol.max_terms):
            raise IllConditionedSeriesError(f"divisor {divisor.format(div[1])} vanished")
        stops.append((stop, bound))
    value = abs_sum = 0.0
    counts = [0, 0]
    for i, ((stop, bound), (step, div, num, name, _)) in enumerate(zip(stops, families)):
        v, counts[i], abs_sum = _divisor_series(beta, step, div, num, derivative, stop, bound,
                                                tol.max_terms, div[1], abs_sum, value, name)
        value += v
        tail += bound
    noise = 4.0 * EPS * (abs_sum + abs(value))
    if decide and (4.0 * EPS * abs_sum > cap or tail + noise > tol.abs_tol):
        return None
    return SeriesReport(value, *counts, tail, noise)


def _series(params: StableParams, beta: float, tol: Tolerance | None,
            aclass: AlphaClass | None, derivative: bool) -> SeriesReport:
    tol = tol or Tolerance()
    if beta == 0.0 and not derivative:
        return SeriesReport(0.0, 0, 0, 0.0)
    if not 0.0 < beta < 1.0:
        lower = "0 <" if derivative else "0 <="
        raise OutOfRangeError(f"series form needs {lower} beta < 1, got {beta!r}")
    alpha, rho = params.alpha, params.rho
    decide, pair = aclass is None, None
    if decide:
        aclass, pair = _profile(alpha)
    if aclass.kind is AlphaKind.RATIONAL:
        # split at the exact ratio p/q itself (the float 0.8 is not 4/5), so
        # that its pairs sit at delta = 0
        return SeriesReport(*_split((aclass.p, aclass.q), aclass.p, aclass.q, rho, beta,
                                    tol, derivative, False))
    ill = aclass.kind is AlphaKind.ILL_CONDITIONED
    if aclass.p is None and not ill:
        report = _generic(alpha, rho, beta, tol, aclass, derivative, decide)
        if report is not None:
            return report
    if ill or not (pair or aclass.p):
        raise IllConditionedSeriesError("small divisors exceed the work/noise budget at this "
                                        "beta and tolerance, paired or not")
    p, q = pair or (aclass.p, aclass.q)
    return SeriesReport(*_split(alpha.as_integer_ratio(), p, q, rho, beta, tol, derivative,
                                decide))


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

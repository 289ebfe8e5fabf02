"""Power-series evaluation of g and g' with small-divisor-aware truncation.

For irrational, well-conditioned alpha and 0 < beta < 1:

    g(beta)  = sum_m (-1)^(m+1) beta^m  sin(rho m pi) / (m sin(m pi/alpha))
             + sum_k (-1)^(k+1) beta^(alpha k) sin(rho alpha k pi)
                                               / (k sin(alpha k pi))

and g' is its termwise derivative.  Truncation uses the model floor
|sin(m pi x)| >= c / m^(N-1) calibrated by the diophantine module; the
stopping index is bisected on the resulting tail bound, which is rigorous
exactly when the exponent estimate N is, so it is reported.  Both series
are accumulated with compensated summation and combined in a fixed order.
At rational alpha = p/q, ``_divisor_series`` also sums the same two series
less their resonant indices, with the floors sin(pi/p) and sin(pi/q).
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress, cycle, islice

from .accurate import EPS, sin_mpi
from .diophantine import AlphaClass, AlphaKind, _truncation, classify
from .params import (
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodNotApplicableError,
    OutOfRangeError,
    StableParams,
    Tolerance,
)


@dataclass(frozen=True)
class SeriesReport:
    """Outcome of a series evaluation.

    tail_bound is the truncation bound (heuristic if the irrationality
    exponent behind it is an estimate); noise_bound estimates the rounding
    floor of the compensated accumulation.
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


_SINE_TABLES = 16         # (divisor, numerator) pairs whose sines are kept
_SINE_TABLE_TERMS = 4096  # terms kept per pair; later ones are recomputed
_SINE_TABLE_LOCK = threading.Lock()


@lru_cache(maxsize=_SINE_TABLES)
def _sine_table(div: tuple[int, int], num: tuple[int, int]) -> array:
    """sin(m pi div), sin(m pi num) interleaved for the indices m = 1, 2, ...
    a divisor series sums, with div and num exact ratios (numerator,
    denominator) of integers: the k-th such index (from 0) sits at 2k and
    2k + 1.  The values do not depend on beta, so every beta of a (divisor,
    numerator) pair shares them.  A series fills the table to its stopping
    index, or to ``_SINE_TABLE_TERMS`` terms, with one extend under the lock
    and then only reads it; the table only grows, so no reader ever sees the
    pairs misaligned.
    """
    return array("d")


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
                    name: str, divisor: str | None = None):
    """One divisor series of g (or g'), summed up to the first index whose
    model tail bound (divisors above c / m^nu) is below target.

        g:   sum_m (-1)^(m+1) beta^(step m) sin(m pi num) / (m sin(m pi div))
        g':  sum_m (-1)^(m+1) step beta^(step m - 1) sin(m pi num) / sin(m pi div)

    sin(m pi div) is exactly 0 where div's denominator d divides m: that
    raises IllConditionedSeriesError naming ``divisor.format(m)``, or with
    ``divisor`` None (rational alpha, where the resonant sum carries those
    indices) the index is skipped, sines and all.  Returns (value, terms
    summed, tail bound, abs_sum plus the |terms|); a failure reports carry
    plus the sum up to index ``max_terms`` as its value.
    """
    d = div[1]
    if d == 1 and divisor is None:
        return 0.0, 0, 0.0, abs_sum
    # prefactor, exponent shift and index power of each term
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    stop, tail = _truncation(beta, step, pre, shift, nu - deg, c, target, max_terms)
    n = stop or max_terms
    if d <= n and divisor is not None:
        raise IllConditionedSeriesError(f"divisor {divisor.format(d)} vanished")
    terms = n - n // d
    kept = min(terms, _SINE_TABLE_TERMS)
    sines = _sine_table(div, num)
    if len(sines) < 2 * kept:
        with _SINE_TABLE_LOCK:
            ms = islice(_indices(n, d), len(sines) // 2, kept)
            sines.extend(array("d", _sines(ms, div, num)))  # whole pairs only
    # the kept terms read the table, the rest compute their sines
    pairs = chain(sines[:2 * kept], _sines(islice(_indices(n, d), kept, None), div, num))
    # Neumaier-compensated running sum, as in CompensatedSum
    total = comp = 0.0
    for m, den, sin_num in zip(_indices(n, d), pairs, pairs):
        signed = pre if m % 2 == 1 else -pre
        term = signed * beta ** (step * m - shift) * sin_num / (m ** deg * den)
        t = total + term
        if abs(total) >= abs(term):
            comp += (total - t) + term
        else:
            comp += (term - t) + total
        total = t
        abs_sum += abs(term)
    if stop is None:
        raise ConvergenceFailureError(
            f"{name}: tail bound {tail:.3e} above tolerance after {max_terms} terms",
            value=carry + (total + comp), error_bound=tail)
    return total + comp, terms, tail, abs_sum


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
        raise MethodNotApplicableError(
            "series evaluation needs irrational alpha; "
            "use the rational-alpha or quadrature evaluators")
    if aclass.kind is AlphaKind.ILL_CONDITIONED:
        raise IllConditionedSeriesError(
            "small divisors exceed the work/noise budget at this beta and tolerance")
    alpha, rho = params.alpha, params.rho
    a_num, a_den = alpha.as_integer_ratio()
    r_num, r_den = rho.as_integer_ratio()
    c = aclass.floor_constant
    nu = (aclass.exponent_estimate or 2.0) - 1.0
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
    """g(beta) by the two-series expansion, for 0 <= beta < 1."""
    return _series(params, beta, tol, aclass, derivative=False)


def gprime_series(params: StableParams, beta: float, tol: Tolerance | None = None,
                  aclass: AlphaClass | None = None) -> SeriesReport:
    """g'(beta) by the termwise-differentiated expansion, for 0 < beta < 1."""
    return _series(params, beta, tol, aclass, derivative=True)

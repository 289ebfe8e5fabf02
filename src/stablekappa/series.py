"""Power-series evaluation of g and g' with small-divisor-aware truncation.

For irrational, well-conditioned alpha and 0 < beta < 1:

    g(beta)  = sum_m (-1)^(m+1) beta^m  sin(rho m pi) / (m sin(m pi/alpha))
             + sum_k (-1)^(k+1) beta^(alpha k) sin(rho alpha k pi)
                                               / (k sin(alpha k pi))

and g' is its termwise derivative.  Truncation uses the model floor
|sin(m pi x)| >= c / m^(N-1) calibrated by the diophantine module; the
resulting tail bound is rigorous exactly when the exponent estimate N is,
so it is reported rather than hidden.  Both series are accumulated with
compensated summation and combined in a fixed order.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .accurate import EPS, CompensatedSum, sin_mpi
from .diophantine import AlphaClass, AlphaKind, classify
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


_SINE_TABLES = 8          # (divisor, numerator) pairs whose sines are kept
_SINE_TABLE_TERMS = 4096  # indices kept per pair; later ones are recomputed
_SINE_TABLE_LOCK = threading.Lock()


@lru_cache(maxsize=_SINE_TABLES)
def _sine_table(div: tuple[int, int], num: tuple[int, int]) -> array:
    """sin(m pi div), sin(m pi num) for m = 1, 2, ... interleaved, with div
    and num exact ratios (numerator, denominator) of integers: entry m
    sits at 2m - 2 and 2m - 1.  The values do not depend on beta, so every
    beta of a (divisor, numerator) pair shares them.  The table starts
    empty and grows on demand; entry m is appended, under the lock, only
    while the length is 2m - 2, so no reader ever sees the pair misaligned.
    """
    return array("d")


def _divisor_series(beta: float, step: float, div: tuple[int, int],
                    num: tuple[int, int], derivative: bool, c: float,
                    nu: float, tol: Tolerance, abs_sum: float, carry: float,
                    name: str, divisor: str):
    """One of the two divisor series of g (or g'), summed until the model
    tail bound (divisors above c / m^nu) drops below half the tolerance.

        g:   sum_m (-1)^(m+1) beta^(step m) sin(m pi num) / (m sin(m pi div))
        g':  sum_m (-1)^(m+1) step beta^(step m - 1) sin(m pi num) / sin(m pi div)

    Returns (value, terms, tail bound, abs_sum plus the |terms|); a failure
    reports carry plus the partial sum as its value.
    """
    # prefactor, exponent shift and index power of each term: m^deg is
    # carried as idx, which steps by deg
    pre, shift, deg = (step, 1.0, 0) if derivative else (1.0, 0.0, 1)
    power = nu - deg
    base = beta ** step
    half_tol = 0.5 * tol.abs_tol
    (div_num, div_den), (num_num, num_den) = div, num
    sines = _sine_table(div, num)
    acc = CompensatedSum()
    tail = math.inf
    idx = 1
    # beta^(step m - shift): the tail bound of term m is made from term
    # m + 1's power, which the next term then reuses
    bpow = beta ** (step - shift)
    for m in range(1, tol.max_terms + 1):
        if 2 * m <= len(sines):
            den, sin_num = sines[2 * m - 2], sines[2 * m - 1]
        else:
            den = sin_mpi(m, div_num, div_den)
            if den == 0.0:
                raise IllConditionedSeriesError(f"divisor {divisor.format(m)} vanished")
            sin_num = sin_mpi(m, num_num, num_den)
            if m <= _SINE_TABLE_TERMS:
                with _SINE_TABLE_LOCK:
                    if len(sines) == 2 * m - 2:
                        sines.extend((den, sin_num))
        signed = pre if m % 2 == 1 else -pre
        term = signed * bpow * sin_num / (idx * den)
        acc.add(term)
        abs_sum += abs(term)
        idx += deg
        j = m + 1
        bpow = beta ** (step * j - shift)
        nxt = pre * bpow * j ** power / c
        ratio = base * ((j + 1) / j) ** power
        if ratio < 1.0:
            tail = nxt / (1.0 - ratio)
            if tail < half_tol:
                return acc.value, m, tail, abs_sum
    raise ConvergenceFailureError(
        f"{name}: tail bound {tail:.3e} above tolerance after {tol.max_terms} terms",
        value=carry + acc.value, error_bound=tail)


def _series_sums(params: StableParams, beta: float, tol: Tolerance,
                 aclass: AlphaClass, derivative: bool) -> SeriesReport:
    alpha, rho = params.alpha, params.rho
    a_num, a_den = alpha.as_integer_ratio()
    r_num, r_den = rho.as_integer_ratio()
    c = aclass.floor_constant
    nu = (aclass.exponent_estimate or 2.0) - 1.0
    v1, terms1, tail1, abs_sum = _divisor_series(
        beta, 1.0, (a_den, a_num), (r_num, r_den), derivative, c, nu, tol,
        0.0, 0.0, "first series", "sin({} pi/alpha)")
    # at the spectrally one-sided endpoint rho*alpha = 1 the second series
    # vanishes termwise
    v2, terms2, tail2 = 0.0, 0, 0.0
    if abs(rho * alpha - 1.0) > 4.0 * EPS:
        v2, terms2, tail2, abs_sum = _divisor_series(
            beta, alpha, (a_num, a_den), (r_num * a_num, r_den * a_den),
            derivative, c, nu, tol, abs_sum, v1, "second series", "sin({} pi alpha)")

    value = v1 + v2
    noise = 4.0 * EPS * (abs_sum + abs(value))
    return SeriesReport(value, terms1, terms2, tail1 + tail2, noise)


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
    return _series_sums(params, beta, tol, aclass, derivative)


def g_series(params: StableParams, beta: float, tol: Tolerance | None = None,
             aclass: AlphaClass | None = None) -> SeriesReport:
    """g(beta) by the two-series expansion, for 0 <= beta < 1."""
    return _series(params, beta, tol, aclass, derivative=False)


def gprime_series(params: StableParams, beta: float, tol: Tolerance | None = None,
                  aclass: AlphaClass | None = None) -> SeriesReport:
    """g'(beta) by the termwise-differentiated expansion, for 0 < beta < 1."""
    return _series(params, beta, tol, aclass, derivative=True)

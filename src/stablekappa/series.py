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

The module also carries the auxiliary alternating series for
int_0^b y^p/(1+y) dy and int_b^inf y^-p/(1+y) dy, and four classical
identity kernels used as self-test oracles.
"""

from __future__ import annotations

import math
import threading
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .accurate import (
    EPS,
    CompensatedSum,
    div2,
    sin_mpi,
    sin_pi,
    two_prod,
)
from .diophantine import AlphaClass, AlphaKind, classify
from .params import (
    ConvergenceFailureError,
    EvalResult,
    IllConditionedSeriesError,
    MethodChoice,
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
def _sine_table(div: tuple[float, float], num: tuple[float, float]) -> array:
    """sin(m pi div), sin(m pi num) for m = 1, 2, ... interleaved: entry m
    sits at 2m - 2 and 2m - 1.  The values do not depend on beta, so every
    beta of a (divisor, numerator) pair shares them.  The table starts
    empty and grows on demand; entry m is appended, under the lock, only
    while the length is 2m - 2, so no reader ever sees the pair misaligned.
    """
    return array("d")


def _divisor_series(beta: float, step: float, div: tuple[float, float],
                    num: tuple[float, float], derivative: bool, c: float,
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
    (div_hi, div_lo), (num_hi, num_lo) = div, num
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
            den = sin_mpi(m, div_hi, div_lo)
            if den == 0.0:
                raise IllConditionedSeriesError(f"divisor {divisor.format(m)} vanished")
            sin_num = sin_mpi(m, num_hi, num_lo)
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
    c = aclass.floor_constant
    nu = (aclass.exponent_estimate or 2.0) - 1.0
    v1, terms1, tail1, abs_sum = _divisor_series(
        beta, 1.0, div2(1.0, alpha), (rho, 0.0), derivative, c, nu, tol,
        0.0, 0.0, "first series", "sin({} pi/alpha)")
    # at the spectrally one-sided endpoint rho*alpha = 1 the second series
    # vanishes termwise
    v2, terms2, tail2 = 0.0, 0, 0.0
    if abs(rho * alpha - 1.0) > 4.0 * EPS:
        v2, terms2, tail2, abs_sum = _divisor_series(
            beta, alpha, (alpha, 0.0), two_prod(rho, alpha), derivative, c, nu,
            tol, abs_sum, v1, "second series", "sin({} pi alpha)")

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


# ---------------------------------------------------------------------------
# auxiliary alternating series
# ---------------------------------------------------------------------------

_DIRECT_TERMS = 64  # direct summation budget before switching to the tail form


def _alt_tail(a: float, b: float, tol: float) -> tuple[float, float]:
    """sum_{i>=0} (-b)^i / (a + i) with a > 0, 0 < b <= 1, and a rigorous bound.

    Repeated integration by parts of int_0^1 t^(a-1)/(1+b t) dt gives
        sum_r c_r / ((1+b)^(r+1) (a+r)),   c_{r+1} = c_r b (r+1)/(a+r),
    whose remainder after R terms is below c_R / (a + R).  The coefficients
    decay factorially once r exceeds a, so sixty rounds are plenty.
    """
    val = 0.0
    coef = 1.0
    rem = math.inf
    for r in range(60):
        val += coef / ((1.0 + b) ** (r + 1) * (a + r))
        coef *= b * (r + 1) / (a + r)
        rem = coef / (a + r + 1)
        if rem < tol:
            break
    return val, rem


def aux_int0b(p: float, b: float, tol: Tolerance | None = None) -> EvalResult:
    """int_0^b y^p/(1+y) dy as the alternating series sum (-1)^k b^(k+1+p)/(k+1+p)."""
    tol = tol or Tolerance()
    if not p > 0.0:
        raise OutOfRangeError(f"p must be positive, got {p!r}")
    if not 0.0 < b < 1.0:
        raise OutOfRangeError(f"b must lie in (0, 1), got {b!r}")
    acc = CompensatedSum()
    terms = 0
    for k in range(_DIRECT_TERMS):
        e = k + 1.0 + p
        acc.add((-1.0) ** k * b ** e / e)
        terms = k + 1
        nxt = b ** (e + 1.0) / (e + 1.0)
        if nxt < tol.abs_tol:
            return EvalResult(acc.value, nxt + 4.0 * EPS * abs(acc.value),
                              MethodChoice.SERIES, terms)
    # remaining tail, reindexed around a = K+1+p
    a = _DIRECT_TERMS + 1.0 + p
    tail, rem = _alt_tail(a, b, tol.abs_tol)
    sign = (-1.0) ** _DIRECT_TERMS
    value = acc.value + sign * b ** a * tail
    return EvalResult(value, rem * b ** a + 4.0 * EPS * abs(value),
                      MethodChoice.SERIES, terms)


def aux_intbinfty(p: float, b: float, tol: Tolerance | None = None) -> EvalResult:
    """int_b^inf y^-p/(1+y) dy for 0 < b <= 1, p > 0.

    Noninteger p: pi/sin(p pi) + sum_k (-1)^(k+1) b^(k+1-p)/(k+1-p).
    p within 4 ulp of an integer n: the removable-singularity branch
    (-1)^n log(b) plus the k != n-1 sum, which collapses to elementary
    closed form.  The crossover is deterministic.
    """
    tol = tol or Tolerance()
    if not p > 0.0:
        raise OutOfRangeError(f"p must be positive, got {p!r}")
    if not 0.0 < b <= 1.0:
        raise OutOfRangeError(f"b must lie in (0, 1], got {b!r}")
    n = round(p)
    if n >= 1 and abs(p - n) <= 4.0 * EPS * max(1.0, abs(p)):
        # integer branch: k > n-1 terms sum to (-1)^(n+1) log(1+b) exactly
        lead = 0.0
        for k in range(n - 1):
            e = k + 1.0 - n
            lead += (-1.0) ** (k + 1) * b ** e / e
        value = (-1.0) ** n * math.log(b) + lead + (-1.0) ** (n + 1) * math.log1p(b)
        return EvalResult(value, 8.0 * EPS * (1.0 + abs(value) + abs(lead)),
                          MethodChoice.SERIES, n + 1)

    value = math.pi / sin_pi(math.remainder(p, 2.0))
    acc = CompensatedSum()
    terms = 0
    switch = max(_DIRECT_TERMS, int(math.ceil(p)) + 8)
    for k in range(switch):
        e = k + 1.0 - p
        acc.add((-1.0) ** (k + 1) * b ** e / e)
        terms = k + 1
        if e > 0.0:
            nxt = b ** (e + 1.0) / (e + 1.0)
            if nxt < tol.abs_tol:
                return EvalResult(value + acc.value,
                                  nxt + 4.0 * EPS * (abs(value) + abs(acc.value)),
                                  MethodChoice.SERIES, terms)
    a = switch + 1.0 - p
    tail, rem = _alt_tail(a, b, tol.abs_tol)
    total = value + acc.value + (-1.0) ** (switch + 1) * b ** a * tail
    return EvalResult(total, rem * b ** a + 4.0 * EPS * (abs(value) + abs(acc.value)),
                      MethodChoice.SERIES, terms)


# ---------------------------------------------------------------------------
# classical identity kernels (self-test oracles)
# ---------------------------------------------------------------------------

def kernel_alt_sine(z: float, w: float, M: int) -> tuple[float, float]:
    """M-term partial sum of sum_m (-1)^(m+1) m sin(m z)/(m^2 - w^2)
    against its closed form (pi/2) sin(z w)/sin(w pi).

    Valid for z in (-pi, pi) and noninteger w; convergence is slow and
    oscillatory, which is exactly what the self-test exercises.
    """
    if not -math.pi < z < math.pi:
        raise OutOfRangeError(f"z must lie in (-pi, pi), got {z!r}")
    sw = sin_pi(math.remainder(w, 2.0))
    if sw == 0.0:
        raise OutOfRangeError(f"w must not be an integer, got {w!r}")
    acc = CompensatedSum()
    for m in range(1, M + 1):
        acc.add((-1.0) ** (m + 1) * m * math.sin(m * z) / (m * m - w * w))
    return acc.value, 0.5 * math.pi * math.sin(z * w) / sw


def kernel_cosecant(z: float, K: int) -> tuple[float, float]:
    """Partial-fraction partial sum 1/z - sum_k (-1)^k 2z/(k^2 - z^2)
    against pi/sin(pi z), for noninteger z."""
    sz = sin_pi(math.remainder(z, 2.0))
    if sz == 0.0:
        raise OutOfRangeError(f"z must not be an integer, got {z!r}")
    acc = CompensatedSum()
    acc.add(1.0 / z)
    for k in range(1, K + 1):
        acc.add(-((-1.0) ** k) * 2.0 * z / (k * k - z * z))
    return acc.value, math.pi / sz


def kernel_geom_sine(p: float, x: float, n: int) -> tuple[float, float]:
    """Finite sum sum_{k=1}^{n-1} p^k sin(k x) against its rational closed form.

    The identity is exact, so both sides must agree to rounding error
    whenever |p| <= 1 and the denominator stays away from zero.
    """
    if n < 1:
        raise OutOfRangeError(f"n must be at least 1, got {n!r}")
    acc = CompensatedSum()
    pk = 1.0
    for k in range(1, n):
        pk *= p
        acc.add(pk * math.sin(k * x))
    closed = (p * math.sin(x) - p ** n * math.sin(n * x)
              + p ** (n + 1) * math.sin((n - 1) * x)) / (
        1.0 - 2.0 * p * math.cos(x) + p * p)
    return acc.value, closed


def kernel_poisson(x: float, z: float, M: int) -> tuple[float, float]:
    """M+1 term partial sum of sum_m (-1)^m x^m sin((m+1) z) against
    sin(z)/(x^2 + 2x cos(z) + 1); remainder below |x|^(M+1)/(1-|x|)."""
    if not abs(x) < 1.0:
        raise OutOfRangeError(f"|x| must be below 1, got {x!r}")
    acc = CompensatedSum()
    xm = 1.0
    for m in range(M + 1):
        acc.add(xm * math.sin((m + 1) * z))
        xm *= -x
    closed = math.sin(z) / (x * x + 2.0 * x * math.cos(z) + 1.0)
    return acc.value, closed

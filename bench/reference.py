"""A fixed pure-Python computation that gauges the machine's speed.

It does the kind of work the package does (float arithmetic, calls into
``math``, small tuples, Python-level function calls) and none of the
package's own code, so no change to the package moves its time.  The
time of one ``kernel()`` call is the benchmark's unit of time, ``ref``.
"""

from __future__ import annotations

import math
from time import perf_counter

N = 2000


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def kernel() -> float:
    hi = lo = 0.0
    for k in range(1, N):
        x = k * 0.37
        t = math.sin(x) * math.exp(-1e-3 * k) / (1.0 + x * x)
        hi, e = _two_sum(hi, t)
        lo += e
    return hi + lo


def sample() -> float:
    """Wall time of one kernel call, in seconds."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0

"""The split series' values pinned bit for bit.

(value, first-series terms, second-series terms, tail bound, noise bound),
in the store ``split``: of ``g_series`` and ``gprime_series`` at the
rational alphas of the benchmark's grid with its rho, split at delta = 0,
near 3/2 and at 0.5 + sqrt2/40 at rho 0.5 as the series decides at each
beta, and at sqrt 2 (rho 0.5) and pi/2 (rho 0.45), where it sums
generically at every beta; and of the split at the pairing convergents 3/2
and 53/99, called directly as ``_split(_plan(...), beta)`` with the checks
of a paired split.  Each is checked cold, every cache cleared before the
call, and warm, after every case has filled them, and each value lies
within its tail and noise bounds of the stored 30-digit integral.  To pin
a new case, add its alpha to ``RHO`` (its pairing convergent to
``PAIRED``) and run ``python tests/regen.py split oracle``.
"""

import math

import pytest

from stablekappa import SeriesReport, Tolerance, g_series, gprime_series, validate
from stablekappa import series as series_module

import store
from conftest import clear_caches

SQRT2 = math.sqrt(2.0)
BETAS = (0.01, 0.1, 0.5, 0.9, 0.94)
SERIES = {"g": g_series, "gprime": gprime_series}
RHO = {0.3: 0.5, 0.8: 0.25, 1.0: 0.5, 1.5: 2.0 / 3.0, 1.9: 0.5, 2.0: 0.5,
       1.50000001: 0.5, 0.5 + SQRT2 / 40.0: 0.5, SQRT2: 0.5, math.pi / 2.0: 0.45}
# the pairing convergents split at directly, besides the series' own form
PAIRED = {1.50000001: (3, 2), 0.5 + SQRT2 / 40.0: (53, 99)}

# (alpha, pairing convergent split at directly or None, series, beta)
CASES = [(alpha, pair, name, beta) for alpha in RHO
         for pair in ((None, PAIRED[alpha]) if alpha in PAIRED else (None,))
         for name in SERIES for beta in BETAS]
ORACLE_POINTS = [(alpha, RHO[alpha], beta, name == "gprime") for alpha, _, name, beta in CASES]


def _outcome(alpha, pair, name, beta, cold=False):
    if cold:
        clear_caches()
    if pair:
        tol = Tolerance()
        plan = series_module._plan(*alpha.as_integer_ratio(), *pair, RHO[alpha],
                                   name == "gprime", tol.abs_tol, tol.max_terms)
        rep = SeriesReport(*series_module._split(plan, beta))
    else:
        rep = SERIES[name](validate(alpha, RHO[alpha]), beta)
    return (rep.value, rep.terms_first_series, rep.terms_second_series, rep.tail_bound,
            rep.noise_bound)


def pins(cold: bool = True) -> dict:
    return {case: _outcome(*case, cold) for case in CASES}


def test_split_pins_cover_every_case():
    assert list(store.load("split")) == CASES


def test_split_pins_lie_within_their_bounds_of_the_oracle():
    for (alpha, _, name, beta), (value, _, _, tail, noise) in store.load("split").items():
        ref, err = store.oracle(alpha, RHO[alpha], beta, name == "gprime")
        assert abs(value - ref) <= tail + noise - err - 0.5 * math.ulp(ref), (alpha, name, beta)


@pytest.mark.parametrize("warm", [False, True])
def test_split_values_bit_identical_to_their_pins(warm):
    clear_caches()
    if warm:
        pins(cold=False)
    assert store.dumps(pins(cold=not warm)) == store.dumps(store.load("split"))

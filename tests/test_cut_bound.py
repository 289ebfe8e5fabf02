"""The cut's tail bound against the 30-digit integral.

Every value the series returns, generic, paired near a resonance or split
at a rational alpha, for g and g', lies within its tail bound R(c') plus
its noise bound of ``tests/oracles.g_mpmath`` (or ``gprime_mpmath``), and
every split stops with its pairs whole.  Near a resonance the split at the
pairing convergent is also called directly.  The oracle's values are read
from the store.  The grid leaves out alpha = 1 + 2^-40 at rho = 1/alpha,
where the oracle itself is off by up to 4.3e-8.
"""

import math

import pytest

from stablekappa import (
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodChoice,
    SeriesReport,
    Tolerance,
    g_series,
    gprime_any_beta,
    gprime_series,
    validate,
)
from stablekappa import series as series_module

import store

SQRT2 = math.sqrt(2.0)
# rational; near 3/2 and near 53/99, where the series pairs; irrational
ALPHAS = (1.0, 0.3, 1.9, 0.5, 1.50000001, 0.5 + SQRT2 / 40.0, SQRT2, math.pi / 2.0,
          math.e / 2.0)
BETAS = (1e-8, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


def _rhos(alpha):
    """rho 1/2, and 0.9 below alpha 1 or the one-sided endpoint 1/alpha above."""
    return (0.5, 0.9 if alpha <= 1.0 else 1.0 / alpha)


ORACLE_POINTS = [(alpha, rho, beta, derivative) for alpha in ALPHAS for rho in _rhos(alpha)
                 for beta in BETAS for derivative in (False, True)]


def test_oracle_file_covers_the_grid():
    assert set(ORACLE_POINTS) <= set(store.load("oracle"))


# the pairing convergents of the near-resonant alphas, where the split is
# also called directly whether or not the series decides on it
PAIRINGS = {1.50000001: (3, 2), 0.5 + SQRT2 / 40.0: (53, 99)}


def _paired(alpha, rho, beta, derivative):
    tol = Tolerance()
    plan = series_module._plan(*alpha.as_integer_ratio(), *PAIRINGS[alpha], rho, derivative,
                               tol.abs_tol, tol.max_terms)
    return SeriesReport(*series_module._split(plan, beta))


@pytest.fixture(scope="module")
def outcomes():
    """Each grid point's (series report or None where it refuses, oracle
    value, oracle error), by form: the series' own decision, and the split
    at the pairing convergent; and the (skips, cut) of every cut taken."""
    cuts, results = [], {}
    cut = series_module._cut

    def recorded(*args):
        found = cut(*args)
        cuts.append((args[2], args[5], found))
        return found

    series_module._cut = recorded
    try:
        for point in ORACLE_POINTS:
            alpha, rho, beta, derivative = point
            series = gprime_series if derivative else g_series
            forms = {"series": lambda: series(validate(alpha, rho), beta)}
            if alpha in PAIRINGS:
                forms["paired"] = lambda: _paired(alpha, rho, beta, derivative)
            for form, evaluate in forms.items():
                try:
                    rep = evaluate()
                except IllConditionedSeriesError:
                    rep = None
                results[point, form] = (rep, *store.oracle(*point))
    finally:
        series_module._cut = cut
    return results, cuts


def test_every_value_lies_within_its_bound_of_the_oracle(outcomes):
    results, _ = outcomes
    for key, (rep, ref, err) in results.items():
        if rep is None:
            continue
        # the integral lies within its error estimate and half an ulp of the
        # float value of the oracle
        slack = err + 0.5 * math.ulp(ref)
        assert abs(rep.value - ref) <= rep.tail_bound + rep.noise_bound - slack, key


def test_the_grid_reaches_every_form_of_the_series(outcomes):
    # each cut by (alpha's exact ratio, its budget): the rational splits cut
    # at p/q and 3/8 of the tolerance, the paired at alpha's own ratio and
    # 3/8, the generic sums at alpha's own ratio and a quarter
    results, cuts = outcomes
    forms = {(ratio, budget) for ratio, budget, _ in cuts}
    split, generic = 3.75e-11, 2.5e-11
    assert {((1, 1), split), ((3, 10), split), ((19, 10), split), ((1, 2), split)} <= forms
    assert {(alpha.as_integer_ratio(), split) for alpha in PAIRINGS} <= forms
    assert {(alpha.as_integer_ratio(), generic) for alpha in ALPHAS[4:]} <= forms
    # every form returns everywhere; only g' at 3/10 and beta 1e-8, where
    # |g'| is about beta^(alpha - 1) = 4e5, returns a bound above the
    # tolerance, its rounding alone, which dispatch then refuses
    assert all(rep is not None for rep, _, _ in results.values())
    missed = {key for key, (rep, _, _) in results.items()
              if rep.tail_bound + rep.noise_bound > 1e-10}
    assert missed == {((0.3, rho, 1e-8, True), "series") for rho in (0.5, 0.9)}
    for (_, rho, beta, _), _ in missed:
        with pytest.raises(ConvergenceFailureError, match="above the tolerance"):
            gprime_any_beta(validate(0.3, rho), beta, MethodChoice.SERIES)


def test_no_split_stops_inside_a_pair(outcomes):
    # pair n has poles n p and alpha n q, and the cut leaves m <= M and
    # k <= K below it: at p/q the cut holds the same pairs of both families,
    # M // p == K // q, at the rational splits, and near 3/2 and 53/99 with
    # alpha's own ratio, paired or generic
    _, cuts = outcomes
    skips = {alpha.as_integer_ratio(): pq for alpha, pq in PAIRINGS.items()}
    skips.update((pq, pq) for pq in ((1, 1), (3, 10), (19, 10), (1, 2)))
    checked = 0
    for ratio, _, found in cuts:
        if found is not None and ratio in skips:
            (p, q), (stop1, stop2, _) = skips[ratio], found
            assert stop1 // p == stop2 // q, (ratio, found)
            checked += stop1 >= p
    assert checked > 100


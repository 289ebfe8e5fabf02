import importlib
import math
import sys

import pytest

from stablekappa import (
    ConvergenceFailureError,
    IllConditionedSeriesError,
    MethodChoice,
    OutOfRangeError,
    Tolerance,
    g_any_beta,
    g_quad,
    gprime_any_beta,
    gprime_quad,
    validate,
)

from conftest import admissible_rho_grid, g_integral_oracle, gprime_integral_oracle
import store

quadrature_module = importlib.import_module("stablekappa.quadrature")

TIGHT = Tolerance(abs_tol=1e-12)


def test_g_doney_example_closed_form():
    p = validate(0.8, 0.25)
    res = g_quad(p, 0.5, TIGHT)
    closed = math.log(1.0 - 0.5) - math.log(1.0 - 0.5 ** 0.8)
    assert closed == pytest.approx(0.1609887537517336, abs=1e-15)
    assert abs(res.value - closed) < 1e-10
    assert res.method is MethodChoice.QUADRATURE


def test_g_vanishes_continuously_at_zero():
    # g(beta) ~ C beta^alpha near 0 (substitute x = beta u in the integral)
    p = validate(0.7, 0.4)
    values = []
    for beta in (1e-2, 1e-4, 1e-6, 1e-8):
        v = g_quad(p, beta, TIGHT).value
        assert v > 0.0
        values.append(v)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5
    ratio = values[-2] / values[-1]
    assert abs(ratio / 100.0 ** 0.7 - 1.0) < 0.2


def test_g_spectrally_one_sided_log():
    p = validate(1.5, 2.0 / 3.0)
    res = g_quad(p, 0.5, TIGHT)
    assert abs(res.value - math.log(1.5)) < 1e-10


def test_gprime_doney_example_closed_form():
    p = validate(0.8, 0.25)
    res = gprime_quad(p, 0.5, TIGHT)
    b, a = 0.5, 0.8
    closed = -1.0 / (1.0 - b) + a * b ** (a - 1.0) / (1.0 - b ** a)
    assert closed == pytest.approx(0.15894962588596245, abs=1e-13)
    assert abs(res.value - closed) < 1e-10


def test_gprime_spectrally_one_sided():
    p = validate(1.5, 2.0 / 3.0)
    res = gprime_quad(p, 0.5, TIGHT)
    assert abs(res.value - 2.0 / 3.0) < 1e-10


def test_gprime_matches_central_difference():
    h = 1e-5
    for alpha, rho in ((0.8, 0.25), (1.3, 0.6), (math.sqrt(2.0), 0.5)):
        p = validate(alpha, rho)
        for beta in (0.3, 0.8, 1.7):
            d = (g_quad(p, beta + h, TIGHT).value
                 - g_quad(p, beta - h, TIGHT).value) / (2.0 * h)
            assert abs(d - gprime_quad(p, beta, TIGHT).value) < 1e-6


@pytest.mark.parametrize("alpha,rho", [
    (0.4, 0.3), (0.8, 0.25), (1.0, 0.5), (1.5, 1.0 - 1.0 / 1.5),
    (1.5, 2.0 / 3.0), (1.9, 0.51), (2.0, 0.5), (0.3, 0.95), (1.2, 0.2),
])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 3.0])
def test_positivity(alpha, rho, beta):
    p = validate(alpha, rho)
    assert g_quad(p, beta).value > 0.0
    assert gprime_quad(p, beta).value > 0.0


def test_matches_scipy_oracle():
    for alpha, rho, beta in ((0.6, 0.4, 0.35), (1.7, 0.55, 0.8),
                             (math.sqrt(2.0), 0.5, 2.5), (0.9, 0.8, 1.0)):
        p = validate(alpha, rho)
        assert abs(g_quad(p, beta, TIGHT).value
                   - g_integral_oracle(alpha, rho, beta)) < 1e-10
        assert abs(gprime_quad(p, beta, TIGHT).value
                   - gprime_integral_oracle(alpha, rho, beta)) < 1e-10


def test_reflection_identity_direct_integrals():
    for alpha in (math.sqrt(2.0), 0.8):
        for rho in admissible_rho_grid(alpha, 3):
            p = validate(alpha, rho)
            for beta in (1.5, 2.0, 5.0):
                big = g_quad(p, beta, TIGHT)
                small = g_quad(p, 1.0 / beta, TIGHT)
                resid = abs(big.value - small.value
                            - alpha * rho * math.log(beta))
                assert resid <= 1e-10 + big.abs_error_bound + small.abs_error_bound


def test_tolerance_monotonicity():
    p = validate(1.3, 0.45)
    for beta in (0.2, 0.7, 1.0, 2.0):
        loose = g_quad(p, beta, Tolerance(abs_tol=1e-6))
        tight = g_quad(p, beta, Tolerance(abs_tol=1e-11))
        assert tight.abs_error_bound <= loose.abs_error_bound


DECADES_BELOW_ONE = [(0.5, 1e-8, 1e-6), (0.3, 1e-8, 1e-6), (math.sqrt(2.0), 1e-6, 1e-10)]


@pytest.mark.parametrize("alpha,beta,abs_tol", DECADES_BELOW_ONE)
def test_bound_holds_decades_below_one(alpha, beta, abs_tol):
    # adaptive quadrature split only at beta and 1 once erred by 4e-5
    # against an estimate of 9e-8 here, at alpha 0.5
    res = g_quad(validate(alpha, 0.3), beta, Tolerance(abs_tol=abs_tol))
    want, _ = store.oracle(alpha, 0.3, beta, False)
    assert abs(res.value - want) <= res.abs_error_bound


def test_near_singular_rho_band():
    # rho close to 1 puts a sharp peak at x = beta in the defining integral
    p = validate(1.05, 0.93)
    res = g_quad(p, 0.6, TIGHT)
    assert abs(res.value - g_integral_oracle(1.05, 0.93, 0.6)) < 1e-9


def test_convergence_failure_raises():
    # the steps are counted before any node is evaluated: the call that
    # needs more than the budget refuses, and the one that fits returns them
    p = validate(0.8, 0.25)
    nodes = g_quad(p, 0.5, TIGHT).terms_or_nodes_used
    with pytest.raises(ConvergenceFailureError, match="needs more than 50 steps"):
        g_quad(p, 0.5, Tolerance(abs_tol=1e-12, max_terms=50))
    with pytest.raises(ConvergenceFailureError, match=f"needs more than {nodes - 2} steps"):
        g_quad(p, 0.5, Tolerance(abs_tol=1e-12, max_terms=nodes - 2))
    res = g_quad(p, 0.5, Tolerance(abs_tol=1e-12, max_terms=nodes - 1))
    assert res == g_quad(p, 0.5, TIGHT)


def test_beta_must_be_positive():
    p = validate(0.8, 0.25)
    with pytest.raises(OutOfRangeError):
        g_quad(p, 0.0)
    with pytest.raises(OutOfRangeError):
        gprime_quad(p, -1.0)


# The line and the series share F(s), so they cannot check each other's F:
# the defining integral at 30 digits is the independent check.  Each
# (alpha, rho) takes two of the betas, alternately the small one with the
# band below 1 and the middle one with the band above; above alpha 1, rho
# takes the one-sided endpoints 1 - 1/alpha and 1/alpha.
ORACLE_ALPHAS = (0.01, 0.1, 0.3, 0.5, 0.500000000001, 0.5 + math.sqrt(2.0) / 40.0, 0.8, 1.0,
                 1.0000001, math.sqrt(2.0), 1.5, 1.50000001, 2.0)
ORACLE_BETAS = (1e-6, 0.3, 0.97, 1.03)


def _oracle_points():
    pairs = [(alpha, rho) for alpha in ORACLE_ALPHAS
             for rho in (sorted({1.0 - 1.0 / alpha, 1.0 / alpha}) if alpha > 1.0 else
                         (0.3 if alpha <= 0.5 else 0.5,))]
    return [(alpha, rho, beta) for i, (alpha, rho) in enumerate(pairs)
            for beta in ORACLE_BETAS[i % 2::2]]


@pytest.mark.parametrize("alpha, rho, beta", _oracle_points())
def test_line_within_its_bound_of_the_integral(alpha, rho, beta):
    params = validate(alpha, rho)
    for derivative, quad in enumerate((g_quad, gprime_quad)):
        ref, err = store.oracle(alpha, rho, beta, derivative)
        for abs_tol in (1e-6, 1e-10, 1e-13):
            res = quad(params, beta, Tolerance(abs_tol=abs_tol))
            assert abs(res.value - ref) <= res.abs_error_bound + err, (quad.__name__, abs_tol)


# The table of (EDGE, 1/EDGE) fixes h and n for the worst beta of that
# range and is shared by every beta there; the line of one beta alone is
# the same rule at its own h and n.  Each alpha kind (rational,
# near-resonant, generic, small) takes two betas of the table's range,
# alternately one below 1 and one above.
TABLE_ALPHAS = ((0.5, 0.3), (0.8, 0.25), (1.0, 0.5), (1.9, 0.5), (2.0, 0.5),
                (0.500000000001, 0.3), (0.5 + math.sqrt(2.0) / 40.0, 0.5), (1.0000001, 0.5),
                (1.50000001, 1.0 - 1.0 / 1.50000001), (math.sqrt(2.0), 0.5),
                (math.pi / 2.0, 0.45), (math.e / 2.0, 1.0 / (math.e / 2.0)), (0.01, 0.3),
                (0.1, 0.7), (0.3, 0.5))
TABLE_BETAS = (0.55, 1.9, 0.8, 1.3, 0.99, 1.01)


def _table_points():
    return [(alpha, rho, TABLE_BETAS[(2 * i + k) % len(TABLE_BETAS)])
            for i, (alpha, rho) in enumerate(TABLE_ALPHAS) for k in (0, 1)]


@pytest.mark.parametrize("alpha, rho, beta", _table_points())
def test_table_within_its_bound_of_the_integral(alpha, rho, beta):
    params = validate(alpha, rho)
    log_beta = math.log(beta)
    for derivative, quad in enumerate((g_quad, gprime_quad)):
        ref, err = store.oracle(alpha, rho, beta, derivative)
        # at 1e-15 the rounding term is most of the bound
        for abs_tol in (1e-6, 1e-10, 1e-13, 1e-15):
            res = quad(params, beta, Tolerance(abs_tol=abs_tol))
            assert abs(res.value - ref) <= res.abs_error_bound + err, (quad.__name__, abs_tol)
            # the line of this beta alone: the same rule at its own h and n
            own = quadrature_module._Table(alpha, rho, bool(derivative), abs_tol, 10000,
                                           log_beta, log_beta)(beta)
            assert abs(res.value - own.value) <= res.abs_error_bound + own.abs_error_bound, (
                quad.__name__, abs_tol)


ORACLE_POINTS = ([(alpha, 0.3, beta, False) for alpha, beta, _ in DECADES_BELOW_ONE]
                 + [(*point, derivative) for point in _oracle_points() + _table_points()
                    for derivative in (False, True)])


def test_one_table_per_key_over_the_edge_range(monkeypatch):
    # dispatch reaches the table through g_quad and gprime_quad: a sweep of
    # beta across (EDGE, 1/EDGE) builds one table per (alpha, rho, g or g',
    # abs_tol, max_terms), keyed on those plain values, whatever the beta
    built = []

    class Counted(quadrature_module._Table):
        __slots__ = ()

        def __init__(self, *key):
            built.append(key)
            super().__init__(*key)

    monkeypatch.setattr(quadrature_module, "_Table", Counted)
    quadrature_module._zone.cache_clear()
    params, tol = validate(math.sqrt(2.0), 0.5), Tolerance(abs_tol=1e-9)
    betas = [0.51 + 0.07 * i for i in range(21)]
    assert betas[-1] < 1.0 / quadrature_module.EDGE
    for any_beta in (g_any_beta, gprime_any_beta):
        for beta in betas:
            assert any_beta(params, beta, tol=tol).method is MethodChoice.QUADRATURE
    edge = math.log(quadrature_module.EDGE)
    assert built == [(params.alpha, params.rho, derivative, 1e-9, 10000, edge, -edge)
                     for derivative in (False, True)]
    # and outside the range each call makes its own, not cached
    g_quad(params, 0.3, tol)
    assert len(built) == 3 and quadrature_module._zone.cache_info().currsize == 2


def _crossover():
    """Print the warm microseconds per call of the series and of the line's
    table at the sweep's and the grid's alphas, for g and g', at betas from
    0.1 to 0.95: the edge above which dispatch runs the line first is
    chosen where the table costs less than the series."""
    import timeit

    from stablekappa.series import g_series, gprime_series

    alphas = ((math.sqrt(2.0), 0.5), (math.pi / 2.0, 0.45), (0.5 + math.sqrt(2.0) / 40.0, 0.5),
              (1.0000001, 0.5), (1.50000001, 0.5), (0.8, 0.25), (1.5, 2.0 / 3.0), (2.0, 0.5),
              (1.0, 0.5), (0.3, 0.5), (1.9, 0.5))
    betas = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)
    tol = Tolerance()

    def micros(call):
        call()
        return min(timeit.repeat(call, number=100, repeat=3)) / 100 * 1e6

    print("series/table us per call; the table of each beta covers [beta, 1/beta]")
    print(f"{'':>22}" + "".join(f"{beta:>10}" for beta in betas))
    for derivative, series in enumerate((g_series, gprime_series)):
        for alpha, rho in alphas:
            params, cells = validate(alpha, rho), []
            for beta in betas:
                edge = math.log(beta)
                table = quadrature_module._Table(alpha, rho, bool(derivative), tol.abs_tol,
                                                 tol.max_terms, edge, -edge)
                try:
                    cost = f"{micros(lambda: series(params, beta, tol)):.0f}"
                except (ConvergenceFailureError, IllConditionedSeriesError):
                    cost = "-"
                cells.append(f"{cost}/{micros(lambda: table(beta)):.0f}")
            name = f"{'gprime' if derivative else 'g'} {alpha:.9g} {rho:.4g}"
            print(f"{name:>22}" + "".join(f"{cell:>10}" for cell in cells))


if __name__ == "__main__":
    if "--crossover" in sys.argv:
        _crossover()
    sys.exit(0)

import math
import sys
from collections import Counter

import pytest

from stablekappa import (
    ConvergenceFailureError,
    EvalResult,
    KappaQuery,
    MethodChoice,
    MethodNotApplicableError,
    OutOfRangeError,
    Tolerance,
    exit_transform,
    g_any_beta,
    g_quad,
    g_series,
    gprime_any_beta,
    gprime_quad,
    gprime_series,
    kappa,
    validate,
)
from stablekappa import series as series_module
from stablekappa.kappa import plan

import store
from conftest import clear_caches

# the package re-exports the function kappa under the submodule's name, so
# the module is patched through sys.modules, never by its dotted path
kappa_module = sys.modules["stablekappa.kappa"]

SQRT2 = math.sqrt(2.0)
TOL = Tolerance(abs_tol=1e-11)


def test_reflection_example():
    p = validate(0.8, 0.25)
    res = g_any_beta(p, 2.0, tol=TOL)
    want = (-math.log(1.0 - 0.5 ** 0.8) + math.log(0.5)
            + 0.2 * math.log(2.0))
    assert abs(res.value - want) < 1e-10


def test_beta_one_uses_quadrature():
    p = validate(0.8, 0.25)
    res = g_any_beta(p, 1.0, MethodChoice.AUTO, TOL)
    assert res.method is MethodChoice.QUADRATURE
    assert res.value > 0.0


def test_auto_dispatch_series_for_sqrt2():
    p = validate(SQRT2, 0.5)
    res = g_any_beta(p, 0.3, MethodChoice.AUTO, TOL)
    assert res.method is MethodChoice.SERIES
    ref = g_quad(p, 0.3, Tolerance(abs_tol=1e-12))
    assert abs(res.value - ref.value) < 1e-9


def test_auto_dispatch_doney_for_case():
    p = validate(0.8, 0.25)
    res = g_any_beta(p, 0.5, MethodChoice.AUTO, TOL)
    assert res.method is MethodChoice.DONEY


def test_auto_dispatch_rational_for_rational_without_case():
    p = validate(0.75, 0.37)
    res = g_any_beta(p, 0.5, MethodChoice.AUTO, TOL)
    assert res.method is MethodChoice.SERIES
    ref = g_quad(p, 0.5, Tolerance(abs_tol=1e-12))
    assert abs(res.value - ref.value) <= res.abs_error_bound + ref.abs_error_bound
    # the band still puts quadrature first, and beta >= 1.05 is reflected
    assert g_any_beta(p, 0.97, MethodChoice.AUTO, TOL).method is MethodChoice.QUADRATURE
    assert g_any_beta(p, 2.0, MethodChoice.AUTO, TOL).method is MethodChoice.SERIES


# points where adaptive quadrature of g raised ConvergenceFailureError, and
# one reflected from beta = 1e-6; then, at the default tolerance, 1e-7
# above 1 at rho = 1 - 1/alpha, where the series now sums generic and
# split its terms near 1/1 before, the last point reflected
FORMER_FAULTS = [
    (0.3, 0.99, 1e-8), (0.3, 0.99, 1e-6), (0.3, 0.999, 1e-4), (0.5, 0.999, 1e-6),
    (0.3, 0.99, 1e6), (1.0000001, 1.0 - 1.0 / 1.0000001, 1.2e-6),
    (1.0000001, 1.0 - 1.0 / 1.0000001, 0.012), (1.0000001, 1.0 - 1.0 / 1.0000001, 120.0),
]


@pytest.mark.parametrize("alpha, rho, beta", FORMER_FAULTS)
def test_auto_dispatch_g_at_former_quadrature_faults(alpha, rho, beta):
    tol = Tolerance() if alpha == 1.0000001 else TOL
    res = g_any_beta(validate(alpha, rho), beta, MethodChoice.AUTO, tol)
    assert res.method is MethodChoice.SERIES
    assert res.abs_error_bound <= tol.abs_tol
    ref, err = store.oracle(alpha, rho, beta, False)
    assert abs(res.value - ref) <= res.abs_error_bound + err


# Doney cases (k, l) = (1, 1), (2, 4) and (1, 3), and betas below the band
# and reflected
DONEY_PARAMS = ((0.8, 0.25), (1.5, 2.0 / 3.0), (2.0, 0.5))
DONEY_BETAS = (1e-6, 1e-3, 0.01, 0.3, 0.9, 0.95, 2.5, 1e3)


@pytest.mark.parametrize("alpha, rho", DONEY_PARAMS)
def test_doney_gprime_within_its_bound_of_the_oracle(alpha, rho):
    # the closed form covers g' too: forced, it returns, and auto dispatch
    # runs it first outside the band
    params = validate(alpha, rho)
    for beta in DONEY_BETAS:
        res = gprime_any_beta(params, beta, MethodChoice.DONEY)
        assert res.method is MethodChoice.DONEY
        assert gprime_any_beta(params, beta) == res
        ref, err = store.oracle(alpha, rho, beta, True)
        assert abs(res.value - ref) <= res.abs_error_bound + err, beta


def test_forced_method_threads_through_reflection():
    p = validate(SQRT2, 0.5)
    res = g_any_beta(p, 4.0, MethodChoice.SERIES, TOL)
    assert res.method is MethodChoice.SERIES
    direct = g_quad(p, 4.0, Tolerance(abs_tol=1e-12))
    assert abs(res.value - direct.value) < 1e-9


def test_rational_method_forced_for_g():
    # the forced series at rational alpha is its split at p/q
    p = validate(0.5, 0.3)
    res = g_any_beta(p, 0.4, MethodChoice.SERIES, TOL)
    rep = g_series(p, 0.4, TOL)
    assert res == EvalResult(rep.value, rep.tail_bound + rep.noise_bound,
                             MethodChoice.SERIES,
                             rep.terms_first_series + rep.terms_second_series)
    # at rational alpha with no Doney case the plan skips only Doney
    with pytest.raises(MethodNotApplicableError, match="no \\(k, l\\)"):
        g_any_beta(p, 0.4, MethodChoice.DONEY, TOL)


def test_gprime_any_beta_dispatch():
    res = gprime_any_beta(validate(0.5, 0.3), 0.4, MethodChoice.AUTO, TOL)
    assert res.method is MethodChoice.SERIES
    res = gprime_any_beta(validate(SQRT2, 0.5), 0.4, MethodChoice.AUTO, TOL)
    assert res.method is MethodChoice.SERIES
    with pytest.raises(MethodNotApplicableError):
        gprime_any_beta(validate(SQRT2, 0.5), 0.4, MethodChoice.DONEY, TOL)


def test_gprime_reflection():
    p = validate(SQRT2, 0.5)
    res = gprime_any_beta(p, 2.5, MethodChoice.AUTO, TOL)
    direct = gprime_quad(p, 2.5, Tolerance(abs_tol=1e-12))
    assert abs(res.value - direct.value) < 1e-9


def test_g_any_beta_rejects_nonpositive():
    p = validate(0.8, 0.25)
    with pytest.raises(OutOfRangeError):
        g_any_beta(p, 0.0)
    with pytest.raises(OutOfRangeError):
        gprime_any_beta(p, -0.5)


def test_kappa_at_zero_is_exact_power():
    p = validate(0.8, 0.25)
    assert kappa(p, KappaQuery(1.0, 0.0)).value == 1.0
    for gamma in (0.5, 2.0, 7.5):
        assert kappa(p, KappaQuery(gamma, 0.0)).value == gamma ** 0.25


def test_kappa_doney_example():
    p = validate(0.8, 0.25)
    res = kappa(p, KappaQuery(1.0, 0.5), tol=TOL)
    want = (1.0 - 0.5) / (1.0 - 0.5 ** 0.8)
    assert want == pytest.approx(1.1746717580893633, abs=1e-15)
    assert abs(res.value - want) < 1e-10


def test_kappa_scaling_bit_for_bit():
    p = validate(0.8, 0.25)
    for gamma, beta in ((2.0, 0.5), (0.7, 1.3), (5.0, 0.1)):
        lhs = kappa(p, KappaQuery(gamma, beta), tol=TOL)
        arg = beta * gamma ** (-1.0 / p.alpha)
        rhs = gamma ** p.rho * kappa(p, KappaQuery(1.0, arg), tol=TOL).value
        assert lhs.value == rhs


def test_kappa_scaling_cross_method():
    p = validate(SQRT2, 0.5)
    gamma, beta = 2.0, 0.4
    lhs = kappa(p, KappaQuery(gamma, beta), MethodChoice.SERIES, TOL)
    arg = beta * gamma ** (-1.0 / p.alpha)
    rhs = gamma ** p.rho * kappa(p, KappaQuery(1.0, arg),
                                 MethodChoice.QUADRATURE, TOL).value
    assert abs(lhs.value - rhs) < 1e-8


def test_kappa_monotone_in_beta():
    p = validate(SQRT2, 0.5)
    values = [kappa(p, KappaQuery(1.0, 0.05 + 0.05 * i), tol=TOL).value
              for i in range(50)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_exit_transform_symmetric_exactly():
    p = validate(1.0, 0.5)
    for gamma, theta in ((1.0, 1.0), (0.3, 2.0), (0.0, 1.5), (4.0, 0.25)):
        a = exit_transform(p, 1.0, gamma, theta, tol=TOL)
        b = exit_transform(p, 1.0, theta, gamma, tol=TOL)
        assert a.value == b.value


def test_exit_transform_cauchy_value():
    p = validate(1.0, 0.5)
    res = exit_transform(p, 1.0, 1.0, 1.0, tol=TOL)
    k11 = kappa(p, KappaQuery(1.0, 1.0), MethodChoice.QUADRATURE, TOL)
    want = 1.0 / (2.0 * k11.value * k11.value)
    assert abs(res.value - want) < res.abs_error_bound + 2.0 * k11.abs_error_bound


def test_exit_transform_gamma_zero():
    p = validate(0.8, 0.25)
    eta, theta = 2.0, 0.7
    res = exit_transform(p, eta, 0.0, theta, tol=TOL)
    want = 1.0 / (theta * eta ** p.rho
                  * kappa(p, KappaQuery(eta, theta), tol=TOL).value)
    assert abs(res.value - want) < 1e-10


def test_exit_transform_zero_sum_rejected():
    p = validate(0.8, 0.25)
    with pytest.raises(ZeroDivisionError):
        exit_transform(p, 1.0, 0.0, 0.0)


def test_kappa_query_validation():
    with pytest.raises(OutOfRangeError):
        KappaQuery(0.0, 0.5)
    with pytest.raises(OutOfRangeError):
        KappaQuery(1.0, -0.1)


@pytest.mark.parametrize("arg", ["eta", "gamma", "theta"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_exit_transform_rejects_nonfinite_by_name(arg, bad):
    values = {"eta": 1.0, "gamma": 1.0, "theta": 1.0, arg: bad}
    with pytest.raises(OutOfRangeError, match=f"^{arg} must be finite"):
        exit_transform(validate(0.8, 0.25), values["eta"], values["gamma"],
                       values["theta"])


def _methods(params, beta, derivative):
    return [(step.method.value, step.run is not None)
            for step in plan(params, beta, derivative, MethodChoice.AUTO, TOL)]


def test_plan_order_and_skips():
    assert _methods(validate(SQRT2, 0.5), 0.3, False) == [
        ("doney", False), ("series", True), ("quadrature", True)]
    # g and g' have the same steps: at rational alpha, and at the Doney
    # case 4/5, where the closed form runs for both
    for derivative in (False, True):
        assert _methods(validate(0.5, 0.3), 0.3, derivative) == [
            ("doney", False), ("series", True), ("quadrature", True)]
        assert _methods(validate(0.8, 0.25), 0.3, derivative) == [
            ("doney", True), ("series", True), ("quadrature", True)]
    # the band runs quadrature alone, at rational alpha too, below 1 and
    # above; reflection keeps the inner order
    for params, beta in ((validate(SQRT2, 0.5), 0.97), (validate(0.8, 0.25), 0.97),
                         (validate(0.5, 0.3), 0.99), (validate(0.8, 0.25), 1.03)):
        assert _methods(params, beta, False) == [
            ("quadrature", True), ("doney", False), ("series", False)]
    assert _methods(validate(0.5, 0.3), 2.5, True) == _methods(validate(0.5, 0.3), 0.4, True)


def test_plan_reflected_candidate_matches_dispatch():
    p = validate(0.5, 0.3)
    for step in plan(p, 2.5, True, MethodChoice.AUTO, TOL):
        if step.run is not None:
            assert step.run() == gprime_any_beta(p, 2.5, MethodChoice.AUTO, TOL)
            break


def test_dispatch_reads_its_lookups_at_most_once_per_key(monkeypatch):
    # the steps are cached per (params, g or g', method, tolerance, region):
    # the first call at a key reads find_doney_case at most once, and a
    # later call in the same region does not read it
    calls = Counter()

    def counted(name):
        fn = getattr(kappa_module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(kappa_module, "find_doney_case", counted("find_doney_case"))
    kappa_module._steps.cache_clear()
    cases = ((g_any_beta, validate(0.8, 0.25), 0.5, 0.4),      # Doney
             (g_any_beta, validate(SQRT2, 0.5), 0.97, 0.99),   # band
             (gprime_any_beta, validate(0.5, 0.3), 1.03, 1.01),  # band, above 1
             (g_any_beta, validate(0.5, 0.3), 1.051, 1.052),   # band, reflected
             (gprime_any_beta, validate(SQRT2, 0.5), 2.5, 3.0))  # reflected
    for fn, params, beta, again in cases:
        before = calls.copy()
        fn(params, beta, tol=TOL)
        assert all(calls[name] - before[name] <= 1 for name in calls), (params, beta)
        filled = calls.copy()
        fn(params, again, tol=TOL)
        assert calls == filled, (params, again)


def test_doney_call_builds_no_series_plan():
    # the one-shot kappa at a Doney point fills its plan, but builds no
    # split plan, no sine table and no cut table
    caches = (series_module._plan, series_module._family, series_module._cuts)
    clear_caches()
    assert kappa(validate(0.8, 0.25), KappaQuery(1.0, 0.5)).method is MethodChoice.DONEY
    assert [cache.cache_info().currsize for cache in caches] == [0, 0, 0]


def test_steps_cache_stays_at_its_bound():
    bound = kappa_module._steps.cache_info().maxsize
    for i in range(300):
        list(plan(validate(1.0 + SQRT2 / (100.0 + i), 0.5), 0.3))
    assert kappa_module._steps.cache_info().currsize == bound


def test_failed_candidate_passes_to_the_next(monkeypatch):
    def diverges(*args, **kwargs):
        raise kappa_module.ConvergenceFailureError("budget exhausted")

    p = validate(0.5, 0.3)
    monkeypatch.setattr(kappa_module, "gprime_series", diverges)
    res = gprime_any_beta(p, 0.4, MethodChoice.AUTO, TOL)
    assert res == gprime_quad(p, 0.4, TOL)
    monkeypatch.setattr(kappa_module, "gprime_quad", diverges)
    with pytest.raises(kappa_module.ConvergenceFailureError, match="budget"):
        gprime_any_beta(p, 0.4, MethodChoice.AUTO, TOL)


def test_last_failure_carries_every_earlier_one():
    # 1e-12 from 1/2 at beta 1.2e-12, g' by the paired series has a bound
    # above the tolerance, which dispatch refuses, and so has quadrature;
    # the quadrature refusal is raised, with the series refusal chained on
    # as its cause, each naming the method, its bound and the tolerance and
    # carrying the value and the bound it refused
    params = validate(0.500000000001, 0.5)
    with pytest.raises(ConvergenceFailureError,
                       match="^quadrature: error bound .* above the tolerance") as err:
        gprime_any_beta(params, 1.2e-12)
    quad = gprime_quad(params, 1.2e-12)
    assert (err.value.value, err.value.error_bound) == (quad.value, quad.abs_error_bound)
    cause = err.value.__cause__
    assert isinstance(cause, ConvergenceFailureError) and cause.__cause__ is None
    rep = gprime_series(params, 1.2e-12)
    bound = rep.tail_bound + rep.noise_bound
    assert (cause.value, cause.error_bound) == (rep.value, bound)
    assert str(cause) == f"series: error bound {bound:.3e} above the tolerance 1.000e-10"


def test_forced_quadrature_near_one_half_fails_on_its_pins():
    # the line has no small divisors, so 1e-12 from 1/2 it fails only where
    # its rounding, relative to the size of its nodes, misses the tolerance:
    # g' at beta <= 1.2e-8 (1.2e-10 at rho 0.01), where the nodes grow like
    # beta^(c - 1) = beta^-0.75 and the value like beta^-0.5; it returns on
    # the other 139 of the 156 calls that adaptive quadrature failed 45 of
    rhos = (0.01, 0.1, 0.3, 0.5, 0.9, 0.99)
    betas = [1.2 * 10.0 ** e for e in range(-12, 13, 2)]
    failed = set()
    for rho in rhos:
        params = validate(0.500000000001, rho)
        for beta in betas:
            for fn in (g_any_beta, gprime_any_beta):
                try:
                    assert fn(params, beta, MethodChoice.QUADRATURE).method is (
                        MethodChoice.QUADRATURE)
                except ConvergenceFailureError:
                    failed.add((rho, beta, fn is gprime_any_beta))
    assert failed == ({(rho, beta, True) for rho in rhos for beta in (1.2e-12, 1.2e-10)}
                      | {(rho, 1.2e-8, True) for rho in rhos[1:]})


ENDPOINT_BAND = (0.97, 0.999, 1.0, 1.03)


@pytest.mark.parametrize("beta", ENDPOINT_BAND)
def test_band_at_the_one_sided_endpoint_returns_by_quadrature(beta):
    # 1e-7 above 1 at rho = 1/alpha adaptive quadrature raised in the band,
    # where the plan has no other step, even at tol 1e-6
    alpha = 1.0000001
    params, tol = validate(alpha, 1.0 / alpha), Tolerance(abs_tol=1e-6)
    for fn in (g_any_beta, gprime_any_beta):
        res = fn(params, beta, tol=tol)
        assert res.method is MethodChoice.QUADRATURE
        ref, err = store.oracle(alpha, 1.0 / alpha, beta, fn is gprime_any_beta)
        assert abs(res.value - ref) <= res.abs_error_bound + err, fn.__name__


def test_auto_dispatch_converges_near_one_half():
    # 1e-12 from 1/2 the series pairs the near-resonant terms and runs on
    # all but 17 of these 156 calls: at beta 1.2, planned at 1/1.2 above
    # the line's edge, the line runs first, and g' at beta 1.2e-12, where
    # |g'| is up to 6e5 and the series' bound, 1.3e-10 to 8.1e-10, misses
    # the tolerance, so dispatch refuses it and quadrature fails too
    # (``test_forced_quadrature_near_one_half_fails_on_its_pins``)
    params = [validate(0.500000000001, rho) for rho in (0.01, 0.1, 0.3, 0.5, 0.9, 0.99)]
    betas = [1.2 * 10.0 ** e for e in range(-12, 13, 2)]
    methods, failed = set(), set()
    for p in params:
        for beta in betas:
            for fn in (g_any_beta, gprime_any_beta):
                try:
                    methods.add((beta == 1.2, fn(p, beta).method))
                except ConvergenceFailureError:
                    failed.add((p.rho, beta, fn is gprime_any_beta))
    assert methods == {(False, MethodChoice.SERIES), (True, MethodChoice.QUADRATURE)}
    assert failed == {(rho, 1.2e-12, True) for rho in (0.1, 0.3, 0.5, 0.9, 0.99)}
    for rho, beta, _ in failed:
        rep = gprime_series(validate(0.500000000001, rho), beta)
        assert 1e-10 < rep.tail_bound + rep.noise_bound < 1e-9
    # a few of them against the 30-digit integral, at the smallest betas
    for beta in NEAR_HALF_BETAS:
        res = g_any_beta(params[2], beta)
        ref, err = store.oracle(0.500000000001, 0.3, beta, False)
        assert abs(res.value - ref) <= res.abs_error_bound + err, beta


NEAR_HALF_BETAS = (1.2e-12, 1.2e-8, 1.2e-4)


ORACLE_POINTS = ([(alpha, rho, beta, False) for alpha, rho, beta in FORMER_FAULTS]
                 + [(alpha, rho, beta, True) for alpha, rho in DONEY_PARAMS
                    for beta in DONEY_BETAS]
                 + [(1.0000001, 1.0 / 1.0000001, beta, derivative) for beta in ENDPOINT_BAND
                    for derivative in (False, True)]
                 + [(0.500000000001, 0.3, beta, False) for beta in NEAR_HALF_BETAS])

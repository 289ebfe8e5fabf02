"""Shared independent oracles for the test suite, the guard that keeps the
30-digit integral out of it, and one way to clear every cache.

These deliberately avoid the package's own quadrature and reduction code:
scipy's QUADPACK and mpmath are the second opinion that keeps every
cross-check two-sided.
"""

import importlib
import math

import pytest
from scipy.integrate import quad

import oracles
from stablekappa import diophantine, quadrature, series, special

# the package re-exports the function kappa under the submodule's name
kappa_module = importlib.import_module("stablekappa.kappa")


def clear_caches():
    """Empty every cache of the package: dispatch's plans, the line's
    tables, the series' plans, families and cuts, alpha's profiles and the
    Doney cases and cosines."""
    for cache in (kappa_module._steps, quadrature._zone, series._plan, series._family,
                  series._cuts, diophantine._profile, special.find_doney_case, special._cosines):
        cache.cache_clear()


@pytest.fixture(autouse=True)
def _no_live_oracle(request, monkeypatch):
    """Fail a test that integrates the 30-digit oracle: tests read it from
    the store (``store.oracle``), all but the oracle's own test."""
    if request.node.originalname == "test_the_integral_oracle_refuses_beta_below_1e_20":
        return

    def live(*args):
        pytest.fail(f"a live 30-digit integral at {args!r}: add the point to its module's "
                    "ORACLE_POINTS, run python tests/regen.py oracle and read store.oracle")

    monkeypatch.setattr(oracles, "_mpmath_integral", live)


def g_integral_oracle(alpha: float, rho: float, beta: float) -> float:
    """g(beta) by scipy quadrature of the defining integral."""
    c = math.sin(math.pi * rho) / math.pi
    cosr = math.cos(math.pi * rho)
    sinr = math.sin(math.pi * rho)

    def f(x):
        return beta * math.log1p(x ** alpha) / ((x + beta * cosr) ** 2
                                                + (beta * sinr) ** 2)

    v1, _ = quad(f, 0, min(beta, 1.0), epsabs=1e-13, epsrel=1e-13, limit=400)
    v2, _ = quad(f, min(beta, 1.0), max(beta, 1.0), epsabs=1e-13, epsrel=1e-13,
                 limit=400)

    def ftail(t):
        y = t ** 4
        return f(1.0 / y) / y ** 2 * 4.0 * t ** 3

    v3, _ = quad(ftail, 0, max(beta, 1.0) ** -0.25, epsabs=1e-13, epsrel=1e-13,
                 limit=400)
    return c * (v1 + v2 + v3)


def gprime_integral_oracle(alpha: float, rho: float, beta: float) -> float:
    """g'(beta) by scipy quadrature of the defining integral."""
    c = alpha * math.sin(math.pi * rho) / math.pi
    cosr = math.cos(math.pi * rho)
    sinr = math.sin(math.pi * rho)

    def f(x):
        xa = x ** alpha
        return xa / (1.0 + xa) / ((x + beta * cosr) ** 2 + (beta * sinr) ** 2)

    v1, _ = quad(f, 0, min(beta, 1.0), epsabs=1e-13, epsrel=1e-13, limit=400)
    v2, _ = quad(f, min(beta, 1.0), max(beta, 1.0), epsabs=1e-13, epsrel=1e-13,
                 limit=400)
    v3, _ = quad(lambda y: f(1.0 / y) / y ** 2, 0, 1.0 / max(beta, 1.0),
                 epsabs=1e-13, epsrel=1e-13, limit=400)
    return c * (v1 + v2 + v3)


def admissible_rho_grid(alpha: float, n: int = 5) -> list[float]:
    """n admissible rho values, hitting closed endpoints exactly when legal."""
    inv = 1.0 / alpha
    lo = 1.0 - inv if 1.0 - inv > 0.0 else None
    hi = inv if inv < 1.0 else None
    left = lo if lo is not None else 0.15
    right = hi if hi is not None else 0.85
    grid = [left + (right - left) * i / (n - 1) for i in range(n)]
    grid[0] = left
    grid[-1] = right
    return grid


@pytest.fixture(scope="session")
def rho_grids():
    return admissible_rho_grid

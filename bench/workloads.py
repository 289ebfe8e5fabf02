"""Workload definitions: the requests of each round, made from the seed.

A run is a sequence of rounds.  Round r of workload w under seed s is
fully determined by (w, s, r), and every round of a workload holds the same
operations in the same order; only the seeded positions inside each stratum
change.  So every round costs about the same, no two rounds repeat an input
(the per-(alpha, tol, beta) LRU cache in ``classify`` is never warm for a
timed point), and the share of failed points is identical in every run.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    ``kind`` is "cli" (``call`` is the argv of ``stablekappa.cli.main``) or
    "lib" (``call`` is a tuple of library calls, each (function name,
    alpha, rho, args...), made one after another).  ``fault`` names the
    known program fault a fixed grid point exercises; such a point is
    expected to fail today and is counted as failed.
    """

    kind: str
    call: tuple
    points: int
    fault: str | None = None


@dataclass(frozen=True)
class Workload:
    tail_pct: float      # percentile of a block reported as lat_tail_ref
    block_rounds: int    # rounds per block, at least ten requests
    trace_rounds: int    # rounds inside the traced window


CYCLE = 16


@functools.lru_cache(maxsize=None)
def _cells(workload: str, k: int) -> list[int]:
    """The permutation of cells for the k-th draw of each round.  It does
    not depend on the seed, so every seed puts the costly cells of
    different draws into the same rounds together."""
    return random.Random(f"{workload}/cells/{k}").sample(range(CYCLE), CYCLE)


class _Draws:
    """The uniform draws of round r, stratified across rounds.

    The k-th draw of every round has its own fixed permutation of CYCLE
    equal cells of [0, 1) and lies in cell perm_k[r mod CYCLE], at a
    position drawn from the seed afresh each round.  So every CYCLE rounds
    each draw covers [0, 1) evenly, the costliest inputs take the same
    share of every run and fall into the same rounds whatever the seed, and
    no input repeats.
    """

    def __init__(self, workload: str, seed: int, rnd: int) -> None:
        self._workload = workload
        self._k = 0
        self._inside = random.Random(f"{workload}/{seed}/{rnd}")
        self._cell = rnd % CYCLE

    def random(self) -> float:
        cell = _cells(self._workload, self._k)[self._cell]
        self._k += 1
        return (cell + self._inside.random()) / CYCLE

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()


def _log_uniform(rng: _Draws, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ---------------------------------------------------------------- sweep

SWEEP_ALPHAS = (
    (math.sqrt(2.0), 0.5),
    (math.pi / 2.0, 0.45),
    (0.5 + math.sqrt(2.0) / 40.0, 0.5),   # near the resonance alpha = 1/2
    (1.0000001, 0.5),                     # ill-conditioned
    (1.50000001, 0.5),                    # ill-conditioned
)
SWEEP_BETA = (0.01, 3.0)
SWEEP_ROWS = 40


def sweep_round(seed: int, rnd: int) -> list[Request]:
    """One `table` request per (alpha, g or g'): a stratified beta grid of
    SWEEP_ROWS points whose offset inside each stratum is drawn per request."""
    rng = _Draws("sweep", seed, rnd)
    lo, hi = SWEEP_BETA
    h = (hi - lo) / SWEEP_ROWS
    out = []
    for alpha, rho in SWEEP_ALPHAS:
        for derivative in (False, True):
            start = lo + rng.random() * h
            stop = start + (SWEEP_ROWS - 1) * h
            argv = ["table", "--alpha", repr(alpha), "--rho", repr(rho),
                    "--beta-start", repr(start), "--beta-stop", repr(stop),
                    "--beta-count", str(SWEEP_ROWS), "--format", "csv",
                    "--jobs", "1"]
            if derivative:
                argv.append("--derivative")
            out.append(Request("cli", tuple(argv), SWEEP_ROWS))
    return out


# ---------------------------------------------------------------- grid

GRID_ALPHAS = (
    (0.8, 0.25),          # Doney case (k, l) = (1, 1)
    (1.5, 2.0 / 3.0),     # Doney case (2, 4)
    (2.0, 0.5),           # Doney case (1, 3)
    (1.0, 0.5),           # rational: quadrature for g, split series for g'
    (0.3, 0.5),
    (1.9, 0.5),
)
GRID_BETA_STRATA = ((1e-3, 1e-1), (1e-1, 1.0), (1.0, 10.0), (10.0, 1e3))
# gamma = s**alpha for s in these strata, so that the argument of g inside
# kappa, beta * gamma**(-1/alpha) = beta / s, stays in [1e-4, 1e4]: at
# alpha = 0.3 quadrature fails at scattered arguments below 4e-10.
GRID_SCALE_STRATA = ((0.1, 0.5), (0.5, 2.0), (2.0, 10.0))
GRID_EXITS = 3

# Points that fail today, with the fault each one shows.  They do not
# depend on the seed and are attempted once per round.
GRID_FAULTS = (
    (("kappa", 0.3, 0.99, 1.0, 1e-6),
     "g_quad ConvergenceFailureError: fixed 0.9/1.1 beta splits with 30 refinements"),
    (("kappa", 0.3, 0.999, 1.0, 1e-4),
     "g_quad ConvergenceFailureError: fixed 0.9/1.1 beta splits with 30 refinements"),
    (("kappa", 0.5, 0.999, 1.0, 1e-6),
     "g_quad ConvergenceFailureError: fixed 0.9/1.1 beta splits with 30 refinements"),
    (("kappa", 0.3, 0.99, 1.0, 1e6),
     "g_quad ConvergenceFailureError on the reflected point beta = 1e-6"),
    (("kappa", 0.8, 0.25, 1e-300, 0.5),
     "raw OverflowError from gamma ** (-1/alpha)"),
    (("kappa", 0.8, 0.25, 1e300, 0.5),
     "argument underflows to 0 and is rejected as 'beta must be positive'"),
)


def grid_round(seed: int, rnd: int) -> list[Request]:
    """One request of every library call of the grid: per alpha, kappa
    over the beta x gamma strata, GRID_EXITS exit transforms and g' once
    per beta stratum.  Then one request per fixed fault point."""
    rng = _Draws("grid", seed, rnd)
    calls = []
    for alpha, rho in GRID_ALPHAS:
        for blo, bhi in GRID_BETA_STRATA:
            for slo, shi in GRID_SCALE_STRATA:
                gamma = _log_uniform(rng, slo, shi) ** alpha
                calls.append(("kappa", alpha, rho, gamma,
                              _log_uniform(rng, blo, bhi)))
        for _ in range(GRID_EXITS):
            eta = _log_uniform(rng, 0.3, 3.0) ** alpha
            calls.append(("exit_transform", alpha, rho, eta,
                          _log_uniform(rng, 1e-3, 1e3),
                          _log_uniform(rng, 1e-3, 1e3)))
        for blo, bhi in GRID_BETA_STRATA:
            calls.append(("gprime_any_beta", alpha, rho,
                          _log_uniform(rng, blo, bhi)))
    out = [Request("lib", tuple(calls), len(calls))]
    for call, fault in GRID_FAULTS:
        out.append(Request("lib", (call,), 1, fault))
    return out


WORKLOADS = {
    "sweep": (Workload(90.0, 2, 4), sweep_round),
    "grid": (Workload(90.0, 16, 64), grid_round),
}


def first_value_argv(request: Request) -> list[str]:
    """The one-shot CLI call that returns the same first value: for a
    table, its first row alone; for library calls, the first one's."""
    if request.kind == "cli":
        argv = list(request.call)
        if argv[0] == "table":
            argv[argv.index("--beta-count") + 1] = "1"
        return argv
    name, alpha, rho, gamma, beta = request.call[0]
    if name != "kappa":
        raise ValueError(f"no one-shot CLI form for {name}")
    return ["kappa", "--alpha", repr(alpha), "--rho", repr(rho),
            "--gamma", repr(gamma), "--beta", repr(beta), "--format", "json"]

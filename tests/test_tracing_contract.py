"""The names and result fields the benchmark's tracer wraps and reads,
and the work counters it records on a fixed sweep.

``bench/tracing.py`` replaces package functions by name from outside the
package and counts work from their results, so a rename inside the
package would silently zero a per-layer counter.  The counters do not
depend on the hardware, so they gate work regressions exactly: the
counters of ``PINNED`` match the store ``tracing``.  The tracer patches
modules in place, hence the separate interpreter.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import store

ROOT = Path(__file__).resolve().parent.parent

# installs the tracer, runs a body, prints the body's exit code and the metrics
TRACED = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import stablekappa, stablekappa.cli
from tracing import Tracer

tracer = Tracer()
entry = tracer.install()
extra = {{}}
{body}
print(json.dumps({{"code": code, "extra": extra, "metrics": {{
    name: m["value"] for name, m in tracer.metrics().items()}}}}))
"""

LAYERS = """
with contextlib.redirect_stdout(io.StringIO()):
    # beta 0.3 runs the series, 0.97 lies in the band where quadrature runs
    code = entry["main"](["table", "--alpha", repr(2 ** 0.5), "--rho", "0.5",
                          "--beta-start", "0.3", "--beta-stop", "0.97",
                          "--beta-count", "2"])
    # classify runs only when asked for: dispatch does not read it
    code = code or entry["main"](["classify", "--alpha", "0.5"])
# g' at rational alpha runs the split series
entry["gprime_any_beta"](stablekappa.validate(0.5, 0.3), 0.4)
"""

# a 40-row g table at sqrt 2: the series runs at the 22 rows up to the
# line's edge, 0.5, and the line, read off its table, at the 18 above
SWEEP = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", repr(2 ** 0.5), "--rho", "0.5",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""


# a 40-row g table at 1.50000001: the series pairs its terms near 3/2 at
# every row up to the line's edge
PAIRED = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", "1.50000001", "--rho", "0.5",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""

# a 40-row g' table at the rational 3/10: the split series runs at every
# row up to the line's edge, its resonant terms the pairs at delta = 0
RATIONAL = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", "0.3", "--rho", "0.5", "--derivative",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""


# a 40-row g table at the rational 19/10: the split series runs at every
# row up to the line's edge, as on the benchmark's grid
RATIONAL_G = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", "1.9", "--rho", "0.5",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""


# the 40-row table of SWEEP run twice, then a kappa sweep at the Doney case
# (k, l) = (2, 4) of alpha 3/2: the exact reductions each makes after its
# first run or beta
REPEATED = """
argv = ["table", "--alpha", repr(2 ** 0.5), "--rho", "0.5",
        "--beta-start", "0.01", "--beta-stop", "0.9", "--beta-count", "40"]
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](argv)
    first = tracer.counts["accurate.reductions"]
    code = code or entry["main"](argv)
extra["table_again"] = tracer.counts["accurate.reductions"] - first
params = stablekappa.validate(1.5, 2.0 / 3.0)
first = tracer.counts["accurate.reductions"]
entry["kappa"](params, stablekappa.KappaQuery(1.0, 0.01))
extra["doney_first"] = tracer.counts["accurate.reductions"] - first
first = tracer.counts["accurate.reductions"]
for i in range(1, 40):
    entry["kappa"](params, stablekappa.KappaQuery(1.0, 0.01 + 0.02 * i))
extra["doney_rest"] = tracer.counts["accurate.reductions"] - first
"""


# the benchmark's grid in miniature, with fixed points: at a Doney alpha,
# and at the rationals 1 and 3/10, kappa over a beta x scale grid, whose
# argument of g, beta / s, spans 2e-4 to 1e3 and avoids the band, two exit
# transforms and g' at five betas, one of them 1, in the band where
# quadrature runs
GRID = """
code = 0
for alpha, rho in ((0.8, 0.25), (1.0, 0.5), (0.3, 0.5)):
    params = stablekappa.validate(alpha, rho)
    for beta in (1e-3, 0.02, 0.3, 3.0, 200.0):
        for s in (0.2, 1.0, 5.0):
            entry["kappa"](params, stablekappa.KappaQuery(s ** alpha, beta))
    for eta, gamma, theta in ((0.5, 0.002, 300.0), (2.0, 0.7, 40.0)):
        entry["exit_transform"](params, eta ** alpha, gamma, theta)
    for beta in (0.005, 0.3, 1.0, 4.0, 600.0):
        entry["gprime_any_beta"](params, beta)
"""

# g at the dyadic alpha 2^-70: the second family's poles lie 2^-70 apart,
# so a cut past M = 0 sums more than the term budget, and quadrature runs
DYADIC = """
code = 0
res = entry["g_any_beta"](stablekappa.validate(2.0 ** -70, 0.5), 0.3)
extra["result"] = [res.method.value, res.value]
"""


# the counters of each workload pinned exactly
PINNED = {"SWEEP": ("series.calls", "quadrature.calls", "series.terms"),
          "PAIRED": ("series.calls", "quadrature.calls", "series.terms"),
          "RATIONAL": ("series.calls", "series.terms"),
          "RATIONAL_G": ("series.calls", "series.terms"),
          "GRID": ("series.calls", "series.terms", "special.doney.calls", "quadrature.nodes",
                   "accurate.reductions"),
          "DYADIC": ("result", "accurate.reductions")}


def _traced(body: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", TRACED.format(body=body), str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return {**result["metrics"], **result["extra"]}


def _pinned(name: str, metrics: dict) -> dict:
    return {(name, counter): metrics[counter] for counter in PINNED[name]}


def pins() -> dict:
    return {key: value for name in PINNED
            for key, value in _pinned(name, _traced(globals()[name])).items()}


def _assert_pinned(name: str, metrics: dict) -> None:
    stored = {key: value for key, value in store.load("tracing").items() if key[0] == name}
    assert store.dumps(_pinned(name, metrics)) == store.dumps(stored)


def test_tracer_counts_every_wrapped_layer():
    metrics = _traced(LAYERS)
    # g' at rational alpha runs the series, split at p/q, and counts in
    # series.terms; it reduces every sine through the tracer's wrapper of
    # accurate.reduced, so a call that does not pass all three of its
    # arguments fails here
    for name in ("series.terms", "quadrature.nodes",
                 "diophantine.classify.calls", "accurate.reductions"):
        assert metrics[name] > 0, name


def test_sweep_work_counters():
    # each series sine is computed once across the betas, and every row
    # lies below the band; dispatch reads no classify, the series reads
    # alpha's profile itself
    metrics = _traced(SWEEP)
    assert metrics["diophantine.classify.calls"] == 0
    assert metrics["diophantine.classify.reductions"] == 0
    assert metrics["accurate.reductions"] <= 900
    _assert_pinned("SWEEP", metrics)


def test_paired_sweep_work_counters():
    # the pairs count as first-series terms; at the seven betas up to 0.15
    # the generic sum returns, its summed noise under half the tolerance
    metrics = _traced(PAIRED)
    assert metrics["diophantine.classify.calls"] == 0
    _assert_pinned("PAIRED", metrics)


def test_rational_sweep_work_counters():
    # the pair factors at delta = 0 are reduced once for the table, like the
    # nonresonant sums' sines, not once per beta
    metrics = _traced(RATIONAL)
    _assert_pinned("RATIONAL", metrics)
    assert metrics["accurate.reductions"] <= 2060


def test_rational_g_sweep_work_counters():
    # g at 19/10, the split of the benchmark's grid: its cut may pass an
    # interval whose midpoint is a pole alpha k
    _assert_pinned("RATIONAL_G", _traced(RATIONAL_G))


def test_beta_free_work_is_done_once():
    # the series' sines and cut candidates, and the Doney cosines, depend
    # on alpha (and rho) alone: once a table has run, the same table again
    # makes no exact reduction, nor a Doney kappa sweep after its first beta
    metrics = _traced(REPEATED)
    assert metrics["table_again"] == 0
    assert metrics["doney_first"] > 0
    assert metrics["doney_rest"] == 0
    assert metrics["special.doney.calls"] >= 40


def test_every_evaluator_the_plan_looks_up_is_traced():
    # the tracer wraps evaluators by the names kappa._steps looks them up
    # by: a name missing from LAYER_OF would drop out of its counters
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    kappa_module = importlib.import_module("stablekappa.kappa")
    code = kappa_module._steps.__wrapped__.__code__
    names = set(code.co_names).union(*(
        const.co_names for const in code.co_consts if hasattr(const, "co_names")))
    looked_up = {name for name in names
                 if callable(fn := getattr(kappa_module, name, None))
                 and not isinstance(fn, type)
                 and fn.__module__.startswith("stablekappa.")
                 and fn.__module__ != kappa_module.__name__}
    assert {"g_doney", "g_series", "gprime_series", "g_quad", "gprime_quad"} <= looked_up
    assert looked_up <= set(tracing.LAYER_OF)


def test_grid_work_counters():
    # every call of GRID returns, and its work is pinned exactly: a change
    # that only makes each call cheaper leaves these counters as they are
    _assert_pinned("GRID", _traced(GRID))


def test_the_cut_walks_no_further_than_the_term_budget():
    # the cut stops where no later one can meet the term budget: a walk
    # over all 2 max_terms intervals would reduce every candidate's sines
    # exactly, 120006 reductions, before the split refuses
    _assert_pinned("DYADIC", _traced(DYADIC))


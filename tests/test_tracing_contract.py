"""The names and result fields the benchmark's tracer wraps and reads,
and the work counters it records on a fixed sweep.

``bench/tracing.py`` replaces package functions by name from outside the
package and counts work from their results, so a rename inside the
package would silently zero a per-layer counter.  The counters do not
depend on the hardware, so they gate work regressions exactly.  The
tracer patches modules in place, hence the separate interpreter.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
# g' at rational alpha runs the split series
entry["gprime_any_beta"](stablekappa.validate(0.5, 0.3), 0.4)
"""

# a 40-row g table at sqrt 2: the series runs at every row
SWEEP = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", repr(2 ** 0.5), "--rho", "0.5",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""


# a 40-row g table at 1.50000001: the series pairs its terms near 3/2 at
# every row, where quadrature ran before
PAIRED = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", "1.50000001", "--rho", "0.5",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""

# a 40-row g' table at the rational 3/10: the split series runs at every
# row, its resonant terms the pairs at delta = 0
RATIONAL = """
with contextlib.redirect_stdout(io.StringIO()):
    code = entry["main"](["table", "--alpha", "0.3", "--rho", "0.5", "--derivative",
                          "--beta-start", "0.01", "--beta-stop", "0.9",
                          "--beta-count", "40"])
"""


# a 40-row g table at the rational 19/10: the split series runs at every
# row, as on the benchmark's grid
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

# GRID's work counters (``python tests/test_tracing_contract.py`` prints them)
GRID_PINS = {
    "series.calls": 46,
    "series.terms": 1318,
    "special.doney.calls": 38,
    "quadrature.nodes": 420,
    "accurate.reductions": 501,
}

# g at the dyadic alpha 2^-70: the second family's poles lie 2^-70 apart,
# so a cut past M = 0 sums more than the term budget, and quadrature runs
DYADIC = """
code = 0
res = entry["g_any_beta"](stablekappa.validate(2.0 ** -70, 0.5), 0.3)
extra["result"] = [res.method.value, res.value]
"""


def _traced(body: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", TRACED.format(body=body), str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return {**result["metrics"], **result["extra"]}


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
    # classify expands sqrt 2 in integers and makes no exact reduction, and
    # each series sine is computed once across the betas; classify is read
    # once per plan region the table touches, and every row lies below the band
    metrics = _traced(SWEEP)
    assert metrics["diophantine.classify.calls"] == 1
    assert metrics["diophantine.classify.reductions"] == 0
    assert metrics["accurate.reductions"] <= 900
    assert metrics["series.terms"] == 2910


def test_paired_sweep_work_counters():
    metrics = _traced(PAIRED)
    assert metrics["diophantine.classify.calls"] == 1  # one plan region
    assert metrics["quadrature.calls"] == 0
    assert metrics["series.calls"] == 40
    # the pairs count as first-series terms; at the seven betas up to 0.15
    # the generic sum returns, its summed noise under half the tolerance
    assert metrics["series.terms"] == 2263


def test_rational_sweep_work_counters():
    # the pair factors at delta = 0 are reduced once for the table, like the
    # nonresonant sums' sines, not once per beta
    metrics = _traced(RATIONAL)
    assert metrics["series.calls"] == 40
    assert metrics["series.terms"] == 7802
    assert metrics["accurate.reductions"] <= 2060


def test_rational_g_sweep_work_counters():
    # g at 19/10, the split of the benchmark's grid: its cut may pass an
    # interval whose midpoint is a pole alpha k, yet sums fewer terms than
    # the stops it replaced (2887)
    metrics = _traced(RATIONAL_G)
    assert metrics["series.calls"] == 40
    assert metrics["series.terms"] == 2484


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
    metrics = _traced(GRID)
    assert {name: metrics[name] for name in GRID_PINS} == GRID_PINS


def test_the_cut_walks_no_further_than_the_term_budget():
    # the cut stops where no later one can meet the term budget: a walk
    # over all 2 max_terms intervals would reduce every candidate's sines
    # exactly, 120006 reductions, before the split refuses
    metrics = _traced(DYADIC)
    assert metrics["result"] == ["quadrature", 0.3465735902799727]
    assert metrics["accurate.reductions"] == 6


if __name__ == "__main__":
    metrics = _traced(GRID)
    print("GRID_PINS = {")
    for name in GRID_PINS:
        print(f'    "{name}": {metrics[name]!r},')
    print("}")

"""The names and result fields the benchmark's tracer wraps and reads,
and the work counters it records on a fixed sweep.

``bench/tracing.py`` replaces package functions by name from outside the
package and counts work from their results, so a rename inside the
package would silently zero a per-layer counter.  The counters do not
depend on the hardware, so they gate work regressions exactly.  The
tracer patches modules in place, hence the separate interpreter.
"""

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
{body}
print(json.dumps({{"code": code, "metrics": {{
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


def _traced(body: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", TRACED.format(body=body), str(ROOT / "src"),
         str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    return result["metrics"]


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
    # one divisor floor for the whole table, read off sqrt 2's 21
    # convergents (two exact reductions each, less the two at the last),
    # and each series sine computed once across the betas; classify is read
    # once per plan region the table touches, and every row lies below the band
    metrics = _traced(SWEEP)
    assert metrics["diophantine.classify.calls"] == 1
    assert metrics["diophantine.classify.reductions"] == 40
    assert metrics["accurate.reductions"] <= 900
    assert metrics["series.terms"] == 3584


def test_paired_sweep_work_counters():
    metrics = _traced(PAIRED)
    assert metrics["diophantine.classify.calls"] == 1  # one plan region
    assert metrics["quadrature.calls"] == 0
    assert metrics["series.calls"] == 40
    assert metrics["series.terms"] == 2480  # the pairs count as first-series terms


def test_rational_sweep_work_counters():
    # the pair factors at delta = 0 are reduced once for the table, like the
    # nonresonant sums' sines, not once per beta
    metrics = _traced(RATIONAL)
    assert metrics["series.calls"] == 40
    assert metrics["series.terms"] == 9092
    assert metrics["accurate.reductions"] <= 2060

"""The names and result fields the benchmark's tracer wraps and reads.

``bench/tracing.py`` replaces package functions by name from outside the
package and counts work from their results, so a rename inside the
package would silently zero a per-layer counter.  The tracer patches
modules in place, hence the separate interpreter.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
import stablekappa, stablekappa.cli
from tracing import Tracer

tracer = Tracer()
entry = tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    # beta 0.3 runs the series, 0.97 lies in the band where quadrature runs
    code = entry["main"](["table", "--alpha", repr(2 ** 0.5), "--rho", "0.5",
                          "--beta-start", "0.3", "--beta-stop", "0.97",
                          "--beta-count", "2"])
# g' at rational alpha runs the split series
entry["gprime_any_beta"](stablekappa.validate(0.5, 0.3), 0.4)
print(json.dumps({"code": code, "metrics": {
    name: m["value"] for name, m in tracer.metrics().items()}}))
"""


def test_tracer_counts_every_wrapped_layer():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    metrics = result["metrics"]
    for name in ("series.terms", "quadrature.nodes", "special.rational.terms",
                 "diophantine.classify.calls"):
        assert metrics[name] > 0, name

"""Spans and work counters recorded around calls into each layer.

Tracing wraps module attributes from outside the package: every function
is replaced under the name its caller looks it up by, so the package
itself is unchanged and untraced runs pay nothing.  A span records
(request id, name, parent span, start, end); a layer's self time is its
span time minus the time of the spans it caused.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# name -> layer, for the functions the kappa, cli and series modules import
LAYER_OF = {
    "classify": "diophantine.classify",
    "g_series": "series",
    "gprime_series": "series",
    "g_quad": "quadrature",
    "gprime_quad": "quadrature",
    "find_doney_case": "special.doney",
    "g_doney": "special.doney",
    "gprime_rational": "special.rational",
    # kappa-layer entry points as the CLI and the benchmark call them
    "g_any_beta": "kappa",
    "gprime_any_beta": "kappa",
    "kappa": "kappa",
    "exit_transform": "kappa",
    "main": "cli",
}
CALLER_MODULES = ("stablekappa.kappa", "stablekappa.cli", "stablekappa.series")
# kappa-layer functions are wrapped only where the CLI looks them up; their
# calls from inside the kappa module stay part of the caller's self time.
_OUTER_ONLY = {"g_any_beta", "gprime_any_beta", "kappa", "exit_transform", "main"}

PER_LAYER = (
    ("diophantine.classify.calls", "count"),
    ("diophantine.classify.ms", "ms"),
    ("diophantine.classify.reductions", "count"),
    ("series.calls", "count"),
    ("series.ms", "ms"),
    ("series.terms", "count"),
    ("series.dropped", "count"),
    ("quadrature.calls", "count"),
    ("quadrature.ms", "ms"),
    ("quadrature.nodes", "count"),
    ("quadrature.failed", "count"),
    ("special.doney.calls", "count"),
    ("special.doney.ms", "ms"),
    ("special.rational.calls", "count"),
    ("special.rational.ms", "ms"),
    ("special.rational.terms", "count"),
    ("accurate.reductions", "count"),
    ("kappa.self_ms", "ms"),
    ("cli.self_ms", "ms"),
)


class Tracer:
    """Records spans and counts while ``recording`` is set; the wrappers
    keep running (and costing) after the window closes."""

    def __init__(self) -> None:
        self.request = 0
        self.recording = True
        self.spans: list = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list = []       # [child seconds, span index]
        self._in_classify = 0

    def wrap(self, name: str, fn):
        layer = LAYER_OF[name]
        stack = self._stack

        def traced(*args, **kwargs):
            rec = self.recording
            idx = -1
            if rec:
                idx = len(self.spans)
                self.spans.append(None)
            frame = [0.0, idx]
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            if layer == "diophantine.classify":
                self._in_classify += 1
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                if layer == "diophantine.classify":
                    self._in_classify -= 1
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                if rec:
                    self.spans[idx] = (self.request, name, parent, t0, t1)
                    self.self_s[layer] += dur - frame[0]
                    self._count(layer, ok, result if ok else None)

        return traced

    def _count(self, layer: str, ok: bool, result) -> None:
        c = self.counts
        c[layer + ".calls"] += 1
        if layer == "series":
            if ok:
                c["series.terms"] += (result.terms_first_series
                                      + result.terms_second_series)
            else:
                c["series.dropped"] += 1
        elif layer == "quadrature":
            if ok:
                c["quadrature.nodes"] += result.terms_or_nodes_used
            else:
                c["quadrature.failed"] += 1
        elif layer == "special.rational" and ok:
            c["special.rational.terms"] += result.terms_or_nodes_used

    def wrap_reduced(self, fn):
        counts = self.counts

        def counted(n, hi, lo=0.0):
            if self.recording:
                counts["accurate.reductions"] += 1
                if self._in_classify:
                    counts["diophantine.classify.reductions"] += 1
            return fn(n, hi, lo)

        return counted

    def install(self) -> dict:
        """Wrap the package in place; returns the wrapped kappa-layer
        entry points and CLI main for the benchmark's own calls."""
        accurate = sys.modules["stablekappa.accurate"]
        accurate.reduced = self.wrap_reduced(accurate.reduced)
        for modname in CALLER_MODULES:
            mod = sys.modules[modname]
            for name in LAYER_OF:
                if name in _OUTER_ONLY and modname != "stablekappa.cli":
                    continue
                if name != "main" and hasattr(mod, name):
                    setattr(mod, name, self.wrap(name, getattr(mod, name)))
        kappa_mod = sys.modules["stablekappa.kappa"]
        entry = {name: self.wrap(name, getattr(kappa_mod, name))
                 for name in ("g_any_beta", "gprime_any_beta", "kappa",
                              "exit_transform")}
        entry["main"] = self.wrap("main", sys.modules["stablekappa.cli"].main)
        return entry

    def metrics(self) -> dict:
        """Per-layer totals over the recorded window; an ``ms`` metric is
        the self time of the layer its name starts with."""
        out = {}
        for name, unit in PER_LAYER:
            if unit == "ms":
                value = self.self_s[name.rsplit(".", 1)[0]] * 1e3
            else:
                value = self.counts[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                req, name, parent, t0, t1 = span
                fh.write(json.dumps({"request": req, "name": name,
                                     "parent": parent, "start": t0,
                                     "end": t1}) + "\n")

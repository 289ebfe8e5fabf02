#!/usr/bin/env python3
"""Benchmark of stablekappa: sweep and grid workloads.

    python3 bench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --seed 1     # every workload, each in a fresh interpreter

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One process, one closed-loop client, no threads: each request
is sent when the previous one has returned.  The run repeats whole blocks
of rounds of requests (see ``workloads.py``) until ``--seconds`` have
passed.  Request times are measured in wall-clock seconds and converted to
``ref`` units, the time of a fixed pure-Python computation
(``reference.py``) timed between the requests, so that the figures follow
the program and not the speed of a shared machine.  Throughput and the
latency percentiles are medians over blocks.  After the timed passes the
outputs are checked against a 30-digit mpmath oracle and against
properties of the method; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 1`` the metrics are the per-layer figures of the traced window
(the first ``trace_rounds`` rounds) instead of the end-to-end ones.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

import reference  # noqa: E402
from workloads import WORKLOADS, first_value_argv  # noqa: E402

SETUP_REPEATS = 11
# A one-shot CLI call: fresh interpreter, import, first value, exit.
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "from stablekappa.cli import main; sys.exit(main(sys.argv[2:]))")
EPS = 2.0 ** -52
REF_EVERY_S = 0.05
REF_SIDE = 4
# setup_s is the one-shot processes' median wall time divided by the
# run's median reference sample, given in seconds at this many seconds per
# ref: about the reference computation's time on the machine the README
# figures come from
REF_SECONDS = 0.001


def measure_setup(argv: list[str]) -> tuple[float, list[tuple[int, str]]]:
    """Median wall time of SETUP_REPEATS one-shot CLI processes, after one
    untimed process that leaves the bytecode caches written."""
    cmd = [sys.executable, "-I", "-c", _CHILD, str(SRC), *argv]
    subprocess.run(cmd, capture_output=True, timeout=120, check=False)
    times, outputs = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
        times.append(perf_counter() - t0)
        outputs.append((proc.returncode, proc.stdout))
    return statistics.median(times), outputs


class Client:
    """Sends one request at a time and times it."""

    def __init__(self, tracer=None) -> None:
        import stablekappa
        import stablekappa.cli  # noqa: F401  (not imported by the package)

        if Path(stablekappa.__file__).resolve().parent != SRC / "stablekappa":
            raise ImportError(f"stablekappa loaded from {stablekappa.__file__}")

        kappa_mod = sys.modules["stablekappa.kappa"]
        self.KappaQuery = kappa_mod.KappaQuery
        self.validate = sys.modules["stablekappa.params"].validate
        if tracer is None:
            self.api = {name: getattr(kappa_mod, name)
                        for name in ("g_any_beta", "gprime_any_beta", "kappa",
                                     "exit_transform")}
            self.api["main"] = sys.modules["stablekappa.cli"].main
        else:
            self.api = tracer.install()
        self._params: dict = {}

    def params(self, alpha: float, rho: float):
        key = (alpha, rho)
        if key not in self._params:
            self._params[key] = self.validate(alpha, rho)
        return self._params[key]

    def send(self, req):
        """(latency in seconds, outcome).  A CLI outcome is (exit code,
        stdout, stderr); a library outcome is the list of each call's
        EvalResult or the exception it raised."""
        if req.kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            main = self.api["main"]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                rc = main(list(req.call))
                t1 = perf_counter()
            return t1 - t0, (rc, out.getvalue(), err.getvalue())
        calls = [(name, self.api[name], self.params(alpha, rho), args)
                 for name, alpha, rho, *args in req.call]
        results = []
        t0 = perf_counter()
        for name, fn, params, args in calls:
            try:
                if name == "kappa":
                    result = fn(params, self.KappaQuery(args[0], args[1]))
                else:
                    result = fn(params, *args)
            except Exception as exc:  # counted and reported by judge()
                result = exc
            results.append(result)
        return perf_counter() - t0, results


def _csv_rows(out: str) -> list[dict]:
    header = sys.modules["stablekappa.cli"].CSV_HEADER
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("missing CSV header")
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def judge(req, outcome) -> tuple[int, int, str | None]:
    """(points with a value, points failed, problem).  Only a named grid
    fault may fail without a problem."""
    if req.kind == "cli":
        rc, out, err = outcome
        if req.call[0] == "table":
            try:
                rows = _csv_rows(out)
            except ValueError:
                return 0, req.points, f"table exit {rc}: {err.strip()}"
            good = sum(1 for r in rows if r["status"] == "ok")
            if rc != 0 or len(rows) != req.points or good != req.points:
                return good, req.points - good, f"table exit {rc}, {good} ok rows"
            return good, 0, None
        try:
            payload = json.loads(out)
        except ValueError:
            return 0, 1, f"compare exit {rc}: {err.strip()}"
        if rc != 0 or payload.get("agree") is not True:
            return 0, 1, f"compare exit {rc}, agree={payload.get('agree')}"
        return 1, 0, None
    good = bad = 0
    problem = None
    for call, result in zip(req.call, outcome):
        if isinstance(result, Exception):
            bad += 1
            if req.fault is None:
                problem = problem or f"{call}: {type(result).__name__}: {result}"
        elif not math.isfinite(result.value):
            bad += 1
            problem = problem or f"{call}: non-finite value {result.value!r}"
        else:
            good += 1
    return good, bad, problem


# ---------------------------------------------------------------- checks

def _check_value(problems, label, value, bound, ref) -> None:
    import oracle
    if not oracle.agrees(value, bound, ref):
        problems.append(f"oracle: {label}: {value!r} (bound {bound:.3e}) "
                        f"vs {float(ref[0])!r}")


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = sys.modules["stablekappa.cli"].main(argv)
    return rc, out.getvalue()


def check_sweep(round0, seed, problems) -> int:
    import oracle
    import stablekappa as sk
    rng = random.Random(f"sweep-check/{seed}")
    n = 0
    for req, (_, out, _) in round0:
        derivative = "--derivative" in req.call
        rows = _csv_rows(out)
        row = rng.choice(rows)
        alpha, rho, beta = (float(row[k]) for k in ("alpha", "rho", "beta"))
        ref = oracle.g(alpha, rho, beta, derivative)
        label = "g'" if derivative else "g"
        _check_value(problems, f"{label}({alpha!r}, {rho!r}, {beta!r})",
                     float(row["value"]), float(row["abs_error_bound"]), ref)
        n += 1
        # every method forced at the same point: they must agree, and each
        # must agree with the oracle
        call = ["compare", *req.call[1:5], "--beta", row["beta"], "--format", "json"]
        rc, out = _main(call + ["--derivative"] * derivative)
        if rc != 0 or json.loads(out or "{}").get("agree") is not True:
            problems.append(f"{' '.join(call)}: exit {rc}, {out.strip()}")
        else:
            for method, m in json.loads(out)["methods"].items():
                _check_value(problems, f"{label} by {method} at ({alpha!r}, {rho!r}, "
                             f"{beta!r})", m["value"], m["abs_error_bound"], ref)
                n += 1
        if derivative:
            continue
        # reflection: g(beta) by direct quadrature, g(1/beta) by dispatch
        beta = float(rng.choice([r for r in rows if float(r["beta"]) >= 1.05])["beta"])
        params = sk.validate(alpha, rho)
        big = sk.g_quad(params, beta)
        small = sk.g_any_beta(params, 1.0 / beta)
        rhs = alpha * rho * math.log(beta)
        resid = abs(big.value - small.value - rhs)
        if resid > big.abs_error_bound + small.abs_error_bound + 4 * EPS * (1 + abs(rhs)):
            problems.append(f"reflection at ({alpha!r}, {rho!r}, {beta!r}): {resid:.3e}")
        n += 1
    return n


def check_grid(round0, seed, problems) -> int:
    import oracle
    import stablekappa as sk
    rng = random.Random(f"grid-check/{seed}")
    n = 0
    done = [(call, req.fault, res) for req, results in round0
            for call, res in zip(req.call, results) if not isinstance(res, Exception)]
    plain = [(call, res) for call, fault, res in done if fault is None]
    sample = rng.sample(plain, 12) + [(call, res) for call, fault, res in done if fault]
    for call, res in sample:
        name, alpha, rho, *args = call
        if name == "kappa":
            ref = oracle.kappa(alpha, rho, *args)
        elif name == "exit_transform":
            ref = oracle.exit_transform(alpha, rho, *args)
        else:
            ref = oracle.g(alpha, rho, args[0], True)
        _check_value(problems, f"{name}{tuple(call[1:])}", res.value,
                     res.abs_error_bound, ref)
        n += 1
    for call, res in plain:
        name, alpha, rho, *args = call
        params = sk.validate(alpha, rho)
        if name == "kappa":
            gamma = args[0]
            got = sk.kappa(params, sk.KappaQuery(gamma, 0.0)).value
            if got != gamma ** rho:
                problems.append(f"kappa({gamma!r}, 0) = {got!r} != gamma^rho")
            n += 1
        elif name == "exit_transform":
            eta, gamma, theta = args
            swapped = sk.exit_transform(params, eta, theta, gamma).value
            if swapped != res.value:
                problems.append(f"exit_transform not symmetric at {call}")
            n += 1
    return n


CHECKS = {"sweep": check_sweep, "grid": check_grid}


def check_first_value(round0, outputs, problems) -> None:
    """The one-shot CLI processes must return the in-process first value."""
    req, outcome = round0[0]
    for rc, out in outputs:
        if req.kind == "cli" and req.call[0] == "table":
            # header and first row of the in-process table
            same = rc == 0 and out.splitlines() == outcome[1].splitlines()[:2]
        elif req.kind == "cli":
            same = (rc, out) == outcome[:2]
        else:
            same = rc == 0 and json.loads(out)["value"] == outcome[0].value
        if not same:
            problems.append(f"one-shot CLI output differs from in-process: {out!r}")
            return


# ---------------------------------------------------------------- runs

class Timings:
    """Request times summed up block by block, in wall-clock seconds and in
    ``ref`` units.

    A reference sample is the time of one ``reference.kernel()`` call,
    made after any request that ends at least REF_EVERY_S after the last
    sample, and REF_SIDE times at the end of every block.  A request's time
    in ref units is its wall time divided by the median of the REF_SIDE
    samples before and the REF_SIDE samples after it: the machine's speed
    at that moment.  Per block only the throughput and two percentiles of
    latency are kept, so the client's memory grows by one float per
    reference sample only, and the peak RSS stays the program's.
    """

    UNITS = ("wall", "ref")

    def __init__(self, tail_pct: float) -> None:
        self.tail_pct = tail_pct
        self.ref = array("d")
        self.requests_ok = 0
        self.rates = {u: [] for u in self.UNITS}
        self.p50s = {u: [] for u in self.UNITS}
        self.tails = {u: [] for u in self.UNITS}
        self._block: list = []
        self._last = 0.0
        self.sample(force=True)

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= REF_EVERY_S:
            self.ref.append(reference.sample())
            self._last = perf_counter()

    def add(self, lat: float, good: int, ok: bool) -> None:
        """One request: its wall time, points that returned a value, and
        whether none of its points failed."""
        self._block.append((lat, len(self.ref) - 1, good, ok))
        self.requests_ok += ok

    def end_block(self) -> None:
        for _ in range(REF_SIDE):
            self.sample(force=True)
        speed = {}
        times = {u: [] for u in self.UNITS}
        for lat, j, _, _ in self._block:
            if j not in speed:
                speed[j] = statistics.median(
                    self.ref[max(0, j - REF_SIDE + 1):j + REF_SIDE + 1])
            times["wall"].append(lat)
            times["ref"].append(lat / speed[j])
        good = sum(item[2] for item in self._block)
        for u in self.UNITS:
            self.rates[u].append(good / sum(times[u]))
            ok_times = sorted(t for t, item in zip(times[u], self._block) if item[3])
            if ok_times:
                self.p50s[u].append(statistics.median(ok_times))
                rank = math.ceil(self.tail_pct / 100.0 * len(ok_times))
                self.tails[u].append(ok_times[rank - 1])
        self._block = []

    def metrics(self, unit: str) -> dict:
        """Medians over blocks of throughput, median latency and tail
        latency (nearest rank)."""
        return {"pts": statistics.median(self.rates[unit]),
                "p50": statistics.median(self.p50s[unit]),
                "tail": statistics.median(self.tails[unit])}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl, make_round = WORKLOADS[name]
    first = make_round(seed, 0)[0]
    setup_wall = outputs = None
    if not trace:
        setup_wall, outputs = measure_setup(first_value_argv(first))

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    client = Client(tracer)

    timings = Timings(wl.tail_pct)
    attempted = failed = 0
    problems: list[str] = []
    round0 = []
    window = None
    rnd = 0
    start = perf_counter()
    while True:
        for _ in range(wl.block_rounds):
            for req in make_round(seed, rnd):
                if tracer is not None:
                    tracer.request += 1
                lat, outcome = client.send(req)
                ok, bad, problem = judge(req, outcome)
                timings.add(lat, ok, not bad)
                attempted += req.points
                failed += bad
                if problem is not None and len(problems) < 20:
                    problems.append(problem)
                if rnd == 0:
                    round0.append((req, outcome))
                timings.sample()
            rnd += 1
            if tracer is not None and rnd == wl.trace_rounds:
                window = tracer.metrics()
                tracer.recording = False
        timings.end_block()
        if (perf_counter() - start >= seconds
                and (tracer is None or window is not None)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness, outside the timed passes
    checked = 0
    if not problems:
        checked = CHECKS[name](round0, seed, problems)
        if outputs is not None:
            check_first_value(round0, outputs, problems)

    print(f"# {name} seed={seed} rounds={rnd} blocks={len(timings.rates['ref'])} "
          f"requests={timings.requests_ok} ok, reference samples={len(timings.ref)}, "
          f"points={attempted} failed={failed} oracle/property checks={checked}")
    metrics = {}
    if timings.requests_ok == 0:
        problems.append("no request returned a value")
    else:
        raw = timings.metrics("wall")
        ref = timings.metrics("ref")
        setup_s = None
        if setup_wall is not None:
            setup_s = setup_wall / statistics.median(timings.ref) * REF_SECONDS
        print(f"# lat_tail_ref is p{wl.tail_pct:g} of a block; 1 ref = "
              f"{statistics.median(timings.ref) * 1e3:.4g} ms (median sample)")
        print(f"# wall clock: pts_per_s={raw['pts']:.6g} "
              f"lat_p50_ms={raw['p50'] * 1e3:.6g} lat_tail_ms={raw['tail'] * 1e3:.6g}"
              + (f" setup_s={setup_wall:.6g}" if setup_wall is not None else ""))
        metrics = {
            "pts_per_ref": {"value": ref["pts"], "unit": "points/ref"},
            "lat_p50_ref": {"value": ref["p50"], "unit": "ref"},
            "lat_tail_ref": {"value": ref["tail"], "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    if trace:
        RESULTS.mkdir(exist_ok=True)
        tracer.write_spans(RESULTS / f"spans-{name}-seed{seed}.jsonl")
        if metrics:
            print(f"# traced: pts_per_ref={metrics['pts_per_ref']['value']:.6g} "
                  f"over the whole run; window = first {wl.trace_rounds} rounds, "
                  f"{len(tracer.spans)} spans")
        metrics = window
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        status = status or proc.returncode
        print(f"{name:<11} attempted {result['attempted']:>8}  failed {result['failed']:>5}"
              f"  correct {str(result['correct']).lower()}")
        for metric, m in result["metrics"].items():
            print(f"{name:<11} {metric:<32} {m['value']:>14.6g} {m['unit']}")
            total["metrics"][f"{name}.{metric}"] = m
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "stablekappa" / "__init__.py").is_file():
        print(f"error: no stablekappa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

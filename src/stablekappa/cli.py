"""Command-line interface: eval, kappa, table, compare, classify, selftest.

Output is byte-deterministic for identical flags: fields appear in a fixed
order, floats print in their shortest round-trip form (at most 17
significant digits), and nothing time- or environment-dependent is ever
emitted.  Exit codes: 0 ok, 1 invalid parameters or usage, 2 convergence
or self-test failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NamedTuple

from .diophantine import cf_expand, classify
from .kappa import KappaQuery, exit_transform, g_any_beta, gprime_any_beta, kappa, plan
from .params import (
    ConvergenceFailureError,
    EvalResult,
    IllConditionedSeriesError,
    MethodChoice,
    MethodNotApplicableError,
    OutOfRangeError,
    StableParams,
    Tolerance,
    validate,
)
from .quadrature import g_quad, gprime_quad
from .series import gprime_series


class OutputRecord(NamedTuple):
    """One evaluation as a flat record with a fixed field order."""

    alpha: float
    rho: float | None
    beta: float | None
    gamma: float | None
    method: str
    value: float | None
    abs_error_bound: float | None
    terms_or_nodes_used: int | None
    status: str

    def to_json(self) -> str:
        return json.dumps(self._asdict())

    def to_csv_row(self) -> str:
        return ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                        for v in self)

    def to_text(self) -> str:
        return " ".join(f"{name}={v!r}" if isinstance(v, float) else f"{name}={v}"
                        for name, v in zip(self._fields, self) if v is not None)


CSV_HEADER = ",".join(OutputRecord._fields)


def _emit(records: list[OutputRecord], fmt: str) -> None:
    if fmt == "json":
        for rec in records:
            print(rec.to_json())
    elif fmt == "csv":
        print(CSV_HEADER)
        for rec in records:
            print(rec.to_csv_row())
    else:
        for rec in records:
            print(rec.to_text())


def _tolerance(args) -> Tolerance:
    return Tolerance(abs_tol=args.tol, max_terms=args.max_terms)


def _method(args) -> MethodChoice:
    return MethodChoice(args.method)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _add_common(p: argparse.ArgumentParser, beta: bool = False, method: bool = True,
                derivative: bool = True, csv: bool = True) -> None:
    """The flags of eval, kappa, table and compare; each command gets only
    those its handler reads."""
    p.add_argument("--alpha", type=float, required=True, help="stability index in (0, 2]")
    p.add_argument("--rho", type=float, required=True,
                   help="positivity parameter in [1-1/alpha, 1/alpha] & (0, 1)")
    if beta:
        p.add_argument("--beta", type=float, required=True, help="space argument")
    if method:
        p.add_argument("--method", choices=[m.value for m in MethodChoice],
                       default="auto", help="evaluator (default: auto)")
    p.add_argument("--tol", type=float, default=1e-10, help="absolute tolerance")
    p.add_argument("--max-terms", type=int, default=10000, dest="max_terms",
                   help="budget of series terms and quadrature steps, per method")
    p.add_argument("--format", choices=["json", "csv", "text"] if csv else ["json", "text"],
                   default="text", help="output format")
    if derivative:
        p.add_argument("--derivative", action="store_true",
                       help="evaluate g' instead of g")


_INVALID = (OutOfRangeError, MethodNotApplicableError, ZeroDivisionError)
_NOCONV = (ConvergenceFailureError, IllConditionedSeriesError)
_STATUS = {1: "invalid_params", 2: "convergence_failure"}  # by exit code


def _exit_code(exc: Exception) -> int:
    return 1 if isinstance(exc, _INVALID) else 2


def _report(exc: Exception) -> int:
    """Print an evaluation error to stderr and return its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return _exit_code(exc)


def _failure_record(args, code: int, beta: float | None,
                    gamma: float | None = None) -> OutputRecord:
    return OutputRecord(args.alpha, args.rho, beta, gamma, args.method,
                        None, None, None, _STATUS[code])


def _ok_record(args, beta: float, gamma: float | None, res: EvalResult) -> OutputRecord:
    return OutputRecord(args.alpha, args.rho, beta, gamma, res.method.value,
                        res.value, res.abs_error_bound, res.terms_or_nodes_used, "ok")


def cmd_eval(args) -> int:
    try:
        params = validate(args.alpha, args.rho)
        tol = _tolerance(args)
        fn = gprime_any_beta if args.derivative else g_any_beta
        res = fn(params, args.beta, _method(args), tol)
    except _INVALID + _NOCONV as exc:
        code = _report(exc)
        _emit([_failure_record(args, code, args.beta)], args.format)
        return code
    _emit([_ok_record(args, args.beta, None, res)], args.format)
    return 0


def cmd_kappa(args) -> int:
    if args.transform is not None and (args.beta is not None or args.gamma is not None):
        raise _UsageError("--transform takes its own GAMMA and THETA; "
                          "it does not combine with --beta or --gamma")
    if args.transform is not None:
        eta, gamma, beta = args.transform  # the record shows THETA as beta
    else:
        beta, gamma = args.beta, 1.0 if args.gamma is None else args.gamma
    try:
        params = validate(args.alpha, args.rho)
        tol = _tolerance(args)
        if args.transform is not None:
            res = exit_transform(params, eta, gamma, beta, _method(args), tol)
        else:
            if beta is None:
                raise OutOfRangeError("kappa needs --beta (or --transform)")
            res = kappa(params, KappaQuery(gamma, beta), _method(args), tol)
    except _INVALID + _NOCONV as exc:
        code = _report(exc)
        _emit([_failure_record(args, code, beta, gamma)], args.format)
        return code
    _emit([_ok_record(args, beta, gamma, res)], args.format)
    return 0


def _linspace(start: float, stop: float, count: int) -> list[float]:
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    pts = [start + i * step for i in range(count)]
    pts[-1] = stop
    return pts


def cmd_table(args) -> int:
    gamma_grid = (args.gamma_start, args.gamma_stop, args.gamma_count)
    if None in gamma_grid and gamma_grid != (None, None, None):
        raise _UsageError("--gamma-start, --gamma-stop and --gamma-count go together")
    if args.derivative and args.gamma_count is not None:
        raise _UsageError("--derivative applies to g, not to a gamma grid of kappa")
    if args.beta_count < 1 or (args.gamma_count is not None and args.gamma_count < 1):
        raise _UsageError("empty sweep range")
    params = validate(args.alpha, args.rho)
    tol = _tolerance(args)
    method = _method(args)
    betas = _linspace(args.beta_start, args.beta_stop, args.beta_count)
    gammas = (None if args.gamma_count is None
              else _linspace(args.gamma_start, args.gamma_stop, args.gamma_count))

    def one(b: float, gm: float | None) -> OutputRecord:
        try:
            if gm is None:
                fn = gprime_any_beta if args.derivative else g_any_beta
                res = fn(params, b, method, tol)
            else:
                res = kappa(params, KappaQuery(gm, b), method, tol)
            return _ok_record(args, b, gm, res)
        except _INVALID + _NOCONV as exc:
            return _failure_record(args, _exit_code(exc), b, gm)

    records = [one(b, gm) for b in betas for gm in gammas or (None,)]
    _emit(records, args.format)
    if any(r.status == "invalid_params" for r in records):
        return 1
    if any(r.status == "convergence_failure" for r in records):
        return 2
    return 0


_COLUMNS = ("quadrature", "series", "doney")  # compare's row order


def _run_plan(params: StableParams, beta: float, derivative: bool,
              tol: Tolerance):
    """Every candidate of the plan: (name -> EvalResult) plus (name -> skip
    reason).  A candidate that refuses or does not converge is skipped; the
    last failure is raised when none converges."""
    results: dict[str, EvalResult] = {}
    skipped: dict[str, str] = {}
    failure = None
    for step in plan(params, beta, derivative, MethodChoice.AUTO, tol):
        name = step.method.value
        if step.run is None:
            skipped[name] = step.reason
            continue
        try:
            results[name] = step.run()
        except _NOCONV as exc:
            skipped[name] = f"skipped: {exc}"
            failure = exc
    if not results:
        raise failure
    return ({n: results[n] for n in _COLUMNS if n in results},
            {n: skipped[n] for n in _COLUMNS if n in skipped})


def _pairwise(results: dict[str, EvalResult]) -> list[tuple[str, float, float]]:
    """(pair, |difference|, sum of the two stated bounds) for every pair of
    results; the pair agrees up to ``_agreement_threshold`` of that sum."""
    names = list(results)
    return [(f"{a}-{b}", abs(results[a].value - results[b].value),
             results[a].abs_error_bound + results[b].abs_error_bound)
            for i, a in enumerate(names) for b in names[i + 1:]]


def _agreement_threshold(bound_sum: float) -> float:
    """The largest difference at which two results still agree."""
    return bound_sum + 1e-15


def cmd_compare(args) -> int:
    params = validate(args.alpha, args.rho)
    results, skipped = _run_plan(params, args.beta, args.derivative, _tolerance(args))

    deltas = _pairwise(results)
    max_delta = 0.0
    worst_pair = ""
    for pair, d, _ in deltas:
        if d > max_delta:
            max_delta = d
            worst_pair = pair
    agree = all(d <= _agreement_threshold(bs) for _, d, bs in deltas)

    if args.format == "json":
        payload = {
            "alpha": args.alpha, "rho": args.rho, "beta": args.beta,
            "derivative": args.derivative,
            "methods": {
                name: {"value": res.value, "abs_error_bound": res.abs_error_bound,
                       "terms_or_nodes_used": res.terms_or_nodes_used}
                for name, res in results.items()
            },
            "skipped": skipped,
            "pairwise_delta": {pair: d for pair, d, _ in deltas},
            "max_delta": max_delta,
            "worst_pair": worst_pair,
            "agree": agree,
        }
        print(json.dumps(payload))
    else:
        target = "g'" if args.derivative else "g"
        print(f"compare {target} at alpha={args.alpha!r} rho={args.rho!r} "
              f"beta={args.beta!r}")
        for name, res in results.items():
            print(f"  {name:<11} value={res.value!r} bound={res.abs_error_bound:.3e} "
                  f"n={res.terms_or_nodes_used}")
        for name, reason in skipped.items():
            print(f"  {name:<11} {reason}")
        for pair, d, bs in deltas:
            print(f"  |{pair}| = {d:.3e} (bound sum {bs:.3e})")
        print(f"  max delta = {max_delta:.3e} -> {'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 2


def cmd_classify(args) -> int:
    tol = _tolerance(args)
    aclass = classify(args.alpha)  # checks alpha's range before it is expanded
    cf = cf_expand(args.alpha)
    if not (math.isfinite(args.beta) and args.beta > 0.0):
        raise OutOfRangeError(f"beta must be positive, got {args.beta!r}")
    recommended = None
    if args.rho is not None:
        try:
            recommended = g_any_beta(StableParams(args.alpha, args.rho), args.beta,
                                     MethodChoice.AUTO, tol).method.value
        except _INVALID + _NOCONV:
            pass  # no recommendation for an inadmissible rho or beta, or where none converges

    payload = {
        "alpha": args.alpha,
        "quotients": list(cf.quotients),
        "convergents": [[p, q] for p, q in cf.convergents],
        "exact": cf.exact,
        "kind": aclass.kind.value,
        "p": aclass.p,
        "q": aclass.q,
        "conditioning_beta": args.beta,
        "recommended_method": recommended,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return 0


# (alpha, rho, beta, derivative): points where the plan runs at least two
# methods.  The series meets quadrature for g and g': generic at sqrt 2,
# with its near-resonant terms paired at 3/2, split at the rationals 4/5 and
# 1/2.  Doney meets both for g and g' at 4/5.  The last point is planned at
# 1/beta and reflected.
_METHOD_POINTS = (
    (math.sqrt(2.0), 0.5, 0.3, False),
    (math.sqrt(2.0), 0.5, 0.3, True),
    (1.50000001, 0.5, 0.3, False),
    (1.50000001, 0.5, 0.3, True),
    (0.8, 0.25, 0.3, False),
    (0.8, 0.25, 0.3, True),
    (0.5, 0.3, 0.3, False),
    (0.5, 0.3, 0.3, True),
    (0.8, 0.25, 2.5, True),
)
# g' against the central difference of g: at h = 1e-4 its truncation
# h^2 |g'''| / 6 is 3.5e-9, and g's two values, each within its bound of at
# most 1e-13, add at most 1e-9 over 2h.
_DIFF_STEP = 1e-4
_DIFF_TOL = 1e-8


def _methods_checks():
    """The methods check each other: every pair the plan runs agrees as in
    ``compare``, and g' agrees with a central difference of g."""
    tol = Tolerance()
    for alpha, rho, beta, derivative in _METHOD_POINTS:
        results, _ = _run_plan(StableParams(alpha, rho), beta, derivative, tol)
        target = "g'" if derivative else "g"
        for pair, d, bs in _pairwise(results):
            yield (f"{target} alpha={alpha:.4f} rho={rho!r} beta={beta!r} {pair}",
                   d, _agreement_threshold(bs))
    params, beta, h = StableParams(math.sqrt(2.0), 0.5), 0.3, _DIFF_STEP
    fine = Tolerance(abs_tol=1e-13)
    slope = (g_quad(params, beta + h, fine).value
             - g_quad(params, beta - h, fine).value) / (2.0 * h)
    err = abs(gprime_series(params, beta, tol).value - slope)
    yield (f"g' alpha={params.alpha:.4f} rho={params.rho!r} beta={beta!r} series "
           f"vs central difference of quadrature g, h={h:.0e}", err, _DIFF_TOL)


def _reflection_checks():
    for alpha, rho in ((math.sqrt(2.0), 0.5), (0.8, 0.25)):
        params = StableParams(alpha, rho)
        worst = 0.0
        for beta in (1.5, 2.0, 5.0):
            big = g_quad(params, beta, Tolerance(abs_tol=1e-11))
            small = g_quad(params, 1.0 / beta, Tolerance(abs_tol=1e-11))
            resid = abs(big.value - small.value - alpha * rho * math.log(beta))
            worst = max(worst, resid)
        yield f"alpha={alpha:.4f}", worst, 1e-9


def _resonance_checks():
    rho, beta = 0.5, 0.4
    ref = gprime_series(StableParams(0.5, rho), beta).value
    errs = []
    for j in (10, 40):
        aj = 0.5 + math.sqrt(2.0) / j
        rep = gprime_series(StableParams(aj, rho), beta, Tolerance(abs_tol=1e-11))
        errs.append(abs(rep.value - ref))
    yield "resonant limit err(40) < err(10)", errs[1] / errs[0], 1.0
    # 1e-9 from the resonance the series pairs its terms near 1/2
    params = StableParams(0.5 + 1e-9, rho)
    paired = gprime_series(params, beta)
    quad = gprime_quad(params, beta)
    yield ("paired series at alpha=1/2+1e-9 vs quadrature", abs(paired.value - quad.value),
           _agreement_threshold(paired.tail_bound + paired.noise_bound
                                + quad.abs_error_bound))


# group -> its checks, each (name, error, threshold), in output order
_SELFTEST_GROUPS = {
    "methods": _methods_checks,
    "reflection": _reflection_checks,
    "resonance": _resonance_checks,
}


def cmd_selftest(args) -> int:
    failures = 0
    ran = 0
    for group, checks in _SELFTEST_GROUPS.items():
        if args.only and group not in args.only:
            continue
        for name, err, thr in checks():
            if args.tol is not None:
                thr = args.tol
            ran += 1
            ok = err <= thr
            if not ok:
                failures += 1
            print(f"{'PASS' if ok else 'FAIL'} {group}/{name}: err={err:.3e} tol={thr:.3e}")
    print(f"selftest: {ran - failures}/{ran} passed")
    return 0 if failures == 0 and ran > 0 else 2


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="stablekappa",
                     description="Ladder-process Laplace exponent of stable "
                                 "processes by cross-validating methods")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate g (or g') at one point")
    _add_common(p, beta=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("kappa", help="evaluate kappa(gamma, beta) or the exit transform")
    _add_common(p, derivative=False)
    p.add_argument("--beta", type=float, default=None, help="space argument")
    p.add_argument("--gamma", type=float, default=None,
                   help="time argument (default: 1)")
    p.add_argument("--transform", type=float, nargs=3, default=None,
                   metavar=("ETA", "GAMMA", "THETA"),
                   help="evaluate 1/((theta+gamma) kappa(eta,gamma) kappa(eta,theta))")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("table", help="sweep beta (and optionally gamma)")
    _add_common(p)
    p.add_argument("--beta-start", type=float, required=True)
    p.add_argument("--beta-stop", type=float, required=True)
    p.add_argument("--beta-count", type=int, required=True)
    p.add_argument("--gamma-start", type=float, default=None)
    p.add_argument("--gamma-stop", type=float, default=None)
    p.add_argument("--gamma-count", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility; rows are evaluated sequentially")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("compare", help="run every applicable method at one point")
    _add_common(p, beta=True, method=False, csv=False)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("classify", help="continued fraction and conditioning of alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--rho", type=float, default=None,
                   help="optional, enables the method recommendation")
    p.add_argument("--beta", type=float, default=0.9,
                   help="beta of the method recommendation")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-terms", type=int, default=10000, dest="max_terms")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("selftest", help="run the method cross-check self-test suite")
    p.add_argument("--tol", type=float, default=None,
                   help="override every check threshold")
    p.add_argument("--only", action="append", default=None,
                   choices=list(_SELFTEST_GROUPS),
                   help="restrict to one or more check groups")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else 1
    except _INVALID + _NOCONV as exc:
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from stablekappa import MethodChoice, g_any_beta, validate
from stablekappa.cli import _SELFTEST_GROUPS, _build_parser, main

import store

SQRT2 = repr(math.sqrt(2.0))
# the module, which the package's kappa function shadows as an attribute
kappa_module = importlib.import_module("stablekappa.kappa")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_doney_json(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "0.8", "--rho", "0.25",
                       "--beta", "0.5", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "doney"
    assert rec["status"] == "ok"
    assert abs(rec["value"] - 0.1609887537517336) < 1e-10
    assert list(rec) == ["alpha", "rho", "beta", "gamma", "method", "value",
                         "abs_error_bound", "terms_or_nodes_used", "status"]


def test_eval_invalid_rho_exit_1(capsys):
    code, out, err = run(capsys, "eval", "--alpha", "0.5", "--rho", "1.0",
                         "--beta", "0.5", "--format", "json")
    assert code == 1
    assert json.loads(out)["status"] == "invalid_params"
    assert "rho" in err


@pytest.mark.parametrize("argv", [
    ("eval", "--rho", "0.5", "--beta", "0.3"),
    ("table", "--rho", "0.5", "--beta-start", "0.3", "--beta-stop", "0.5",
     "--beta-count", "2"),
    ("kappa", "--rho", "0.5", "--beta", "0.3", "--gamma", "2.0"),
    ("compare", "--rho", "0.5", "--beta", "0.3"),
    ("classify", "--rho", "0.5"),
], ids=lambda argv: argv[0])
def test_commands_refuse_an_infinite_tolerance(capsys, argv):
    # at tol inf every sum would stop after its first terms and say ok
    code, out, err = run(capsys, *argv, "--alpha", SQRT2, "--tol", "inf")
    assert code == 1
    assert "status=ok" not in out
    assert err.startswith("error: abs_tol must be finite and positive")


def test_eval_refuses_a_bound_above_the_tolerance(capsys):
    # every method's bound here exceeds 1e-16; quadrature, the last step,
    # returns a bound of 1.1e-15, mostly the rounding of its nodes, which
    # dispatch refuses: its message goes to stderr as it is, and the record
    # says so
    code, out, err = run(capsys, "eval", "--alpha", SQRT2, "--rho", "0.5",
                         "--beta", "0.3", "--tol", "1e-16")
    assert code == 2
    assert err == "error: quadrature: error bound 1.062e-15 above the tolerance 1.000e-16\n"
    assert "status=convergence_failure" in out


def test_eval_series_vs_quadrature(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", SQRT2, "--rho", "0.5",
                       "--beta", "0.3", "--method", "series", "--format", "json")
    assert code == 0
    v1 = json.loads(out)["value"]
    code, out, _ = run(capsys, "eval", "--alpha", SQRT2, "--rho", "0.5",
                       "--beta", "0.3", "--method", "quadrature", "--format", "json")
    assert code == 0
    v2 = json.loads(out)["value"]
    assert abs(v1 - v2) < 1e-8


def test_eval_derivative_flag(capsys):
    code, out, _ = run(capsys, "eval", "--alpha", "1.5", "--rho",
                       repr(2.0 / 3.0), "--beta", "0.5", "--derivative",
                       "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["value"] - 2.0 / 3.0) < 1e-9


def test_kappa_zero_beta_power(capsys):
    code, out, _ = run(capsys, "kappa", "--alpha", "0.8", "--rho", "0.25",
                       "--gamma", "2.0", "--beta", "0", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 2.0 ** 0.25


def test_kappa_transform_symmetry_byte_identical(capsys):
    code, out1, _ = run(capsys, "kappa", "--alpha", "1.0", "--rho", "0.5",
                        "--transform", "1.0", "0.3", "2.0", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "kappa", "--alpha", "1.0", "--rho", "0.5",
                        "--transform", "1.0", "2.0", "0.3", "--format", "json")
    assert code == 0
    assert json.loads(out1)["value"] == json.loads(out2)["value"]


def test_table_nine_rows_monotone(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "0.8", "--rho", "0.25",
                       "--beta-start", "0.1", "--beta-stop", "0.9",
                       "--beta-count", "9", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 9
    values = [r["value"] for r in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_table_empty_range_exit_1(capsys):
    code, _, err = run(capsys, "table", "--alpha", "0.8", "--rho", "0.25",
                       "--beta-start", "0.1", "--beta-stop", "0.9",
                       "--beta-count", "0")
    assert code == 1
    assert "empty" in err


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "0.8", "--rho", "0.25",
                       "--beta-start", "0.2", "--beta-stop", "0.4",
                       "--beta-count", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("alpha,rho,beta,gamma,method,value,"
                        "abs_error_bound,terms_or_nodes_used,status")
    assert len(lines) == 4


def test_table_parallel_byte_identical(capsys):
    args = ["table", "--alpha", SQRT2, "--rho", "0.5", "--beta-start", "0.1",
            "--beta-stop", "2.0", "--beta-count", "8", "--format", "json"]
    code, serial, _ = run(capsys, *args)
    assert code == 0
    code, parallel, _ = run(capsys, *args, "--jobs", "4")
    assert code == 0
    assert serial == parallel


def test_table_with_gamma_sweep(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "0.8", "--rho", "0.25",
                       "--beta-start", "0.2", "--beta-stop", "0.4",
                       "--beta-count", "2", "--gamma-start", "1.0",
                       "--gamma-stop", "2.0", "--gamma-count", "2",
                       "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert len(rows) == 4
    assert [(r["beta"], r["gamma"]) for r in rows] == [
        (0.2, 1.0), (0.2, 2.0), (0.4, 1.0), (0.4, 2.0)]


def test_compare_well_conditioned_exit_0(capsys):
    code, out, _ = run(capsys, "compare", "--alpha", SQRT2, "--rho", "0.5",
                       "--beta", "0.3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert set(payload["methods"]) == {"quadrature", "series"}
    assert "doney" in payload["skipped"]


def test_compare_rational_derivative_has_rational_column(capsys):
    code, out, _ = run(capsys, "compare", "--alpha", "0.5", "--rho", "0.3",
                       "--beta", "0.4", "--derivative", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # at rational alpha the series column holds the split at p/q
    assert list(payload["methods"]) == ["quadrature", "series"]
    assert list(payload["skipped"]) == ["doney"]
    code, out, _ = run(capsys, "compare", "--alpha", "0.5", "--rho", "0.3",
                       "--beta", "0.4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["methods"]) == ["quadrature", "series"]
    assert payload["agree"] is True


def test_compare_agrees_where_adaptive_quadrature_missed_its_estimate(capsys):
    # adaptive Gauss-Kronrod was 4.75e-10 off here with an estimate of
    # 4.27e-11, so the methods disagreed; the line is within its bound
    code, out, _ = run(capsys, "compare", "--alpha", "1.50000001", "--rho", "0.5",
                       "--beta", "0.7523437600621398", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert list(payload["methods"]) == ["quadrature", "series"]


def test_compare_near_rational_reports_skip(capsys):
    # 1e-12 from 1/2 the series pairs its near-resonant terms and runs
    # beside quadrature; with a budget of 100 terms the pairs do not fit
    # either, and the skip gives the paired split's refusal, while the 81
    # nodes of quadrature do
    argv = ("compare", "--alpha", "0.500000000001", "--rho", "0.3", "--beta", "0.9",
            "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload["methods"]) == ["quadrature", "series"]
    assert payload["agree"] is True
    code, out, _ = run(capsys, *argv, "--max-terms", "100")
    assert code == 0
    assert json.loads(out)["skipped"]["series"] == (
        "skipped: split at 1/2: a sum does not stop within 100 terms")


def test_classify_rational(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "rational"
    assert (payload["p"], payload["q"]) == (1, 2)


def test_classify_sqrt2(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", SQRT2, "--rho", "0.5",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "irrational"
    assert payload["convergents"][:4] == [[1, 1], [3, 2], [7, 5], [17, 12]]
    # at the default beta 0.9 the line runs first; below its edge the series
    assert payload["recommended_method"] == "quadrature"
    _, out, _ = run(capsys, "classify", "--alpha", SQRT2, "--rho", "0.5", "--beta", "0.3",
                    "--format", "json")
    assert json.loads(out)["recommended_method"] == "series"


def test_classify_near_rational_ill(capsys):
    # 1e-12 from 1/2 classify prints alpha's profile, irrational with its
    # expansion, whatever the term budget: the budget, with beta and the
    # tolerance, only sets the point of the method recommendation
    argv = ("classify", "--alpha", "0.500000000001", "--beta", "0.9", "--format", "json")
    for budget in ((), ("--max-terms", "50")):
        code, out, _ = run(capsys, *argv, *budget)
        assert code == 0
        payload = json.loads(out)
        assert (payload["kind"], payload["p"], payload["q"]) == ("irrational", None, None)
        assert payload["convergents"] == [[0, 1], [1, 1], [1, 2], [250005530552, 500011061103]]


@pytest.mark.parametrize("beta", ["nan", "inf", "-1", "0"])
def test_classify_refuses_a_beta_that_is_not_finite_and_positive(capsys, beta):
    # library classify reads no beta, so the CLI refuses one at which it
    # could recommend no method
    code, out, err = run(capsys, "classify", "--alpha", "0.500000000001", "--beta", beta)
    assert (code, out) == (1, "")
    assert err.startswith("error: beta must be positive")


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1", "3"])
def test_classify_refuses_an_alpha_out_of_range(capsys, alpha):
    # the range is checked before the continued fraction is expanded, so the
    # message names alpha's range, not the expansion's domain
    code, out, err = run(capsys, "classify", f"--alpha={alpha}")
    assert (code, out) == (1, "")
    assert err.startswith("error: alpha must lie in (0, 2]")


def test_selftest_default_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out


def test_selftest_unreachable_tol_fails(capsys):
    code, out, _ = run(capsys, "selftest", "--tol", "1e-30", "--only", "methods")
    assert code == 2
    assert "FAIL" in out


def test_selftest_tol_zero_is_an_override(capsys):
    code, out, _ = run(capsys, "selftest", "--tol", "0", "--only", "methods")
    assert code == 2
    assert "FAIL" in out


def test_selftest_only_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "methods")
    assert code == 0
    assert "reflection/" not in out
    assert "methods/" in out


def _selftest_lines(capsys, group):
    code, out, _ = run(capsys, "selftest", "--only", group)
    lines = out.splitlines()
    assert lines[-1].startswith("selftest: ")
    return code, lines[:-1]


@pytest.mark.parametrize("group", list(_SELFTEST_GROUPS))
def test_selftest_every_group_runs_a_check(capsys, group):
    code, lines = _selftest_lines(capsys, group)
    assert code == 0
    assert lines
    assert all(line.startswith(f"PASS {group}/") for line in lines)


def test_selftest_methods_lines_compare_two_methods(capsys):
    _, lines = _selftest_lines(capsys, "methods")
    for line in lines:
        name = line.split(":")[0]
        assert sum(m.value in name for m in MethodChoice) >= 2, line


def test_selftest_methods_catches_a_perturbed_evaluator(capsys, monkeypatch):
    g_doney = kappa_module.g_doney
    monkeypatch.setattr(kappa_module, "g_doney",
                        lambda *args: g_doney(*args) + 1e-6)
    code, lines = _selftest_lines(capsys, "methods")
    assert code == 2
    # the closed form covers g and g': checks of both fail, each one with Doney
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert {line.split()[1] for line in failed} == {"methods/g", "methods/g'"}
    assert all(line.startswith("FAIL ") and "doney" in line for line in failed)


def test_byte_determinism_repeated_runs(capsys):
    args = ["eval", "--alpha", SQRT2, "--rho", "0.5", "--beta", "0.3",
            "--format", "json"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    args = ["compare", "--alpha", SQRT2, "--rho", "0.5", "--beta", "0.3"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_usage_error_exit_1(capsys):
    code, _, err = run(capsys, "eval", "--alpha", "0.8")
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["kappa", "--alpha", "0.8", "--rho", "0.25", "--beta", "0.5", "--derivative"],
    ["compare", "--alpha", "0.8", "--rho", "0.25", "--beta", "0.5", "--method", "series"],
    ["compare", "--alpha", "0.8", "--rho", "0.25", "--beta", "0.5", "--format", "csv"],
    ["classify", "--alpha", "0.8", "--format", "csv"],
])
def test_flag_the_command_does_not_read_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "usage error" in err


@pytest.mark.parametrize("gamma", [
    ["--gamma-count", "2"],
    ["--gamma-start", "1.0", "--gamma-stop", "2.0"],
    ["--gamma-start", "1.0", "--gamma-stop", "2.0", "--gamma-count", "2", "--derivative"],
])
def test_table_gamma_grid_usage_errors(capsys, gamma):
    code, out, err = run(capsys, "table", "--alpha", "0.8", "--rho", "0.25",
                         "--beta-start", "0.2", "--beta-stop", "0.4",
                         "--beta-count", "2", *gamma)
    assert (code, out) == (1, "")
    assert "usage error" in err


@pytest.mark.parametrize("extra", [
    ["--beta", "7", "--gamma", "9"],
    ["--beta", "7"],
    ["--gamma", "9"],
    ["--gamma", "1.0"],
])
def test_kappa_transform_with_beta_or_gamma_is_a_usage_error(capsys, extra):
    code, out, err = run(capsys, "kappa", "--alpha", "0.8", "--rho", "0.25",
                         "--transform", "1.0", "0.3", "2.5", *extra)
    assert (code, out) == (1, "")
    assert "usage error" in err


def test_kappa_transform_failure_records_its_arguments(capsys):
    code, out, err = run(capsys, "kappa", "--alpha", "0.8", "--rho", "0.25",
                         "--transform", "-1.0", "0.3", "2.5", "--format", "json")
    assert code == 1
    rec = json.loads(out)
    assert (rec["beta"], rec["gamma"], rec["status"]) == (2.5, 0.3, "invalid_params")
    assert "eta" in err


def test_kappa_at_rational_alpha_with_a_huge_argument_of_g(capsys):
    # g's argument beta gamma^(-1/alpha) is 4.4e9, planned at its inverse;
    # adaptive quadrature of g failed there, the series split at 3/10 does not
    alpha, rho, gamma, beta = HUGE_ARGUMENT
    code, out, _ = run(capsys, "kappa", "--alpha", repr(alpha), "--rho", repr(rho),
                       "--gamma", repr(gamma), "--beta", repr(beta), "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["method"] == "series"
    with mpmath.workdps(30):
        g, err = store.oracle(alpha, rho, _huge_argument(), False)
        ref = mpmath.mpf(gamma) ** rho * mpmath.exp(g)
        assert abs(rec["value"] - ref) <= rec["abs_error_bound"] + ref * err


HUGE_ARGUMENT = (0.3, 0.5, 0.01, 952.7247059096829)


def _huge_argument():
    """beta gamma^(-1/alpha) of HUGE_ARGUMENT, rounded to a float from 30 digits."""
    alpha, _, gamma, beta = map(mpmath.mpf, HUGE_ARGUMENT)
    with mpmath.workdps(30):
        return float(beta * gamma ** (-1 / alpha))


def test_kappa_gamma_defaults_to_one(capsys):
    argv = ["kappa", "--alpha", "0.8", "--rho", "0.25", "--beta", "0.5",
            "--format", "json"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["gamma"] == 1.0
    assert run(capsys, *argv, "--gamma", "1.0") == (0, out, "")


# "rational" named the series split at rational alpha, now part of "series"
@pytest.mark.parametrize("method", ["magic", "rational"])
def test_unknown_method_exit_1(capsys, method):
    code, _, err = run(capsys, "eval", "--alpha", "0.8", "--rho", "0.25",
                       "--beta", "0.5", "--method", method)
    assert code == 1
    assert err.startswith("usage error: argument --method: invalid choice")
    with pytest.raises(ValueError):
        MethodChoice(method)


def test_compare_band_skips_quadrature_reruns(capsys):
    code, out, _ = run(capsys, "compare", "--alpha", "0.8", "--rho", "0.25",
                       "--beta", "0.97", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # quadrature runs once, first and alone, at rational alpha too
    assert list(payload["methods"]) == ["quadrature"]
    assert payload["skipped"]["doney"] == payload["skipped"]["series"] == (
        "skipped: 0.95 < beta < 1.05, where quadrature runs")
    code, out, _ = run(capsys, "compare", "--alpha", SQRT2, "--rho", "0.5",
                       "--beta", "0.97", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload["methods"]) == ["quadrature"]
    assert payload["skipped"]["series"].startswith("skipped: 0.95 < beta < 1.05")


def test_compare_skips_rational_that_does_not_converge(capsys):
    # the budget is shared: the 61 nodes of quadrature fit in 100, the
    # terms of the split at 4/5 do not
    code, out, _ = run(capsys, "compare", "--derivative", "--alpha", "0.8", "--rho", "0.3",
                       "--beta", "0.9", "--max-terms", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["skipped"]["series"] == (
        "skipped: split at 4/5: a sum does not stop within 100 terms")
    assert list(payload["methods"]) == ["quadrature"]
    assert payload["agree"] is True


def test_compare_names_why_it_skipped_a_candidate(capsys):
    # the Doney closed form at tol 1e-15 runs, and dispatch refuses its
    # bound: the skip gives the refusal, bound and tolerance
    code, out, _ = run(capsys, "compare", "--alpha", "0.8", "--rho", "0.25", "--beta", "0.3",
                       "--tol", "1e-15", "--format", "json")
    assert code == 0
    assert json.loads(out)["skipped"]["doney"] == (
        "skipped: doney: error bound 3.994e-15 above the tolerance 1.000e-15")


@pytest.mark.parametrize("alpha, rho", [(SQRT2, "0.5"), ("0.8", "0.25"),
                                        ("0.5", "0.3"), ("0.500000000001", "0.3")])
@pytest.mark.parametrize("beta", ["0.3", "0.9", "0.97", "2.5"])
def test_classify_recommends_what_dispatch_runs(capsys, alpha, rho, beta):
    code, out, _ = run(capsys, "classify", "--alpha", alpha, "--rho", rho,
                       "--beta", beta, "--format", "json")
    assert code == 0
    ran = g_any_beta(validate(float(alpha), float(rho)), float(beta),
                     MethodChoice.AUTO)
    assert json.loads(out)["recommended_method"] == ran.method.value


def test_classify_without_rho_recommends_nothing(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", SQRT2, "--format", "json")
    assert code == 0
    assert json.loads(out)["recommended_method"] is None


def test_repeated_main_calls_match_fresh_processes(capsys):
    calls = [["eval", "--alpha", SQRT2, "--rho", "0.5", "--beta", "0.3"],
             ["selftest", "--only", "methods"],
             ["eval", "--alpha", "0.8", "--rho", "0.25", "--beta", "2.5",
              "--format", "json"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for argv in calls:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run([sys.executable, "-m", "stablekappa", *argv],
                               capture_output=True, text=True, check=False,
                               env={"PYTHONPATH": src})
        assert (code, out) == (fresh.returncode, fresh.stdout)


def test_help_from_the_reused_parser_is_unchanged(capsys):
    for argv in (["--help"], ["table", "--help"]):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
    assert _build_parser() is _build_parser()
    code, out, _ = run(capsys, "--help")
    assert out == _build_parser.__wrapped__().format_help()


def test_eval_at_a_dyadic_alpha_with_a_zero_divisor_floor(capsys):
    # 2^-30 has the divisors sin(m pi/alpha) = 0: the series needs more
    # terms than its budget and refuses, and quadrature evaluates g there
    code, out, err = run(capsys, "eval", "--alpha", "9.313225746154785e-10",
                         "--rho", "0.5", "--beta", "0.3", "--format", "json")
    assert (code, err) == (0, "")
    rec = json.loads(out)
    assert (rec["method"], rec["status"]) == ("quadrature", "ok")
    ref, ref_err = store.oracle(2.0 ** -30, 0.5, 0.3, False)
    assert abs(rec["value"] - ref) <= rec["abs_error_bound"] + ref_err


def test_eval_where_a_series_term_overflows(capsys):
    # beta^(0.01 k - 1) at beta 1e-320 overflows a float: the series
    # refuses, and quadrature needs more nodes than the budget, as at beta
    # 1e-310
    for beta in ("1e-310", "1e-320"):
        code, out, err = run(capsys, "eval", "--alpha", "0.01", "--rho", "0.5",
                             "--beta", beta, "--derivative", "--format", "json")
        assert code == 2, beta
        assert json.loads(out)["status"] == "convergence_failure"
        assert err.startswith("error: quadrature: the line needs more than 10000 steps")


ORACLE_POINTS = [(0.3, 0.5, _huge_argument(), False), (2.0 ** -30, 0.5, 0.3, False)]

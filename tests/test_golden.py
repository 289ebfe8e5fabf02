"""Golden CLI outputs: stdout and exit code of fixed command lines, byte for byte.

Each command has one file in the store tests/pins/golden/ holding, per
case, the command line, its exit code and its stdout.
"""

import contextlib
import io
import math

import pytest

from stablekappa.cli import main

import store

# (alpha, rho) per alpha kind
ALPHAS = (
    (repr(math.sqrt(2.0)), "0.5"),     # irrational
    ("0.8", "0.25"),                   # Doney case (k, l) = (1, 1)
    ("0.5", "0.3"),                    # rational
    ("0.500000000001", "0.3"),         # ill-conditioned
)
BETAS = ("0.3", "0.97", "2.5")
DERIVATIVE = ((), ("--derivative",))
FORCED = ("quadrature", "series", "doney")
# a tolerance and term budget other than the defaults
BUDGET = ("--tol", "1e-12", "--max-terms", "20000")


def _cases() -> dict[str, list[list[str]]]:
    cases: dict[str, list[list[str]]] = {c: [] for c in (
        "eval", "table", "kappa", "compare", "classify", "selftest")}
    for alpha, rho in ALPHAS:
        ar = ["--alpha", alpha, "--rho", rho]
        for d in DERIVATIVE:
            for beta in BETAS:
                cases["eval"].append(["eval", *ar, "--beta", beta, *d])
                for fmt in ("text", "json"):
                    cases["compare"].append(["compare", *ar, "--beta", beta,
                                             "--format", fmt, *d])
            for beta in ("0.3", "2.5"):
                for method in FORCED:
                    cases["eval"].append(["eval", *ar, "--beta", beta,
                                          "--method", method, *d])
            cases["table"].append(["table", *ar, "--beta-start", "0.3",
                                   "--beta-stop", "2.5", "--beta-count", "5",
                                   "--format", "csv", *d])
        cases["table"].append(["table", *ar, "--beta-start", "0.3",
                               "--beta-stop", "2.5", "--beta-count", "3",
                               "--gamma-start", "0.5", "--gamma-stop", "2.0",
                               "--gamma-count", "2", "--format", "json"])
        for beta in BETAS + ("0",):
            cases["kappa"].append(["kappa", *ar, "--gamma", "2.0", "--beta", beta,
                                   "--format", "json"])
        cases["kappa"].append(["kappa", *ar, "--transform", "1.0", "0.3", "2.5",
                               "--format", "json"])
        for beta in BETAS + ("0.9",):
            cases["classify"].append(["classify", "--alpha", alpha, "--beta", beta])
            cases["classify"].append(["classify", "--alpha", alpha, "--rho", rho,
                                      "--beta", beta, "--format", "json"])
    cases["compare"].append(["compare", "--alpha", "0.8", "--rho", "0.3",
                             "--beta", "0.998", "--derivative"])
    ar = ["--alpha", ALPHAS[0][0], "--rho", ALPHAS[0][1]]
    cases["eval"].append(["eval", *ar, "--beta", "0.3", *BUDGET])
    cases["table"].append(["table", *ar, "--beta-start", "0.3", "--beta-stop", "2.5",
                           "--beta-count", "5", "--format", "csv", *BUDGET])
    cases["compare"].append(["compare", *ar, "--beta", "0.3", *BUDGET])
    # the series at high beta, where classify projects the exact noise sum
    for alpha, rho in ((repr(math.pi / 2.0), "0.45"),
                       (repr(0.5 + math.sqrt(2.0) / 40.0), "0.5")):
        for d in DERIVATIVE:
            cases["table"].append(["table", "--alpha", alpha, "--rho", rho,
                                   "--beta-start", "0.5", "--beta-stop", "0.95",
                                   "--beta-count", "40", "--format", "csv", *d])
    cases["selftest"] += [["selftest"], ["selftest", "--only", "methods"]]
    return cases


def render(command: str) -> str:
    blocks = []
    for argv in _cases()[command]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        blocks.append(f"$ stablekappa {' '.join(argv)}\nexit {code}\n{out.getvalue()}")
    return "\n".join(blocks)


def pins() -> dict:
    return {command: render(command) for command in _cases()}


@pytest.mark.parametrize("command", list(_cases()))
def test_golden_cli_output(command):
    assert render(command) == store.load("golden")[command]

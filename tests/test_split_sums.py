"""The split series' sums, bit for bit.

``series._split`` sums each nonresonant family with ``math.fsum``, the
pairs likewise, and the |terms| left to right for its noise bound, which
for g' adds |log beta| times |eps_k t_k| over the terms whose exponent
alpha k - 1 lies below -1/2, eps_k its rounding error.  Here
every term is recomputed one at a time off the same beta-free tables and
the same cut, and the value, counts, tail and noise must agree to the bit:
however the split builds and sums its terms, it gives these floats.
"""

import math
from fractions import Fraction

import pytest

from stablekappa import Tolerance, validate
from stablekappa.accurate import EPS
from stablekappa.diophantine import AlphaKind, _profile
from stablekappa.series import _cut, _plan, _split

SQRT2 = math.sqrt(2.0)
BETAS = (1e-6, 1e-3, 0.01, 0.1, 0.3, 0.6, 0.9)

# (alpha, rho, form): "rational" splits at alpha = p/q, "own" is the generic
# sum at the float's own ratio, probed at its pairing convergent, and
# "paired" the split at that convergent
CASES = [
    (1.0, 0.5, "rational"),       # p/q = 1/1: both families are empty
    (0.3, 0.5, "rational"),
    (1.9, 0.5, "rational"),
    (1.50000001, 0.5, "paired"),  # paired at 3/2
    (SQRT2, 0.5, "own"),
]


def _plan_of(alpha, rho, form, derivative, tol=Tolerance()):
    """The plan, and the probe, that the series uses in this form."""
    bounds = (tol.abs_tol, tol.max_terms)
    profile, pair = _profile(alpha)
    if form == "rational":
        assert profile.kind is AlphaKind.RATIONAL
        ratio = profile.p, profile.q
        return _plan(*ratio, *ratio, rho, derivative, *bounds), None
    ratio = alpha.as_integer_ratio()
    if form == "own":
        return _plan(*ratio, *ratio, rho, derivative, *bounds, True), pair
    return _plan(*ratio, *pair, rho, derivative, *bounds), None


def _slips(family, count, derivative):
    """(index, exact exponent less the float) of the g' terms of ``family``
    among its first ``count`` whose exponent step k - 1 lies below -1/2."""
    if not derivative:
        return []
    step = Fraction(family.step)
    ks = [k for k in range(1, 2 * count + 2) if k % family.skip][:count]
    return [(i, float(step * k - 1 - Fraction(family.step * k - 1.0)))
            for i, k in enumerate(ks) if step * k < Fraction(1, 2)]


def _recomputed(plan, beta):
    """The fields of ``_split``'s report, each term computed on its own."""
    log_beta = math.log(beta)
    stop1, stop2, tail = _cut(beta, log_beta, plan.ratio, plan.lam, plan.derivative,
                              plan.budget, plan.limit)
    n = stop1 // plan.p
    counts = stop1 - n, stop2 - stop2 // plan.q
    sums, terms, slipped = [], [], 0.0
    for family, count in zip(plan.families, counts):
        exps, coefs = family.tables[plan.derivative]
        assert count <= len(coefs)
        family_terms = [beta ** exps[i] * coefs[i] for i in range(count)]
        for i, slip in _slips(family, count, plan.derivative):
            slipped += abs(slip * family_terms[i])
        sums.append(math.fsum(family_terms))
        terms += family_terms
    exps, xs, ys = plan.pairs
    assert n <= len(xs)
    pair_terms = []
    for k in range(1, n + 1):
        delta = k * plan.delta1
        growth = math.expm1(delta * log_beta) / delta if delta else log_beta
        pair_terms.append(beta ** exps[k - 1] * (growth * xs[k - 1] + ys[k - 1]))
    sums.append(math.fsum(pair_terms))
    terms += pair_terms
    abs_sum = 0.0
    for term in terms:
        abs_sum += abs(term)
    value = sums[0] + sums[1] + sums[2]
    noise = 4.0 * EPS * (abs_sum + abs(value))
    if slipped:
        noise += abs(log_beta) * slipped
    return value, counts[0] + n, counts[1], tail, noise


def _hex(fields):
    return tuple(f.hex() if isinstance(f, float) else f for f in fields)


@pytest.mark.parametrize("derivative", [False, True])
@pytest.mark.parametrize("alpha,rho,form", CASES)
def test_split_sums_match_a_term_by_term_recomputation(alpha, rho, form, derivative):
    validate(alpha, rho)
    plan, probe = _plan_of(alpha, rho, form, derivative)
    summed = 0
    for beta in BETAS:
        got = _split(plan, beta, probe)
        assert _hex(got) == _hex(_recomputed(plan, beta)), beta
        summed += got[1] + got[2]
    assert summed > 0


def test_every_form_sums_terms_of_each_kind():
    # the cases reach what they are meant to: alpha 1 sums pairs alone, and
    # every other case both families and, but for sqrt 2, pairs too
    for alpha, rho, form in CASES:
        plan, probe = _plan_of(alpha, rho, form, False)
        firsts, seconds, pairs = 0, 0, 0
        for beta in BETAS:
            _, first, second, _, _ = _split(plan, beta, probe)
            n = _cut(beta, math.log(beta), plan.ratio, plan.lam, False, plan.budget,
                     plan.limit)[0] // plan.p
            firsts, seconds, pairs = firsts + first - n, seconds + second, pairs + n
        if alpha == 1.0:
            assert firsts == seconds == 0 and pairs > 0
        else:
            assert firsts > 0 and seconds > 0
            assert (pairs > 0) is (form != "own")

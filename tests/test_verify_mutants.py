"""Registered mutants: every verify suite has a plausible fault that makes it fail.

A suite that no fault can fail checks nothing (R. A. DeMillo, R. J. Lipton and
F. G. Sayward, "Hints on test data selection", Computer 11, 1978).  Each row of
MUTANTS names a suite, the dotted name of what the fault replaces, the fault as
a function of the original, and why the fault is plausible.  The test rebinds
the name in every tautorder module that binds it and runs `tautorder verify
<suite>` at its default bound, alone: a fault can abort another suite (the
sieve that calls 9 prime makes product-lemma exit 1 with `9 is not prime`).

A mutant shows that a row can fail, not that it is right.
"""
from __future__ import annotations

import io
import sys
from fractions import Fraction
from importlib import import_module

import pytest

from tautorder.bernoulli_zeta import ProportionalityResult
from tautorder.chern_symbolics import GradedPolynomial
from tautorder.cli import run
from tautorder.exact_arith import _Grown
from tautorder.verify import _SUITES


def _at(index, change):
    """The list the original returns, with its entry `index` changed."""
    return lambda f: lambda *a: [change(x) if i == index else x for i, x in enumerate(f(*a))]


def _when(cond, change):
    """The value the original returns, changed on the arguments `cond` accepts."""
    return lambda f: lambda *a: change(f(*a)) if cond(*a) else f(*a)


def _sevenfold_denominator(r: ProportionalityResult) -> ProportionalityResult:
    absolute = r.absolute_value / 7
    return ProportionalityResult(r.g, r.signed_value / 7, absolute, absolute.denominator)


_PROPORTIONALITY_G5 = (
    "tautorder.bernoulli_zeta.proportionality",
    _when(lambda g: g == 5, _sevenfold_denominator),
    "a stray prime factor: |proportionality| at g = 5 divided by 7",
)

# suite -> (dotted name, mutant(original) -> replacement, reason)
MUTANTS = {
    "chern-lemma": (
        "tautorder.chern_symbolics._exp_scaled",
        _at(1, lambda comp: {**comp, 1: comp.get(1, 0) + 1}),
        "the exp recurrence off by one in degree 1: c1 gains 1",
    ),
    "borel-serre": (
        "tautorder.chern_symbolics._log_derivative_scaled",
        _at(1, lambda r: [c + (k == 4) for k, c in enumerate(r)]),
        "one scalar of the log-derivative recurrence off by one: D B_4 + 1",
    ),
    "newton": (
        "tautorder.chern_symbolics._power_sums",
        _at(3, lambda comp: {mon: -c for mon, c in comp.items()}),
        "a sign slip in Newton's identities: p_3 negated",
    ),
    "fundamental-relations": (
        "tautorder.chern_symbolics.fundamental_relations",
        lambda f: lambda *a: [GradedPolynomial(r.names, r.weights, r.truncation, {
            mon: abs(c) for mon, c in r.terms.items()}) for r in f(*a)],
        "the dual's signs dropped on the terms that survive: -l1^2 + 2*l2 read as l1^2 + 2*l2",
    ),
    "product-lemma": (
        "tautorder.exact_arith.factorial_p_valuation",
        _when(lambda m, p: p == 3, lambda v: v + 1),
        "Legendre's sum off by one at p = 3",
    ),
    "denominator": _PROPORTIONALITY_G5,
    "integrality": _PROPORTIONALITY_G5,
    "grr-chain": (
        "tautorder.bernoulli_zeta.zeta_neg",
        _when(lambda g: g == 5, lambda z: 2 * z),
        "zeta(1-2g) doubled at g = 5, as dividing B_2g by g in place of 2g would make it",
    ),
    "cyclotomic": (
        "tautorder.finite_field_checks._convolve",
        _at(0, lambda c: c + 1),
        "the dense product off by one in its constant term",
    ),
    "symplectic": (
        "tautorder.finite_field_checks._zeta_power_trace",
        _when(lambda l, k, m: m % l**k == 0, lambda t: -t),
        "Tr(1) negated: the trace of zeta^m where l^k divides m has the wrong sign",
    ),
    "von-staudt": (
        "tautorder.bernoulli_zeta.bernoulli",
        _when(lambda m: m == 12, lambda b: Fraction(-697, 2730)),
        "a numerator fault that keeps the denominator: B_12 = -697/2730",
    ),
    "oracle-agreement": (
        "tautorder.exact_arith._primes",
        lambda primes: _Grown(lambda size, old: sorted(primes.build(size, old) + [9])),
        "the one prime source calls the square 9 prime, as a sieve that starts crossing "
        "out one step past n*n would",
    ),
}


def _install(monkeypatch, dotted: str, mutant) -> None:
    module, name = dotted.rsplit(".", 1)
    original = getattr(import_module(module), name)
    replacement = mutant(original)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "tautorder" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)


def _verify(suite: str) -> tuple[int, list[str]]:
    out = io.StringIO()
    code = run(["verify", suite], out=out)
    return code, [line for line in out.getvalue().splitlines() if line.startswith("FAIL ")]


@pytest.mark.parametrize("suite", sorted(set(_SUITES) | set(MUTANTS)))
def test_registered_mutant_fails_its_suite(suite: str, monkeypatch) -> None:
    assert suite in _SUITES, f"stale entry: {suite} is no longer a suite"
    assert suite in MUTANTS, f"suite {suite} has no registered mutant"
    dotted, mutant, _reason = MUTANTS[suite]
    _install(monkeypatch, dotted, mutant)
    code, failed = _verify(suite)
    assert failed and code == 2, f"{suite} exits {code}, {len(failed)} FAIL rows, under {dotted}"


def test_von_staudt_reports_a_sign_fault_as_a_fail_row(monkeypatch) -> None:
    # a flipped sign keeps the denominator too; the row names both values
    negated = _when(lambda m: m == 10, lambda b: -b)
    _install(monkeypatch, "tautorder.bernoulli_zeta.bernoulli", negated)
    assert _verify("von-staudt") == (2, [
        "FAIL von-staudt m=10 (denominator 66, prime product 66; B_m -5/66, recurrence 5/66)"
    ])

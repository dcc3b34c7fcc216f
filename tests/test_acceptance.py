"""Acceptance checks, one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Wall-clock limits apply only where stated; everything else is
exact arithmetic with no tolerance.
"""
from __future__ import annotations

import io
import time
from math import factorial

import pytest
from root_ring_oracle import RingElement, class_variables

from tautorder.bernoulli_zeta import bernoulli, proportionality, von_staudt_denominator, zeta_neg
from tautorder.chern_symbolics import (
    borel_serre_check,
    fundamental_relations,
    lambda_star_class,
    newton_special_case,
)
from tautorder.cli import run
from tautorder.exact_arith import primes_upto
from tautorder.finite_field_checks import (
    cyclotomic_chern_check,
    hurwitz_genus,
    symplectic_pairing_check,
)
from tautorder.group_orders import degree_integrality, koblitz_coefficient
from tautorder.torsion_orders import (
    NG_CROSS_CHECK,
    boundary_coefficient,
    ng_local,
    ng_oracle,
    product_identity_check,
    torsion_report,
)


def test_criterion_01_local_table_anchors() -> None:
    start = time.perf_counter()
    values = [ng_local(g).value for g in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - start
    assert values == [24, 240, 504, 480]
    assert elapsed < 0.010


def test_criterion_02_oracle_agreement() -> None:
    start = time.perf_counter()
    for g in range(1, 9):
        assert ng_oracle(g) == ng_local(g).value
    assert time.perf_counter() - start < 1.0


def test_criterion_03_product_identity() -> None:
    for g in range(1, 17):
        assert product_identity_check(g).equal
    assert product_identity_check(1).lhs == 24
    assert product_identity_check(2).lhs == 5760


def test_criterion_04_denominator_divides_product() -> None:
    running = 1
    for g in range(1, 13):
        running *= ng_local(g).value
        assert running % proportionality(g).denominator == 0
    assert proportionality(1).denominator == 24
    assert proportionality(2).denominator == 5760


def test_criterion_05_degree_integrality() -> None:
    for g in range(1, 6):
        for n in range(3, 8):
            assert degree_integrality(g, n).integral
    assert degree_integrality(1, 3).degree == 1
    assert degree_integrality(2, 3).degree == 9


def test_criterion_06_torsion_bounds() -> None:
    assert [torsion_report(g).stack_upper_bound for g in (1, 2, 3)] == [
        24,
        5760,
        5806080,
    ]
    assert [torsion_report(g).lower_bound_lambda for g in (1, 2, 3, 4)] == [
        12,
        120,
        252,
        240,
    ]


def test_criterion_07_exterior_class_collapse() -> None:
    for g in range(1, 9):
        lam = RingElement.of(lambda_star_class(g, g))
        for d in range(1, g):
            assert lam.component(d).terms == {}
        top_monomial = (0,) * (g - 1) + (1,)
        top = lam.component(g)
        assert top.terms[top_monomial] == -factorial(g - 1)
        # nothing else survives in degree g
        assert top == -factorial(g - 1) * lam.variable(g - 1)


def test_criterion_08_alternating_product_identity() -> None:
    for g in range(1, 7):
        assert borel_serre_check(g, 2 * g)


def test_criterion_09_newton_and_fundamental_relations() -> None:
    for g in range(1, 9):
        assert newton_special_case(g)
    for g in range(2, 7):
        components = fundamental_relations(g, 2 * g)
        l1, l2 = class_variables(g, 2 * g, symbol="l")[:2]
        assert components[1] == 2 * l2 - l1 * l1
        for d in range(1, 2 * g + 1, 2):
            assert components[d - 1].terms == {}


def test_criterion_10_boundary_coefficients() -> None:
    assert boundary_coefficient(1) == 12
    assert boundary_coefficient(2) == 120
    assert boundary_coefficient(3) == 252
    for g in range(1, 21):
        assert boundary_coefficient(g) * abs(zeta_neg(g)) == 1
    for g in range(1, 11):
        assert boundary_coefficient(g).numerator == ng_local(g).value // 2


def test_criterion_11_cyclotomic_products() -> None:
    cases = [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3), (2, 4)]
    for l, k in cases:
        report = cyclotomic_chern_check(l, k)
        assert report.equal
        assert report.top_degree == l ** (k - 1) * (l - 1)
        assert report.top_coefficient_nonzero
        assert report.product.coeffs[report.top_degree] % l != 0
    assert [hurwitz_genus(l, k) for l, k in cases] == [1, 3, 2, 3, 1, 2]


def test_criterion_12_pairing_unimodular() -> None:
    start = time.perf_counter()
    for l, k in ((3, 1), (5, 1), (7, 1), (3, 2)):
        report = symplectic_pairing_check(l, k)
        assert report.integral
        assert report.skew
        assert report.invariant
        assert abs(report.gram_determinant) == 1
    assert time.perf_counter() - start < 2.0


def test_criterion_13_von_staudt_and_koblitz() -> None:
    for m in range(2, 61, 2):
        expected = 1
        for p in primes_upto(m + 1):
            if m % (p - 1) == 0:
                expected *= p
        assert von_staudt_denominator(m) == expected
        assert bernoulli(m).denominator == expected
    assert koblitz_coefficient(1, 2) == 1
    assert koblitz_coefficient(2, 2) == 3
    assert koblitz_coefficient(3, 3) == 416


def test_criterion_14_verify_gate_and_mutation(monkeypatch: pytest.MonkeyPatch) -> None:
    assert run(["verify", "all", "--max-g", "5"], out=io.StringIO()) == 0
    for g in sorted(NG_CROSS_CHECK):
        with monkeypatch.context() as patch:
            patch.setitem(NG_CROSS_CHECK, g, NG_CROSS_CHECK[g] + 1)
            assert run(["verify", "all", "--max-g", "5"], out=io.StringIO()) == 2
    # untouched table still passes afterwards
    assert run(["verify", "all", "--max-g", "5"], out=io.StringIO()) == 0

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest

from tautorder.bernoulli_zeta import proportionality, zeta_neg
from tautorder.exact_arith import is_prime, valuation
from tautorder.torsion_orders import (
    NG_CROSS_CHECK,
    boundary_coefficient,
    denominator_corollary_check,
    grr_chain_check,
    ng_local,
    ng_oracle,
    product_identity_check,
    product_identity_tail_is_trivial,
    torsion_report,
)

# value and factorisation fixed by hand from the per-prime rules
NG_TABLE = {
    1: 24,
    2: 240,
    3: 504,
    4: 480,
    5: 264,
    6: 65520,
    7: 24,
    8: 16320,
}


def test_ng_local_frozen_table() -> None:
    for g, expected in NG_TABLE.items():
        assert ng_local(g).value == expected


def test_ng_local_matches_published_anchors() -> None:
    for g, expected in NG_CROSS_CHECK.items():
        assert ng_local(g).value == expected


def test_ng_local_factorisations() -> None:
    assert {(f.prime, f.exponent) for f in ng_local(1).factors} == {(2, 3), (3, 1)}
    assert {(f.prime, f.exponent) for f in ng_local(3).factors} == {
        (2, 3),
        (3, 2),
        (7, 1),
    }
    assert {(f.prime, f.exponent) for f in ng_local(6).factors} == {
        (2, 4),
        (3, 2),
        (5, 1),
        (7, 1),
        (13, 1),
    }


def test_ng_local_structure() -> None:
    for g in range(1, 30):
        dec = ng_local(g)
        primes = [f.prime for f in dec.factors]
        assert primes == sorted(primes)
        assert all(is_prime(p) for p in primes)
        # every contributing odd prime satisfies (p-1) | 2g
        for f in dec.factors:
            if f.prime > 2:
                assert (2 * g) % (f.prime - 1) == 0
        # the 2-part is 2^{v_2(2g)+2}, so 8 | n_g
        assert valuation(dec.value, 2) == valuation(2 * g, 2) + 2
        assert dec.value % 8 == 0


def test_ng_local_rejects_nonpositive() -> None:
    with pytest.raises(ValueError, match="g must be positive"):
        ng_local(0)


def test_oracle_agrees_with_local_rule() -> None:
    for g in range(1, 9):
        assert ng_oracle(g) == ng_local(g).value


def test_oracle_with_tiny_sample() -> None:
    # for g = 1 the gcd locks in immediately
    assert ng_oracle(1, prime_count=2, stabilization_window=2) == 24


def test_oracle_divides_every_sample_term() -> None:
    n = ng_oracle(3)
    for p in (11, 13, 17, 19, 23):
        assert (p**6 - 1) % n == 0


def test_oracle_parameter_validation() -> None:
    with pytest.raises(ValueError, match="g must be positive"):
        ng_oracle(0)
    with pytest.raises(ValueError, match="at least 2"):
        ng_oracle(1, prime_count=5, stabilization_window=1)
    with pytest.raises(ValueError, match="at least the stabilization window"):
        ng_oracle(1, prime_count=5, stabilization_window=10)


def test_oracle_reports_unstable_gcd() -> None:
    with pytest.raises(ValueError, match="gcd not stabilized"):
        ng_oracle(6, prime_count=2, stabilization_window=2)


def test_product_identity_holds() -> None:
    for g in range(1, 17):
        report = product_identity_check(g)
        assert report.equal
        assert report.lhs == report.rhs


def test_product_identity_spot_values() -> None:
    assert product_identity_check(1).lhs == 24
    assert product_identity_check(2).lhs == 5760
    assert product_identity_check(3).lhs == 5760 * 504


def test_product_identity_tail_contributes_nothing() -> None:
    for g in range(1, 13):
        assert product_identity_tail_is_trivial(g)


def test_denominator_divides_running_product() -> None:
    for g in range(1, 13):
        assert denominator_corollary_check(g)


def test_denominator_equality_at_first_two_indices() -> None:
    assert proportionality(1).denominator == 24
    assert proportionality(2).denominator == 5760


def test_torsion_report_frozen_bounds() -> None:
    r1 = torsion_report(1)
    assert (r1.n_g, r1.lower_bound_lambda, r1.scheme_upper_bound, r1.stack_upper_bound) == (
        24,
        12,
        24,
        24,
    )
    r2 = torsion_report(2)
    assert (r2.lower_bound_lambda, r2.scheme_upper_bound, r2.stack_upper_bound) == (
        120,
        240,
        5760,
    )
    r3 = torsion_report(3)
    assert (r3.lower_bound_lambda, r3.stack_upper_bound) == (252, 5806080)
    assert torsion_report(4).lower_bound_lambda == 240


def test_torsion_report_internal_consistency() -> None:
    for g in range(1, 10):
        r = torsion_report(g)
        assert r.lower_bound_lambda == r.n_g // 2
        assert r.scheme_upper_bound % r.lower_bound_lambda == 0
        assert r.stack_upper_bound % r.scheme_upper_bound == 0
        assert sorted(r.r_orders) == list(range(1, g + 1))
        assert r.r_orders[g] == r.n_g // 2


def test_boundary_coefficient_small_values() -> None:
    assert boundary_coefficient(1) == 12
    assert boundary_coefficient(2) == 120
    assert boundary_coefficient(3) == 252
    assert boundary_coefficient(4) == 240
    assert boundary_coefficient(5) == 132
    assert boundary_coefficient(6) == Fraction(32760, 691)
    assert boundary_coefficient(7) == 12
    assert boundary_coefficient(8) == Fraction(8160, 3617)


def test_boundary_coefficient_positive_and_inverse_to_zeta() -> None:
    for g in range(1, 21):
        c = boundary_coefficient(g)
        assert c > 0
        assert c * abs(zeta_neg(g)) == 1


def test_boundary_coefficient_meets_half_ng_where_integral() -> None:
    # the coefficient equals n_g/2 until the numerator of B_{2g} interferes:
    # at g = 6 the two differ by the factor 691, at g = 8 by 3617
    for g in (1, 2, 3, 4, 5, 7):
        assert boundary_coefficient(g) == torsion_report(g).lower_bound_lambda
    assert torsion_report(6).lower_bound_lambda / boundary_coefficient(6) == 691
    assert torsion_report(8).lower_bound_lambda / boundary_coefficient(8) == 3617


def test_grr_chain_identity() -> None:
    for g in range(1, 11):
        assert grr_chain_check(g)


def test_lambda_lower_bound_is_half_ng() -> None:
    for g in range(1, 9):
        assert torsion_report(g).lower_bound_lambda == NG_TABLE[g] // 2
        assert ng_local(g).value // 2 == NG_TABLE[g] // 2


def test_ng_divides_oracle_sample_gcd_structure() -> None:
    # n_g for different g share the universal factor 8 and little else
    assert gcd(NG_TABLE[1], NG_TABLE[5]) == 24
    assert gcd(NG_TABLE[3], NG_TABLE[4]) == 24

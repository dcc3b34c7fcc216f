from __future__ import annotations

import inspect
import random
import sys
import threading
import time
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

from tautorder.bernoulli_zeta import bernoulli, proportionality, zeta_neg
from tautorder import bernoulli_zeta, chern_symbolics, exact_arith, finite_field_checks, group_orders
from tautorder import torsion_orders
from tautorder.exact_arith import is_prime, primes_upto
from tautorder.torsion_orders import (
    NG_CROSS_CHECK,
    _ng_values,
    boundary_coefficient,
    denominator_corollary_check,
    ng_local,
    ng_oracle,
    product_identity_check,
    torsion_report,
)
from tautorder.verify import run_suite

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


def valuation(n: int, p: int) -> int:
    """Exponent of the prime p in n, by repeated division: the route to the n_g
    exponents that shares nothing with ng_local."""
    if n == 0:
        raise ValueError("valuation of zero undefined")
    n, v = abs(n), 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def test_valuation_against_prime_power_divisibility() -> None:
    rng = random.Random(20240517)
    primes = primes_upto(50)
    for _ in range(300):
        p = rng.choice(primes)
        n = rng.randint(1, 10**9)
        want = max(k for k in range(31) if n % p**k == 0)  # n < 2^30
        assert valuation(n, p) == valuation(-n, p) == want


def test_valuation_exact_powers() -> None:
    assert valuation(8, 2) == 3
    assert valuation(9, 3) == 2
    assert valuation(7, 5) == 0
    assert valuation(2 * 3**7, 3) == 7


def test_valuation_of_zero_rejected() -> None:
    with pytest.raises(ValueError, match="valuation of zero"):
        valuation(0, 5)


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


def _ng_local_by_sieve(g: int) -> list[tuple[int, int]]:
    # the former route: scan every prime up to 2g + 1 for (p - 1) | 2g
    two_g = 2 * g
    factors = [(2, valuation(two_g, 2) + 2)]
    for p in primes_upto(two_g + 1):
        if p > 2 and two_g % (p - 1) == 0:
            factors.append((p, valuation(two_g // (p - 1), p) + 1))
    return factors


def test_ng_local_against_the_sieve_scan() -> None:
    for g in range(1, 3001):
        assert [(f.prime, f.exponent) for f in ng_local(g).factors] == _ng_local_by_sieve(g)


def test_ng_local_at_a_billion_builds_no_large_sieve(monkeypatch) -> None:
    g = 10**9
    sieve = exact_arith._Grown(exact_arith._sieve)  # grow from empty
    monkeypatch.setattr(exact_arith, "_primes", sieve)
    start = time.perf_counter()
    dec = ng_local(g)
    assert time.perf_counter() - start < 1
    assert sieve.table[0] <= 1000  # factorize reads only the primes up to 1000
    assert [f.prime for f in dec.factors] == [
        2, 3, 5, 11, 17, 41, 101, 251, 257, 401, 641, 1601, 4001, 16001, 25601, 62501,
        160001, 62500001,
    ]
    assert all((2 * g) % (f.prime - 1) == 0 for f in dec.factors)


def test_ng_values_against_ng_local() -> None:
    # the per-g divisor walk is the oracle for the one-pass table
    assert _ng_values(3000) == [ng_local(i).value for i in range(1, 3001)]
    assert _ng_values(1) == [24] and _ng_values(0) == []


TABLE_TOP = 600
TABLE = [ng_local(i).value for i in range(1, TABLE_TOP + 1)]  # the divisor walk, per g


@pytest.fixture
def empty_ng_table(monkeypatch: pytest.MonkeyPatch) -> exact_arith._Grown:
    # growth replaces the published pair whole, so the tests read it off the table each time
    table = exact_arith._Grown(torsion_orders._ng_sweep)
    monkeypatch.setattr(torsion_orders, "_ng_table", table)
    return table


def test_a_cold_table_call_fills_exactly_to_g(empty_ng_table) -> None:
    assert _ng_values(250) == TABLE[:250]
    assert empty_ng_table.table[0] == 250
    empty_ng_table.table = (-1, [])
    torsion_report(300)  # a reader fills it the same way
    assert empty_ng_table.table == (300, TABLE[:300])


def test_a_table_miss_grows_to_twice_the_top(empty_ng_table) -> None:
    _ng_values(250)
    table = empty_ng_table.table
    assert _ng_values(100) == TABLE[:100]
    assert empty_ng_table.table is table  # a hit only slices
    _ng_values(251)
    assert empty_ng_table.table[0] == 500
    _ng_values(1200)
    assert empty_ng_table.table[0] == 1200  # past twice the top: exactly g
    assert empty_ng_table.table[1][:TABLE_TOP] == TABLE


def test_each_table_call_returns_a_fresh_list(empty_ng_table) -> None:
    first = _ng_values(TABLE_TOP)
    table = empty_ng_table.table[1]
    assert first is not table and first is not _ng_values(TABLE_TOP)
    first[0] = 0
    first.append(1)
    del first[5:9]
    assert empty_ng_table.table[1] is table and table == TABLE
    assert _ng_values(TABLE_TOP) == TABLE


def test_table_concurrent_misses_get_correct_values(empty_ng_table) -> None:
    sizes = [600, 7, 120, 1, 250, 64, 599, 2]
    results: dict[int, list[int]] = {}
    start = threading.Barrier(len(sizes))

    def ask(g: int) -> None:
        start.wait(timeout=10)
        results[g] = _ng_values(g)

    threads = [threading.Thread(target=ask, args=(g,)) for g in sizes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {g: TABLE[:g] for g in sizes}
    assert empty_ng_table.table[1][:TABLE_TOP] == TABLE  # never shrunk by a late, smaller rebuild


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_table_in_a_shuffled_call_order(empty_ng_table, seed: int) -> None:
    order = list(range(1, TABLE_TOP + 1))
    random.Random(seed).shuffle(order)
    for g in order:
        assert _ng_values(g) == TABLE[:g]


def test_ng_values_are_the_image_of_j_denominators() -> None:
    # a third route, sharing no code with ng_local or ng_oracle: n_g is twice the
    # denominator of zeta(1-2g), the denominator of B_2g/4g (Adams, J(X) IV)
    values = _ng_values(500)
    for g in range(1, 501):
        assert values[g - 1] == 2 * zeta_neg(g).denominator
        assert values[g - 1] == (bernoulli(2 * g) / (4 * g)).denominator


def test_ng_oracle_reads_primes_from_the_sieve(monkeypatch) -> None:
    expected = ng_local(12).value

    def refuse(n: int) -> bool:
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(exact_arith, "_primes", exact_arith._Grown(exact_arith._sieve))
    monkeypatch.setattr(exact_arith, "is_prime", refuse)
    monkeypatch.setattr(torsion_orders, "is_prime", refuse)
    assert ng_oracle(12) == expected


def test_tables_make_no_ng_local_call(monkeypatch) -> None:
    values = [ng_local(i).value for i in range(1, 301)]  # the tables as ng_local built them

    def refuse(g: int):
        raise AssertionError("ng_local called from a table")

    monkeypatch.setattr(torsion_orders, "ng_local", refuse)
    report = torsion_report(300)
    assert (report.n_g, report.lower_bound_lambda) == (values[-1], values[-1] // 2)
    assert report.scheme_upper_bound == factorial(299) * values[-1]
    assert report.stack_upper_bound == factorial(299) * prod(values)
    assert report.r_orders == {i: v // 2 for i, v in enumerate(values, start=1)}
    identity = product_identity_check(30)
    assert (identity.lhs, identity.rhs, identity.equal) == (prod(values[:30]), prod(values[:30]), True)
    assert denominator_corollary_check(30) is True


def test_table_products_against_a_plain_product() -> None:
    # math.prod folds one factor at a time; the tables multiply by a balanced tree
    for g in (1, 2, 3, 17, 64, 255, 1000):
        plain = prod(_ng_values(g))
        assert torsion_report(g).stack_upper_bound == factorial(g - 1) * plain
        identity = product_identity_check(g)
        assert (identity.lhs, identity.equal) == (plain, True)


def test_ng_local_rejects_nonpositive() -> None:
    with pytest.raises(ValueError, match="g must be positive"):
        ng_local(0)


# every public function whose first parameter is g, by name (no two modules share one)
G_FUNCTIONS = {
    name: getattr(module, name)
    for module in (torsion_orders, chern_symbolics, group_orders, bernoulli_zeta)
    for name in module.__all__
    if inspect.isfunction(getattr(module, name))
    and next(iter(inspect.signature(getattr(module, name)).parameters)) == "g"
}
# a valid value for each later parameter that has no default
_VALID_ARGUMENTS = {"truncation": 3, "depth": 3, "max_degree": 1, "n": 6, "p": 5}


def test_g_function_list_is_complete() -> None:
    assert len(G_FUNCTIONS) == 17 and "product_identity_check" in G_FUNCTIONS
    assert {"lambda_star_class", "koblitz_coefficient", "proportionality"} <= set(G_FUNCTIONS)


@pytest.mark.parametrize("name", G_FUNCTIONS)
@pytest.mark.parametrize("g", [0, -5])
def test_every_g_function_refuses_nonpositive_g(name: str, g: int) -> None:
    function = G_FUNCTIONS[name]
    later = list(inspect.signature(function).parameters.values())[1:]
    others = [_VALID_ARGUMENTS[p.name] for p in later if p.default is p.empty]
    function(2, *others)  # the other arguments are valid
    with pytest.raises(ValueError, match="g must be positive"):
        function(g, *others)


@pytest.mark.parametrize("name", G_FUNCTIONS)
@pytest.mark.parametrize("g", [2.0, Fraction(2)], ids=["float", "Fraction"])
def test_every_g_function_refuses_a_non_integer_g(name: str, g: object) -> None:
    # an integral float or Fraction is refused too: no float enters the package
    function = G_FUNCTIONS[name]
    later = list(inspect.signature(function).parameters.values())[1:]
    others = [_VALID_ARGUMENTS[p.name] for p in later if p.default is p.empty]
    with pytest.raises(TypeError, match=f"^g must be an int, not {type(g).__name__}$"):
        function(g, *others)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ng_local(6.0), "g must be an int, not float"),
        (lambda: group_orders.koblitz_coefficient(2, 3.0), "p must be an int, not float"),
        (lambda: group_orders.sp_order(1, 3.0), "n must be an int, not float"),
        (lambda: finite_field_checks.hurwitz_genus(3, 2.0), "k must be an int, not float"),
        (lambda: finite_field_checks.hurwitz_genus(3.0, 2), "l must be an int, not float"),
        (lambda: finite_field_checks.ModPPolynomial(5.0, [1]), "modulus must be an int, not float"),
        (lambda: exact_arith.PrimeLocalOrder(3.0, 1), "prime must be an int, not float"),
        (lambda: exact_arith.PrimeLocalOrder(3, Fraction(1)), "exponent must be an int, not Fraction"),
        (lambda: exact_arith.factorial_p_valuation(6, 2.0), "p must be an int, not float"),
        (lambda: exact_arith.factorize(12.0), "n must be an int, not float"),
        # the ids of these three cases keep the names they had before the
        # message came from the shared int type rule or named the parameter
        pytest.param(lambda: bernoulli(4.0), "m must be an int, not float",
                     id="<lambda>-index must be an int, not float"),
        pytest.param(lambda: chern_symbolics.GradedPolynomial(("x",), (1.5,), 2, {}),
                     "weight must be an int, not float", id="<lambda>-weights must be ints"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2.5, {}),
         "truncation must be an int, not float"),
        pytest.param(lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, {(1.9,): 1}),
                     "exponent must be an int, not float", id="<lambda>-exponents must be ints"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, {(1,): 0.5}),
         "coefficients must be int or Fraction, not float"),
        (lambda: is_prime(7.5), "n must be an int, not float"),
        (lambda: is_prime(Fraction(7)), "n must be an int, not Fraction"),
        (lambda: primes_upto(10.5), "bound must be an int, not float"),
        (lambda: exact_arith.primes_above(10.5, 3), "bound must be an int, not float"),
        (lambda: finite_field_checks.ModPPolynomial(5, [1.5]), "coefficient must be an int, not float"),
        (lambda: finite_field_checks.ModPPolynomial(5, [1, Fraction(2)]),
         "coefficient must be an int, not Fraction"),
        (lambda: chern_symbolics.lambda_star_class(2, 2.0), "depth must be an int, not float"),
        (lambda: chern_symbolics.fundamental_relations(2, 2.0), "max_degree must be an int, not float"),
        (lambda: bernoulli_zeta.von_staudt_denominator(4.0), "m must be an int, not float"),
        (lambda: run_suite("newton", 2.0), "max_g must be an int, not float"),
        (lambda: group_orders.sp_order(1, 1.5), "n must be an int, not float"),
        (lambda: group_orders.degree_integrality(2, 2.0), "n must be an int, not float"),
        (lambda: finite_field_checks.symplectic_pairing_check(2.0, 3), "l must be an int, not float"),
        (lambda: bernoulli_zeta.bernoulli_table(2.0), "max_index must be an int, not float"),
        # a bool is an int to isinstance, and refused all the same
        (lambda: ng_local(True), "g must be an int, not bool"),
        (lambda: is_prime(True), "n must be an int, not bool"),
        (lambda: run_suite("newton", True), "max_g must be an int, not bool"),
        # and a flag must be a bool: "no" and None would pick a convention by truth value
        (lambda: chern_symbolics.todd_class(1, 2, dual="no"), "dual must be a bool, not str"),
        (lambda: chern_symbolics.todd_class(1, 2, dual=0), "dual must be a bool, not int"),
        (lambda: chern_symbolics.todd_class(1, 2, dual=None), "dual must be a bool, not NoneType"),
        # an entry point refuses a wrong-typed argument by its name
        (lambda: run_suite([1]), "name must be a str, not list"),
        (lambda: chern_symbolics.symmetric_reduce(5), "poly must be a GradedPolynomial, not int"),
        (lambda: bernoulli(False), "m must be an int, not bool"),
        (lambda: finite_field_checks.ModPPolynomial(5, [True]), "coefficient must be an int, not bool"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (True,), 2, {}),
         "weight must be an int, not bool"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, {(1,): True}),
         "coefficients must be int or Fraction, not bool"),
        # a record input that is iterated is refused by name when it is not iterable
        (lambda: finite_field_checks.ModPPolynomial(5, 7), "coeffs must be iterable, not int"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, 5), "terms must be iterable, not int"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), 1, 2, {}), "weights must be iterable, not int"),
        (lambda: chern_symbolics.GradedPolynomial(1, (1,), 2, {}), "names must be iterable, not int"),
        # a name is printed as it stands, so it must be a str
        (lambda: chern_symbolics.GradedPolynomial((1, 2), (1, 1), 2, {}),
         "name must be a str, not int"),
        # and terms that are iterable but not a map of exponent tuples to coefficients
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, [1, 2]),
         "terms must map exponent tuples to coefficients"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, {1: 1}),
         "terms must map exponent tuples to coefficients"),
        (lambda: chern_symbolics.GradedPolynomial(("x",), (1,), 2, [((1,), 1, 2)]),
         "terms must map exponent tuples to coefficients"),
    ],
)
def test_non_integer_arguments_are_refused(call, message: str) -> None:
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: chern_symbolics.GradedPolynomial(("x", "y"), (1,), 2, {}),
         "names and weights must align"),
        (lambda: chern_symbolics.GradedPolynomial(("x", "y"), (1, 1), 2, {(1,): 1}),
         "exponent vector length mismatch"),
        # x*x would read as one variable
        (lambda: chern_symbolics.GradedPolynomial(("x", "x"), (1, 1), 2, {(1, 1): 1, (2, 0): 3}),
         "names must be distinct"),
        # and an identifier: "" would print a term as a constant, "2" as a factor, "x-1" as two
        (lambda: chern_symbolics.GradedPolynomial(("",), (1,), 2, {(1,): 3}),
         "name must be an identifier; got ''"),
        (lambda: chern_symbolics.GradedPolynomial(("2",), (1,), 2, {(1,): 3}),
         "name must be an identifier; got '2'"),
        (lambda: chern_symbolics.GradedPolynomial(("x", "x-1"), (1, 1), 2, {(1, 1): 2}),
         "name must be an identifier; got 'x-1'"),
        (lambda: chern_symbolics.symmetric_reduce(
            chern_symbolics.GradedPolynomial(("c1",), (2,), 2, {(1,): 1})),
         "symmetric reduction expects weight-1 root variables"),
        (lambda: bernoulli_zeta.von_staudt_denominator(3), "defined for positive even m"),
        (lambda: run_suite("nope"), "unknown suite: nope"),
    ],
)
def test_out_of_range_arguments_are_refused(call, message: str) -> None:
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_oracle_agrees_with_local_rule() -> None:
    for g in range(1, 9):
        assert ng_oracle(g) == ng_local(g).value


def _oracle_sample(monkeypatch: pytest.MonkeyPatch, prime_count: int, window: int) -> None:
    monkeypatch.setattr(torsion_orders, "_ORACLE_PRIME_COUNT", prime_count)
    monkeypatch.setattr(torsion_orders, "_ORACLE_WINDOW", window)


def test_oracle_with_tiny_sample(monkeypatch: pytest.MonkeyPatch) -> None:
    # for g = 1 the gcd locks in at once, even over a sample of two primes
    _oracle_sample(monkeypatch, 2, 2)
    assert ng_oracle(1) == 24


def test_oracle_divides_every_sample_term() -> None:
    n = ng_oracle(3)
    for p in (11, 13, 17, 19, 23):
        assert (p**6 - 1) % n == 0


def test_oracle_parameter_validation() -> None:
    # the sample is fixed, so g is the only argument and the only one to refuse
    assert list(inspect.signature(ng_oracle).parameters) == ["g"]
    with pytest.raises(ValueError, match="g must be positive"):
        ng_oracle(0)


def test_oracle_reports_unstable_gcd(monkeypatch: pytest.MonkeyPatch) -> None:
    _oracle_sample(monkeypatch, 2, 2)
    with pytest.raises(ValueError, match="gcd not stabilized"):
        ng_oracle(6)


def test_product_identity_holds() -> None:
    for g in range(1, 17):
        report = product_identity_check(g)
        assert report.equal
        assert report.lhs == report.rhs


def test_product_identity_spot_values() -> None:
    assert product_identity_check(1).lhs == 24
    assert product_identity_check(2).lhs == 5760
    assert product_identity_check(3).lhs == 5760 * 504


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
    # the numerator of (-1)^g/zeta(1-2g) is n_g/2 for every g, as n_g is the
    # denominator of B_2g/4g and B_2g has an odd numerator
    for g in range(1, 61):
        assert boundary_coefficient(g).numerator == ng_oracle(g) // 2
    assert all(r.ok for r in run_suite("grr-chain", 30))


def test_lambda_lower_bound_is_half_ng() -> None:
    for g in range(1, 9):
        assert torsion_report(g).lower_bound_lambda == NG_TABLE[g] // 2
        assert ng_local(g).value // 2 == NG_TABLE[g] // 2


def test_ng_divides_oracle_sample_gcd_structure() -> None:
    # n_g for different g share the universal factor 8 and little else
    assert gcd(NG_TABLE[1], NG_TABLE[5]) == 24
    assert gcd(NG_TABLE[3], NG_TABLE[4]) == 24

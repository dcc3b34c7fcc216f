from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from tautorder.bernoulli_zeta import proportionality
from tautorder.exact_arith import factorize
from tautorder.group_orders import (
    degree_integrality,
    koblitz_coefficient,
    sp_order,
)


def _direct_local_order(g: int, p: int, k: int) -> int:
    # |matrices preserving the standard form over Z/p^k|, written out plainly
    order = p ** ((k - 1) * g * (2 * g + 1)) * p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


def test_factorize_round_trip() -> None:
    rng = random.Random(987123)
    for _ in range(200):
        n = rng.randint(1, 10**7)
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            prod *= p**e
        assert prod == n
    assert factorize(1) == {}
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def test_sp_order_small_group_orders() -> None:
    # 2x2 cases are the classical matrix groups of determinant one
    assert sp_order(1, 3).order == 24
    assert sp_order(1, 2).order == 6
    assert sp_order(2, 2).order == 720
    assert sp_order(1, 4).order == 48
    assert sp_order(1, 5).order == 120


def test_sp_order_against_direct_formula() -> None:
    for g in range(1, 5):
        for p, k in ((2, 1), (2, 3), (3, 2), (5, 1), (7, 1)):
            expected = _direct_local_order(g, p, k)
            assert sp_order(g, p**k).local_factors[p] == expected


def test_sp_order_multiplicative_over_coprime_parts() -> None:
    for g in (1, 2, 3):
        for a, b in ((2, 3), (4, 5), (3, 8), (5, 9)):
            combined = sp_order(g, a * b).order
            assert combined == sp_order(g, a).order * sp_order(g, b).order


def test_sp_order_local_factors_multiply_to_order() -> None:
    for g in (1, 2):
        for n in (6, 12, 60):
            r = sp_order(g, n)
            prod = 1
            for v in r.local_factors.values():
                prod *= v
            assert prod == r.order
            assert sorted(r.local_factors) == sorted(factorize(n))


def test_sp_order_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        sp_order(0, 3)
    with pytest.raises(ValueError):
        sp_order(1, 1)


def test_degree_spot_values() -> None:
    assert degree_integrality(1, 3).degree == 1
    assert degree_integrality(2, 3).degree == 9
    assert degree_integrality(1, 4).degree == 2
    assert degree_integrality(3, 3).degree == 3159


def test_degree_is_order_times_absolute_constant() -> None:
    for g in (1, 2, 3):
        for n in (3, 4, 5):
            r = degree_integrality(g, n)
            assert r.degree == sp_order(g, n).order * proportionality(g).absolute_value


def test_degree_integral_in_claimed_range() -> None:
    for g in range(1, 6):
        for n in range(3, 8):
            r = degree_integrality(g, n)
            assert r.integral
            assert isinstance(r.degree, Fraction)
            assert r.degree.denominator == 1


def test_degree_rejects_small_level() -> None:
    with pytest.raises(ValueError, match="n >= 3"):
        degree_integrality(1, 2)


def test_koblitz_spot_values() -> None:
    assert koblitz_coefficient(1, 2) == 1
    assert koblitz_coefficient(2, 2) == 3
    assert koblitz_coefficient(3, 3) == 416


def test_koblitz_product_structure() -> None:
    for g in range(1, 6):
        for p in (2, 3, 5, 7):
            expected = 1
            for i in range(1, g + 1):
                expected *= p**i - 1
            value = koblitz_coefficient(g, p)
            assert value == expected
            # each factor is -1 mod p
            assert value % p == (-1) ** g % p


def _factor_by_trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_against_trial_division() -> None:
    for n in range(1, 5000):
        assert factorize(n) == _factor_by_trial_division(n), n
    rng = random.Random(4417)
    for _ in range(200):
        n = rng.randint(1, 10**9)
        assert factorize(n) == _factor_by_trial_division(n), n


def test_factorize_stops_at_a_prime_cofactor() -> None:
    p = 10**18 + 3  # trial division would run to 10^9
    assert factorize(p) == {p: 1}
    assert factorize(12 * p) == {2: 2, 3: 1, p: 1}
    assert factorize(1009**10) == {1009: 10}
    assert factorize(2**100 * 3) == {2: 100, 3: 1}


# primes known from outside the code under test; each is re-proved by trial division below
NEAR_A_MILLION = (1000003, 1000033, 1000037)
NEAR_A_BILLION = (999999929, 999999937, 1000000007)


def test_factorize_oracle_primes_are_prime() -> None:
    for p in NEAR_A_MILLION + NEAR_A_BILLION + (1009, 1013):
        assert _factor_by_trial_division(p) == {p: 1}


def test_factorize_prime_squares_and_cubes_above_the_trial_bound() -> None:
    for p in (1009, 1013) + NEAR_A_MILLION + NEAR_A_BILLION:
        assert factorize(p**2) == {p: 2}
        assert factorize(p**3) == {p: 3}
    assert factorize(1009**2 * 1013**3) == {1009: 2, 1013: 3}
    assert factorize(720 * 1000003**2) == {2: 4, 3: 2, 5: 1, 1000003: 2}


@pytest.mark.parametrize("primes", [NEAR_A_MILLION, NEAR_A_BILLION], ids=["1e6", "1e9"])
def test_factorize_products_of_two_and_three_large_primes(primes: tuple) -> None:
    a, b, c = primes
    assert factorize(a * b) == {a: 1, b: 1}
    assert factorize(b * c) == {b: 1, c: 1}
    assert factorize(a * c) == {a: 1, c: 1}
    assert factorize(a * b * c) == {a: 1, b: 1, c: 1}
    assert factorize(30 * a * b * c) == {2: 1, 3: 1, 5: 1, a: 1, b: 1, c: 1}


def test_factorize_every_product_of_two_primes_from_1000_to_1500() -> None:
    # small enough that both rho cycles often close inside one gcd batch: those
    # splits need the one-step retrace, and some need a second constant c
    primes = [p for p in range(1001, 1500, 2) if _factor_by_trial_division(p) == {p: 1}]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_carmichael_numbers_with_large_factors() -> None:
    # Chernick's (6k+1)(12k+1)(18k+1) with all three prime: Fermat-liars to every coprime base
    for k in (195, 206, 216, 255):
        primes = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = primes[0] * primes[1] * primes[2]
        assert pow(2, n - 1, n) == 1
        assert factorize(n) == dict.fromkeys(primes, 1)


def test_factorize_mersenne_prime_and_composite_cofactors() -> None:
    m61 = 2**61 - 1
    assert factorize(m61) == {m61: 1}
    assert factorize(12 * m61) == {2: 2, 3: 1, m61: 1}
    assert factorize(m61 * 1000000007) == {1000000007: 1, m61: 1}
    assert factorize(2**62 - 1) == {3: 1, 715827883: 1, 2147483647: 1}


def test_factorize_keys_ascend() -> None:
    for n in (1000000007 * 1000003 * 12, 999999937 * 1009**2 * 7, 2**61 - 1, 1000037 * 1000003 * 1000033):
        fac = factorize(n)
        assert list(fac) == sorted(fac)
        prod = 1
        for p, e in fac.items():
            prod *= p**e
        assert prod == n


def test_factorize_refuses_the_strong_pseudoprime_to_every_base() -> None:
    # 399165290221 * 798330580441, past the proven range of is_prime: refused, not split
    start = time.perf_counter()
    with pytest.raises(ValueError, match="beyond the range"):
        factorize(318665857834031151167461)
    assert time.perf_counter() - start < 1.0

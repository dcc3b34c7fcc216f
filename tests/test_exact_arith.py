from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from tautorder import exact_arith
from tautorder.exact_arith import (
    PrimeLocalOrder,
    factorial_p_valuation,
    is_prime,
    primes_above,
    primes_upto,
    valuation,
)


def _sieve(limit: int) -> list[int]:
    flags = [True] * (limit + 1)
    flags[:2] = [False, False]
    for n in range(2, int(limit**0.5) + 1):
        if flags[n]:
            flags[n * n :: n] = [False] * len(flags[n * n :: n])
    return [n for n, f in enumerate(flags) if f]


def _valuation_by_division(n: int, p: int) -> int:
    n = abs(n)
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


def test_is_prime_agrees_with_sieve() -> None:
    sieve = set(_sieve(2000))
    for n in range(-3, 2001):
        assert is_prime(n) == (n in sieve)


def test_primes_upto_matches_sieve() -> None:
    for bound in (0, 1, 2, 3, 10, 97, 98, 500):
        assert primes_upto(bound) == _sieve(bound)


def _primes_by_is_prime(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if is_prime(p)]


@pytest.fixture
def fresh_sieve(monkeypatch: pytest.MonkeyPatch) -> None:
    # start from the empty cache, so growth happens inside the test
    monkeypatch.setattr(exact_arith, "_sieve", (1, []))


def test_primes_upto_every_bound_ascending(fresh_sieve: None) -> None:
    expected = _primes_by_is_prime(5000)
    for bound in range(0, 5001):
        assert primes_upto(bound) == [p for p in expected if p <= bound]


def test_primes_upto_every_bound_descending(fresh_sieve: None) -> None:
    expected = _primes_by_is_prime(5000)
    for bound in range(5000, -1, -1):
        assert primes_upto(bound) == [p for p in expected if p <= bound]
    assert exact_arith._sieve[0] >= 5000  # grown once, never shrunk


def test_primes_upto_just_past_a_growth_edge(fresh_sieve: None) -> None:
    assert primes_upto(64) == _primes_by_is_prime(64)
    edge = exact_arith._sieve[0]
    for bound in (edge, edge + 1, edge + 2, 2 * edge, 2 * edge + 1):
        assert primes_upto(bound) == _primes_by_is_prime(bound)
        assert exact_arith._sieve[0] >= bound
    assert primes_upto(-5) == []


def test_primes_upto_returns_a_fresh_list(fresh_sieve: None) -> None:
    first = primes_upto(100)
    first.append(4)
    first[0] = 9
    first.clear()
    assert primes_upto(100) == _primes_by_is_prime(100)
    edge = exact_arith._sieve[0]
    whole = primes_upto(edge)  # the slice that spans the whole cache
    whole.extend([1, 2, 3])
    assert primes_upto(edge) == _primes_by_is_prime(edge)
    assert primes_upto(edge + 1) == _primes_by_is_prime(edge + 1)


def test_primes_above_is_the_next_block_of_the_sieve() -> None:
    sieve = _sieve(10_000)
    for bound in (1, 2, 10, 100, 541):
        got = primes_above(bound, 20)
        expected = [p for p in sieve if p > bound][:20]
        assert got == expected


def test_valuation_against_repeated_division() -> None:
    rng = random.Random(20240517)
    primes = _sieve(50)
    for _ in range(300):
        p = rng.choice(primes)
        n = rng.randint(1, 10**9)
        assert valuation(n, p) == _valuation_by_division(n, p)
        assert valuation(-n, p) == _valuation_by_division(n, p)


def test_valuation_exact_powers() -> None:
    assert valuation(8, 2) == 3
    assert valuation(9, 3) == 2
    assert valuation(7, 5) == 0
    assert valuation(2 * 3**7, 3) == 7


def test_valuation_of_zero_rejected() -> None:
    with pytest.raises(ValueError, match="valuation of zero"):
        valuation(0, 5)


def test_factorial_p_valuation_against_actual_factorials() -> None:
    primes = _sieve(50)
    for m in range(0, 201, 7):
        fact = factorial(m)
        for p in primes:
            assert factorial_p_valuation(m, p) == _valuation_by_division(fact, p)


def test_factorial_p_valuation_classic_values() -> None:
    # trailing zeros of 100! come from v_5 = 24
    assert factorial_p_valuation(100, 5) == 24
    assert factorial_p_valuation(100, 2) == 97
    assert factorial_p_valuation(4, 5) == 0


def test_prime_local_order_value() -> None:
    f = PrimeLocalOrder(3, 2)
    assert f.value == 9
    assert PrimeLocalOrder(2, 3).value == 8
    with pytest.raises(Exception):
        f.prime = 5  # frozen


def test_exact_rational_is_normalised_fraction() -> None:
    q = Fraction(24, 36)
    assert q == Fraction(2, 3)
    assert (q.numerator, q.denominator) == (2, 3)
    assert Fraction(5) / Fraction(7) == Fraction(5, 7)

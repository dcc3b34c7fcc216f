from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import reduce
from math import factorial

import pytest

from tautorder import exact_arith
from tautorder.exact_arith import (
    PrimeLocalOrder,
    _product,
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


@pytest.fixture
def fresh_sieve(monkeypatch: pytest.MonkeyPatch) -> None:
    # start from the empty cache, so growth happens inside the test
    monkeypatch.setattr(exact_arith, "_sieve", (1, []))


def test_is_prime_does_not_read_the_live_sieve(fresh_sieve: None) -> None:
    # its trial divisors are taken from the sieve once, at import
    assert [n for n in range(-3, 3001) if is_prime(n)] == _sieve(3000)
    assert is_prime(1000003) and not is_prime(997 * 1009)  # both reach Miller-Rabin
    assert exact_arith._sieve == (1, [])  # never grown by is_prime


def test_primes_upto_every_bound_ascending(fresh_sieve: None) -> None:
    expected = _sieve(5000)
    for bound in range(0, 5001):
        assert primes_upto(bound) == [p for p in expected if p <= bound]


def test_primes_upto_every_bound_descending(fresh_sieve: None) -> None:
    expected = _sieve(5000)
    for bound in range(5000, -1, -1):
        assert primes_upto(bound) == [p for p in expected if p <= bound]
    assert exact_arith._sieve[0] >= 5000  # grown once, never shrunk


def test_primes_upto_just_past_a_growth_edge(fresh_sieve: None) -> None:
    assert primes_upto(64) == _sieve(64)
    edge = exact_arith._sieve[0]
    for bound in (edge, edge + 1, edge + 2, 2 * edge, 2 * edge + 1):
        assert primes_upto(bound) == _sieve(bound)
        assert exact_arith._sieve[0] >= bound
    assert primes_upto(-5) == []


def test_primes_upto_returns_a_fresh_list(fresh_sieve: None) -> None:
    first = primes_upto(100)
    first.append(4)
    first[0] = 9
    first.clear()
    assert primes_upto(100) == _sieve(100)
    edge = exact_arith._sieve[0]
    whole = primes_upto(edge)  # the slice that spans the whole cache
    whole.extend([1, 2, 3])
    assert primes_upto(edge) == _sieve(edge)
    assert primes_upto(edge + 1) == _sieve(edge + 1)


def test_primes_above_is_the_next_block_of_the_sieve() -> None:
    sieve = _sieve(10_000)
    for bound in (1, 2, 10, 100, 541):
        got = primes_above(bound, 20)
        expected = [p for p in sieve if p > bound][:20]
        assert got == expected


def _primes_above_by_is_prime(bound: int, count: int) -> list[int]:
    # the candidate-by-candidate loop that primes_above ran before it read the sieve
    out: list[int] = []
    n = max(bound, 1) + 1
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def test_primes_above_against_candidate_loop(monkeypatch) -> None:
    monkeypatch.setattr(exact_arith, "_sieve", (1, []))  # grow from empty
    for bound in range(-2, 201):
        for count in (60, 0, 1, 2, 3, 17, 59):
            assert primes_above(bound, count) == _primes_above_by_is_prime(bound, count)
    for bound in (0, 1, 2, 97, 199, 200):
        for count in range(61):
            assert primes_above(bound, count) == _primes_above_by_is_prime(bound, count)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        primes_above(10, -1)


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
    with pytest.raises(AttributeError):
        f.prime = 5  # frozen


def test_exact_rational_is_normalised_fraction() -> None:
    q = Fraction(24, 36)
    assert q == Fraction(2, 3)
    assert (q.numerator, q.denominator) == (2, 3)
    assert Fraction(5) / Fraction(7) == Fraction(5, 7)


def _is_prime_by_trial_division(n: int) -> bool:
    # the slow independent route is_prime is checked against
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_against_trial_division() -> None:
    # every n across the switch from trial division to Miller-Rabin just past
    # 997^2, and across 1009^2, the square of the first prime not tried; then
    # seeded random n up to 10^10
    for n in list(range(0, 3000)) + list(range(997**2 - 3000, 1009**2 + 3000)):
        assert is_prime(n) == _is_prime_by_trial_division(n), n
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randrange(10**6, 10**10) | 1
        assert is_prime(n) == _is_prime_by_trial_division(n), n


def test_is_prime_rejects_strong_pseudoprimes() -> None:
    # the least strong pseudoprimes to the first 1..11 prime bases, and the
    # Carmichael numbers (6k+1)(12k+1)(18k+1) at k = 195 and 206; all but
    # 2047, 1373653 and 3215031751 have no factor below 1000 and reach Miller-Rabin
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 9624742921, 11346205609):
        assert not is_prime(n), n
    for p in (1000003, 10**9 + 7, 10**18 + 3, 2**61 - 1, 10**20 - 11, 10**23 + 117):
        assert is_prime(p), p


def test_is_prime_refuses_unproven_primes_beyond_its_bound() -> None:
    # 318665857834031151167461 = 399165290221 * 798330580441 passes all twelve bases
    limit = exact_arith._MR_LIMIT
    assert limit == 399165290221 * 798330580441
    with pytest.raises(ValueError, match="beyond the range"):
        is_prime(limit)
    with pytest.raises(ValueError, match="beyond the range"):
        is_prime(2**89 - 1)
    # a composite is still recognised at any size
    assert not is_prime(1009**10)
    assert not is_prime((2**89 - 1) * (2**61 - 1))


def test_product_of_nothing_is_one() -> None:
    assert _product([]) == 1
    assert _product(iter(()), [1], None) == [1]
    assert _product("", "", operator.add) == ""


def test_product_of_one_factor_is_that_factor() -> None:
    factor = [1, 2, 3]
    assert _product([factor], [1], None) is factor
    assert _product([7]) == 7


def test_product_against_a_left_fold() -> None:
    # ints, and polynomials over F_7 as coefficient lists, for every length 1..33
    rng = random.Random(20261019)

    def times_mod_7(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % 7
        return out

    for n in range(1, 34):
        ints = [rng.randrange(-10**12, 10**12) for _ in range(n)]
        assert _product(ints) == reduce(operator.mul, ints, 1)
        assert _product(iter(ints)) == reduce(operator.mul, ints, 1)
        polys = [[1] + [rng.randrange(7) for _ in range(rng.randrange(1, 4))] for _ in range(n)]
        assert _product(polys, [1], times_mod_7) == reduce(times_mod_7, polys, [1])


def test_product_keeps_the_order_of_its_factors() -> None:
    assert _product("abcdefg", "", operator.add) == "abcdefg"
    for n in range(1, 34):
        words = [chr(ord("a") + i % 26) * (1 + i % 3) for i in range(n)]
        assert _product(words, "", operator.add) == "".join(words)

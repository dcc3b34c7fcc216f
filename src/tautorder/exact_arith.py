"""Exact scalar arithmetic and small prime utilities.

Everything downstream is exact: rationals are `fractions.Fraction`, integers
are Python ints.  No float ever enters or leaves this package.  `is_prime` is
deterministic trial division, adequate for the single primes it is asked
about.  `primes_upto` lists primes from one process-wide sieve of Eratosthenes
that grows by doubling and never shrinks, so the torsion tables, which ask for
primes up to 2g+1 once per index, sieve once instead of testing every candidate.
"""
from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from math import isqrt

__all__ = [
    "PrimeLocalOrder",
    "is_prime",
    "valuation",
    "factorial_p_valuation",
    "primes_above",
    "primes_upto",
]


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for the sizes this package sees."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    top = isqrt(n)
    while f <= top:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class PrimeLocalOrder:
    """One prime-power factor p^k of a multiplicative order."""

    prime: int
    exponent: int

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.exponent < 0:
            raise ValueError("exponent must be nonnegative")

    @property
    def value(self) -> int:
        return self.prime ** self.exponent


def valuation(n: int, p: int) -> int:
    """Exponent of p in n, by repeated division.

    Raises ValueError for n = 0 (the valuation is infinite) and for non-prime p.
    """
    if n == 0:
        raise ValueError("valuation of zero undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def factorial_p_valuation(m: int, p: int) -> int:
    """Exponent of p in m!, summed as floor(m/p) + floor(m/p^2) + ...

    Never forms m! itself.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def primes_above(bound: int, count: int) -> list[int]:
    """First `count` primes strictly greater than `bound`, ascending."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    out: list[int] = []
    n = max(bound, 1) + 1
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


# (limit, every prime <= limit); replaced whole, so a reader never sees a
# half-built sieve.  The lock only serializes growth.
_sieve: tuple[int, list[int]] = (1, [])
_sieve_lock = threading.Lock()


def _grow_sieve(bound: int) -> tuple[int, list[int]]:
    global _sieve
    with _sieve_lock:
        limit = _sieve[0]
        if bound > limit:
            while limit < bound:
                limit *= 2
            flags = bytearray([1]) * (limit + 1)
            flags[:2] = b"\0\0"
            for n in range(2, isqrt(limit) + 1):
                if flags[n]:
                    flags[n * n :: n] = bytes(len(range(n * n, limit + 1, n)))
            _sieve = (limit, list(compress(range(limit + 1), flags)))
        return _sieve


def primes_upto(bound: int) -> list[int]:
    """All primes p <= bound, ascending, as a fresh list the caller may keep."""
    limit, primes = _sieve
    if bound > limit:
        _, primes = _grow_sieve(bound)
    return primes[: bisect_right(primes, bound)]

"""Exact scalar arithmetic and small prime utilities.

Everything downstream is exact: rationals are `fractions.Fraction`, integers
are Python ints.  No float ever enters or leaves this package, and only a
function that builds a `Fraction` imports `fractions`.  `is_prime`
trial-divides by the sieve's primes up to 1000, which alone decides every n
below 997^2, and runs deterministic Miller-Rabin with the twelve prime bases
2..37 beyond that.  `primes_upto` and `primes_above` read one process-wide
sieve of Eratosthenes that grows by doubling and never shrinks, so the torsion
tables, which ask for primes up to 2g+1 once per table, and the gcd oracle
sieve once instead of testing every candidate.

`factorize`, for both `ng_local` and `sp_order`, splits cofactors past 1000 by Pollard's
rho in Brent's form (BIT 1975; BIT 1980): about n^(1/4) steps, 3*10^4 for two primes near 10^9.
`_power` and `_product` are the package's power and product routines.
"""
from __future__ import annotations

import sys
from _thread import allocate_lock
from bisect import bisect_right
from itertools import compress, count
from math import gcd, isqrt
from operator import mul

__all__ = [
    "PrimeLocalOrder",
    "factorize",
    "is_prime",
    "factorial_p_valuation",
    "primes_above",
    "primes_upto",
]


# Miller-Rabin with these bases proves primality below _MR_LIMIT, the least
# strong pseudoprime to all twelve (Sorenson and Webster, Math. Comp. 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Trial division by the primes up to 1000, which alone decides every n below
    997^2, then deterministic Miller-Rabin.

    A composite is recognised at any size; a probable prime at or beyond
    _MR_LIMIT, where the bases prove nothing, raises ValueError.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the range of the deterministic primality test")
    return True


# The package's three single-value input rules, each raised from here alone.
def _check_positive(name: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{name} must be positive")


def _check_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _is_rational(x) -> bool:
    """An int or a Fraction?  Until `fractions` is loaded no Fraction exists."""
    return isinstance(x, (int, getattr(sys.modules.get("fractions"), "Fraction", int)))


class _Record:
    """Base of the frozen value types, whose fields are the subclass's own annotations."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)  # in order
    def __init__(self, *args, **kwargs) -> None:
        if kwargs:  # the fields after the positionals, in order
            args += tuple(kwargs.pop(name) for name in self._fields[len(args):] if name in kwargs)
        if len(args) != len(self._fields) or kwargs:  # a keyword left over repeats or is unknown
            raise TypeError(f"{type(self).__name__} takes exactly the fields {self._fields}")
        self.__dict__.update(zip(self._fields, args))

    @classmethod
    def _raw(cls, *fields):
        """An instance of fields already checked: the subclass's validation is skipped."""
        self = object.__new__(cls)
        self.__dict__.update(zip(cls._fields, fields))
        return self

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")
    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.__dict__ == other.__dict__ if type(other) is type(self) else NotImplemented
    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class PrimeLocalOrder(_Record):
    """One prime-power factor p^k of a multiplicative order."""

    prime: int
    exponent: int

    def __init__(self, prime: int, exponent: int) -> None:
        _check_prime(prime)
        _check_nonnegative("exponent", exponent)
        super().__init__(prime, exponent)

    @property
    def value(self) -> int:
        return self.prime ** self.exponent


def factorial_p_valuation(m: int, p: int) -> int:
    """Exponent of p in m!, summed as floor(m/p) + floor(m/p^2) + ...

    Never forms m! itself.
    """
    _check_nonnegative("m", m)
    _check_prime(p)
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def primes_above(bound: int, count: int) -> list[int]:
    """First `count` primes strictly greater than `bound`, ascending, read from
    the shared sieve, which doubles until it holds that many."""
    _check_nonnegative("count", count)
    limit, primes = _sieve
    while True:
        start = bisect_right(primes, bound)
        if len(primes) - start >= count:
            return primes[start : start + count]
        limit, primes = _grow_sieve(max(2 * limit, bound + 1))


# (limit, every prime <= limit); replaced whole, so a reader never sees a
# half-built sieve.  The lock only serializes growth.
_sieve: tuple[int, list[int]] = (1, [])
_sieve_lock = allocate_lock()  # what threading.Lock is, without importing threading


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


_SMALL_PRIMES = tuple(primes_upto(1000))  # is_prime's trial divisors, read once


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, primes ascending: trial division by the primes p <= 1000
    while p^2 <= n, then each cofactor is proved prime by `is_prime` or split by rho."""
    _check_positive("n", n)
    out: dict[int, int] = {}
    for p in primes_upto(1000):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        d = r if r * r == m else _rho_factor(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))


def _rho_factor(n: int) -> int:
    """A proper factor of the odd composite non-square n.  Brent's cycle search on
    x -> x^2 + c from x = 2, c = 1, 2, ... (no randomness, so every run splits
    alike); one gcd per 128 steps, the batch retraced when it swallows n."""
    for c in count(1):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = gcd(q, n)
                k += 128
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = gcd(x - ys, n)
        if d != n:
            return d


def _power(base, m: int, one, times):
    """base^m for m >= 0, by square-and-multiply under `times`.

    The one power routine of the package: the mod-l and graded polynomial
    rings raise to powers through it.
    """
    result = one
    while m:
        if m & 1:
            result = times(result, base)
        m >>= 1
        if m:
            base = times(base, base)
    return result


def _product(factors, one=1, times=mul):
    """The product of `factors` in order under `times`, or `one` if there are none.

    The one product routine of the package: neighbours are multiplied pairwise, level
    by level, so big operands meet big ones instead of one small factor at a time."""
    level = list(factors)
    while len(level) > 1:
        level = [*map(times, level[::2], level[1::2]), *level[len(level) & ~1:]]
    return level[0] if level else one

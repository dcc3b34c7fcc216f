"""Orders of symplectic groups over residue rings, the degree-integrality
check against the proportionality constant, and the supersingular-cycle
coefficient.

#Sp(2g, Z/n) is assembled from the prime-power factorization of n: the residue
map Sp(2g, Z/p^k) -> Sp(2g, Z/p) is surjective with kernel of size
p^{(k-1)g(2g+1)}, and #Sp(2g, F_p) = p^{g^2} prod_{i=1}^{g} (p^{2i}-1).
`factorize` splits cofactors past 1000 with Pollard's rho in Brent's form
(BIT 1975; BIT 1980), in about n^(1/4) steps: 3*10^4 for two primes near 10^9.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod

from .bernoulli_zeta import proportionality
from .exact_arith import _Record, is_prime, primes_upto

__all__ = [
    "SpOrderResult",
    "DegreeIntegralityReport",
    "factorize",
    "sp_order",
    "degree_integrality",
    "koblitz_coefficient",
]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization, primes ascending: trial division by the primes up to
    1000, then each cofactor is proved prime by `is_prime` or split by rho."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    for p in primes_upto(1000):
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


def _local_order(g: int, p: int, k: int) -> int:
    p_part = p ** ((k - 1) * g * (2 * g + 1)) * p ** (g * g)
    return p_part * prod(p ** (2 * i) - 1 for i in range(1, g + 1))


class SpOrderResult(_Record):
    g: int
    n: int
    order: int
    local_factors: dict[int, int]


def sp_order(g: int, n: int) -> SpOrderResult:
    """#Sp(2g, Z/n), multiplicative over the prime powers in n."""
    if g < 1:
        raise ValueError("g must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    local = {p: _local_order(g, p, k) for p, k in factorize(n).items()}
    return SpOrderResult(g, n, prod(local.values()), local)


class DegreeIntegralityReport(_Record):
    g: int
    n: int
    degree: Fraction
    integral: bool


def degree_integrality(g: int, n: int) -> DegreeIntegralityReport:
    """#Sp(2g, Z/n) times the absolute proportionality constant.

    Claimed integral only once the level rigidifies, hence the n >= 3 gate.
    """
    if n < 3:
        raise ValueError("integrality only claimed for n >= 3")
    degree = sp_order(g, n).order * proportionality(g).absolute_value
    return DegreeIntegralityReport(g, n, degree, degree.denominator == 1)


def koblitz_coefficient(g: int, p: int) -> int:
    """prod_{i=1}^{g} (p^i - 1), the multiplicity of the top class on the
    supersingular locus in characteristic p."""
    if g < 1:
        raise ValueError("g must be positive")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return prod(p**i - 1 for i in range(1, g + 1))

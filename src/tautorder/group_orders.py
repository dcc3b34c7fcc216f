"""Orders of symplectic groups over residue rings, the degree-integrality
check against the proportionality constant, and the supersingular-cycle
coefficient.

#Sp(2g, Z/n) is assembled from the prime-power factorization of n: the residue
map Sp(2g, Z/p^k) -> Sp(2g, Z/p) is surjective with kernel of size
p^{(k-1)g(2g+1)}, and #Sp(2g, F_p) = p^{g^2} prod_{i=1}^{g} (p^{2i}-1).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bernoulli_zeta import proportionality
from .exact_arith import is_prime

__all__ = [
    "SpOrderResult",
    "DegreeIntegralityReport",
    "factorize",
    "sp_order",
    "degree_integrality",
    "koblitz_coefficient",
]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, stopped once the cofactor is prime."""
    if n < 1:
        raise ValueError("n must be positive")
    out: dict[int, int] = {}
    m = n
    p = 2
    # the primality test runs before the loop and after each division only:
    # in the loop condition it would cost every candidate divisor
    if not is_prime(m):
        while p * p <= m:
            if m % p == 0:
                while m % p == 0:
                    out[p] = out.get(p, 0) + 1
                    m //= p
                if is_prime(m):
                    break
            p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _local_order(g: int, p: int, k: int) -> int:
    order = p ** ((k - 1) * g * (2 * g + 1)) * p ** (g * g)
    for i in range(1, g + 1):
        order *= p ** (2 * i) - 1
    return order


@dataclass(frozen=True)
class SpOrderResult:
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
    local = {p: _local_order(g, p, k) for p, k in sorted(factorize(n).items())}
    order = 1
    for v in local.values():
        order *= v
    return SpOrderResult(g, n, order, local)


@dataclass(frozen=True)
class DegreeIntegralityReport:
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
    out = 1
    for i in range(1, g + 1):
        out *= p ** i - 1
    return out

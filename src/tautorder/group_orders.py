"""Orders of symplectic groups over residue rings, the degree-integrality
check against the proportionality constant, and the supersingular-cycle
coefficient.

#Sp(2g, Z/n) is assembled from the prime-power factorization of n: the residue
map Sp(2g, Z/p^k) -> Sp(2g, Z/p) is surjective with kernel of size
p^{(k-1)g(2g+1)}, and #Sp(2g, F_p) = p^{g^2} prod_{i=1}^{g} (p^{2i}-1).
"""
from __future__ import annotations

from .bernoulli_zeta import proportionality
from .exact_arith import _Record, _check_int, _check_positive, _check_prime, _product, factorize

__all__ = [
    "SpOrderResult",
    "DegreeIntegralityReport",
    "sp_order",
    "degree_integrality",
    "koblitz_coefficient",
]


def _local_order(g: int, p: int, k: int) -> int:
    p_part = p ** ((k - 1) * g * (2 * g + 1)) * p ** (g * g)
    return p_part * _product(p ** (2 * i) - 1 for i in range(1, g + 1))


class SpOrderResult(_Record):
    g: int
    n: int
    order: int
    local_factors: dict[int, int]


def sp_order(g: int, n: int) -> SpOrderResult:
    """#Sp(2g, Z/n), multiplicative over the prime powers in n."""
    _check_positive("g", g)
    _check_int("n", n)
    if n < 2:
        raise ValueError("n must be at least 2")
    local = {p: _local_order(g, p, k) for p, k in factorize(n).items()}
    return SpOrderResult(g, n, _product(local.values()), local)


class DegreeIntegralityReport(_Record):
    g: int
    n: int
    degree: object  # a Fraction
    integral: bool


def degree_integrality(g: int, n: int) -> DegreeIntegralityReport:
    """#Sp(2g, Z/n) times the absolute proportionality constant.

    Claimed integral only once the level rigidifies, hence the n >= 3 gate.
    """
    _check_int("n", n)
    if n < 3:
        raise ValueError("integrality only claimed for n >= 3")
    degree = sp_order(g, n).order * proportionality(g).absolute_value
    return DegreeIntegralityReport(g, n, degree, degree.denominator == 1)


def koblitz_coefficient(g: int, p: int) -> int:
    """prod_{i=1}^{g} (p^i - 1), the multiplicity of the top class on the
    supersingular locus in characteristic p."""
    _check_positive("g", g)
    _check_prime("p", p)
    return _product(p**i - 1 for i in range(1, g + 1))

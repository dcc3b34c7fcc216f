"""Torsion invariants n_g: the local construction, the gcd oracle, and the
bounds and coefficients built from them.

n_g is assembled prime by prime: an odd prime p contributes p^k where k is the
largest exponent with p^{k-1}(p-1) dividing 2g (no factor when (p-1) does not
divide 2g, which confines candidates to p <= 2g+1); the prime 2 contributes
2^k where k is the largest exponent with 2^{k-2} dividing 2g, so 8 always
divides n_g.

The independent oracle computes the same number as a stabilized running gcd of
p^{2g} - 1 over primes p > 2g+1.  The two routes share no code.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .bernoulli_zeta import bernoulli, proportionality, zeta_neg
from .exact_arith import (
    PrimeLocalOrder,
    factorial_p_valuation,
    primes_above,
    primes_upto,
    valuation,
)

__all__ = [
    "NG_CROSS_CHECK",
    "NgDecomposition",
    "ProductIdentityReport",
    "TorsionReport",
    "ng_local",
    "ng_oracle",
    "product_identity_check",
    "product_identity_tail_is_trivial",
    "denominator_corollary_check",
    "torsion_report",
    "boundary_coefficient",
    "grr_chain_check",
]

# Frozen anchor values for the first four indices, published independently of
# this code; the oracle-agreement suite pins ng_local against them.
NG_CROSS_CHECK = {1: 24, 2: 240, 3: 504, 4: 480}


@dataclass(frozen=True)
class NgDecomposition:
    g: int
    factors: tuple[PrimeLocalOrder, ...]

    @property
    def value(self) -> int:
        out = 1
        for f in self.factors:
            out *= f.value
        return out


def ng_local(g: int) -> NgDecomposition:
    """n_g from the per-prime exponent rules."""
    if g < 1:
        raise ValueError("g must be positive")
    two_g = 2 * g
    factors = [PrimeLocalOrder(2, valuation(two_g, 2) + 2)]
    for p in primes_upto(two_g + 1):
        if p == 2 or two_g % (p - 1):
            continue
        # largest k with p^{k-1}(p-1) | 2g
        factors.append(PrimeLocalOrder(p, valuation(two_g // (p - 1), p) + 1))
    return NgDecomposition(g, tuple(factors))


def ng_oracle(g: int, prime_count: int = 100, stabilization_window: int = 50) -> int:
    """Running gcd of p^{2g} - 1 over the first `prime_count` primes p > 2g+1.

    The gcd must sit unchanged through the final `stabilization_window` primes,
    otherwise the sample is declared too small.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if stabilization_window < 2:
        raise ValueError("stabilization_window must be at least 2")
    if prime_count < stabilization_window:
        raise ValueError("prime_count must be at least the stabilization window")
    running = 0
    history: list[int] = []
    for p in primes_above(2 * g + 1, prime_count):
        running = gcd(running, p ** (2 * g) - 1)
        history.append(running)
    tail = history[-stabilization_window:]
    if any(v != tail[0] for v in tail):
        raise ValueError("gcd not stabilized: increase prime_count")
    return history[-1]


@dataclass(frozen=True)
class ProductIdentityReport:
    g: int
    lhs: int
    rhs: int
    equal: bool


def product_identity_check(g: int) -> ProductIdentityReport:
    """prod_{i<=g} n_i against prod_p p^(p-adic valuation of [2gp/(p-1)]!).

    The right side runs over p <= 2g+1; larger primes contribute factor 1.
    """
    if g < 1:
        raise ValueError("g must be positive")
    lhs = 1
    for i in range(1, g + 1):
        lhs *= ng_local(i).value
    rhs = 1
    for p in primes_upto(2 * g + 1):
        rhs *= p ** factorial_p_valuation((2 * g * p) // (p - 1), p)
    return ProductIdentityReport(g, lhs, rhs, lhs == rhs)


def product_identity_tail_is_trivial(g: int) -> bool:
    """Factors for 2g+1 < p <= 4g+4 are all 1 (truncating at 2g+1 loses nothing)."""
    for p in primes_upto(4 * g + 4):
        if p <= 2 * g + 1:
            continue
        if factorial_p_valuation((2 * g * p) // (p - 1), p) != 0:
            return False
    return True


def denominator_corollary_check(g: int) -> bool:
    """Denominator of |proportionality constant| divides prod_{i<=g} n_i."""
    prod = 1
    for i in range(1, g + 1):
        prod *= ng_local(i).value
    return prod % proportionality(g).absolute_value.denominator == 0


@dataclass(frozen=True)
class TorsionReport:
    g: int
    n_g: int
    lower_bound_lambda: int
    scheme_upper_bound: int
    stack_upper_bound: int
    r_orders: dict[int, int]


def torsion_report(g: int) -> TorsionReport:
    """Known order bounds for the top-degree class and the de Rham classes.

    Lower bound n_g/2 and the two upper bounds (g-1)! n_g and (g-1)! prod n_i
    are reported side by side; the gap between them is genuine, not a defect.
    r_orders[i] = n_i/2 is the exact order of the 2i-th de Rham class.
    """
    if g < 1:
        raise ValueError("g must be positive")
    values = [ng_local(i).value for i in range(1, g + 1)]
    n_g = values[-1]
    prod = 1
    for v in values:
        prod *= v
    return TorsionReport(
        g=g,
        n_g=n_g,
        lower_bound_lambda=n_g // 2,
        scheme_upper_bound=factorial(g - 1) * n_g,
        stack_upper_bound=factorial(g - 1) * prod,
        r_orders={i: values[i - 1] // 2 for i in range(1, g + 1)},
    )


def boundary_coefficient(g: int) -> Fraction:
    """(-1)^g / zeta_neg(g), always positive; an integer for small g.

    Equals (-1)^{g+1} * 2g/B_{2g}.  Integrality fails once the numerator of
    B_{2g} stops dividing 2g (first at g = 6, numerator 691), so the exact
    rational is returned as-is.
    """
    value = Fraction((-1) ** g) / zeta_neg(g)
    if value <= 0:
        raise ArithmeticError("sign bookkeeping broken")
    return value


def grr_chain_check(g: int) -> bool:
    """|B_{2g} * (2g-1) * (2g-2)! / (2g)!| agrees with |zeta_neg(g)|."""
    if g < 1:
        raise ValueError("g must be positive")
    lhs = abs(bernoulli(2 * g) * (2 * g - 1) * factorial(2 * g - 2) / factorial(2 * g))
    return lhs == abs(zeta_neg(g))

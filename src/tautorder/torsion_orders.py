"""Torsion invariants n_g: the local construction, the gcd oracle, and the
bounds and coefficients built from them.

n_g is assembled prime by prime: an odd prime p contributes p^k where k is the
largest exponent with p^{k-1}(p-1) dividing 2g (no factor when (p-1) does not
divide 2g, which confines candidates to p <= 2g+1); the prime 2 contributes
2^k where k is the largest exponent with 2^{k-2} dividing 2g, so 8 always
divides n_g.

`ng_local(g)` walks the divisors of 2g, read off `factorize(2g)`; the
tables n_1..n_g behind the reports come from one sieve pass, `_ng_values(g)`.
`boundary_coefficient(g)`, the coefficient of the generalized 12 lambda_1 = delta,
is read off zeta_neg alone; its numerator is n_g/2, which `verify grr-chain`
checks against `ng_local`.

The independent oracle computes the same number as a stabilized running gcd of
p^{2g} - 1 over primes p > 2g+1.  The two routes share only the prime sieve
(`factorize` and `is_prime` read it here, `primes_above` there) and the input
checks.  The sieve is the package's one prime source, and sharing it hides no
fault: a sieve that reports 9 as prime fails `verify oracle-agreement`.
"""
from __future__ import annotations

from math import factorial, gcd

from .bernoulli_zeta import proportionality, zeta_neg
from .exact_arith import (
    PrimeLocalOrder,
    _Record,
    _check_positive,
    _product,
    factorial_p_valuation,
    factorize,
    is_prime,
    primes_above,
    primes_upto,
)

__all__ = [
    "NG_CROSS_CHECK",
    "NgDecomposition",
    "ProductIdentityReport",
    "TorsionReport",
    "ng_local",
    "ng_oracle",
    "product_identity_check",
    "denominator_corollary_check",
    "torsion_report",
    "boundary_coefficient",
]

# Frozen anchor values for the first four indices, published independently of
# this code; the oracle-agreement suite pins ng_local against them.
NG_CROSS_CHECK = {1: 24, 2: 240, 3: 504, 4: 480}

# the gcd oracle's sample: 100 primes, the gcd unchanged through the last 50
_ORACLE_PRIME_COUNT, _ORACLE_WINDOW = 100, 50


class NgDecomposition(_Record):
    g: int
    factors: tuple[PrimeLocalOrder, ...]

    @property
    def value(self) -> int:
        return _product(f.value for f in self.factors)


def ng_local(g: int) -> NgDecomposition:
    """n_g from the per-prime exponent rules, over the divisors d of 2g with d + 1 prime."""
    _check_positive("g", g)
    fac = factorize(2 * g)
    divisors = [1]
    for q, k in fac.items():
        divisors = [d * q**i for d in divisors for i in range(k + 1)]
    factors = [PrimeLocalOrder._raw(2, fac[2] + 2)]
    for d in sorted(divisors)[1:]:  # the odd primes p = d + 1 with (p - 1) | 2g
        if is_prime(d + 1):
            # largest k with p^{k-1}(p-1) | 2g: v_p(2g) + 1, as p does not divide p - 1
            factors.append(PrimeLocalOrder._raw(d + 1, fac.get(d + 1, 0) + 1))
    return NgDecomposition(g, tuple(factors))


def _ng_values(g: int) -> list[int]:
    """[n_1, ..., n_g]: (p-1) | 2i exactly when h = (p-1)/2 divides i, and then the
    odd prime p contributes p^(1 + v_p(i/h)), one factor p at each multiple of
    h, h p, h p^2, ...  The 2-part of n_i is 2^(v_2(2i) + 2)."""
    values = [1 << ((i & -i).bit_length() + 2) for i in range(1, g + 1)]
    for p in primes_upto(2 * g + 1)[1:]:
        step = (p - 1) // 2
        while step <= g:
            for i in range(step - 1, g, step):
                values[i] *= p
            step *= p
    return values


def ng_oracle(g: int) -> int:
    """Running gcd of p^{2g} - 1 over the first _ORACLE_PRIME_COUNT primes p > 2g+1.

    The gcd must sit unchanged through the final _ORACLE_WINDOW primes, otherwise
    the sample is declared too small.  Both are read when the oracle runs.
    """
    _check_positive("g", g)
    running, history = 0, []
    for p in primes_above(2 * g + 1, _ORACLE_PRIME_COUNT):
        running = gcd(running, p ** (2 * g) - 1)
        history.append(running)
    if len(set(history[-_ORACLE_WINDOW:])) > 1:
        raise ValueError("gcd not stabilized over the sample")
    return running


class ProductIdentityReport(_Record):
    g: int
    lhs: int
    rhs: int
    equal: bool


def product_identity_check(g: int) -> ProductIdentityReport:
    """prod_{i<=g} n_i against prod_p p^(p-adic valuation of [2gp/(p-1)]!).

    The right side runs over p <= 2g+1: a larger p has [2gp/(p-1)] = 2g < p, so
    its factor p^0 is 1.
    """
    _check_positive("g", g)
    lhs = _product(_ng_values(g))
    primes = primes_upto(2 * g + 1)
    rhs = _product(p ** factorial_p_valuation((2 * g * p) // (p - 1), p) for p in primes)
    return ProductIdentityReport(g, lhs, rhs, lhs == rhs)


def denominator_corollary_check(g: int) -> bool:
    """Denominator of |proportionality constant| divides prod_{i<=g} n_i."""
    _check_positive("g", g)
    return _product(_ng_values(g)) % proportionality(g).absolute_value.denominator == 0


class TorsionReport(_Record):
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
    _check_positive("g", g)
    values = _ng_values(g)
    n_g = values[-1]
    return TorsionReport(
        g=g,
        n_g=n_g,
        lower_bound_lambda=n_g // 2,
        scheme_upper_bound=factorial(g - 1) * n_g,
        stack_upper_bound=factorial(g - 1) * _product(values),
        r_orders={i: values[i - 1] // 2 for i in range(1, g + 1)},
    )


def boundary_coefficient(g: int) -> Fraction:
    """(-1)^g / zeta_neg(g) = (-1)^{g+1} * 2g/B_{2g}, always positive.

    Its numerator is n_g/2 for every g: n_g is the denominator of B_{2g}/4g, and
    the numerator of B_{2g} is odd.  The numerator of B_{2g} survives in the
    denominator (691 at g = 6), so the exact rational is returned as-is.
    """
    value = (-1) ** g / zeta_neg(g)
    if value <= 0:
        raise ArithmeticError("sign bookkeeping broken")
    return value


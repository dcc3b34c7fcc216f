"""Bernoulli numbers, zeta values at negative odd integers, and the
proportionality constant built from them.

The even Bernoulli numbers come from the tangent numbers T_k, the integers with
tan x = sum_k T_k x^(2k-1)/(2k-1)!, by B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
Brent and Harvey's in-place recurrence ("Fast computation of Bernoulli, Tangent
and Secant numbers", 2011) gives T_1..T_n in O(n^2) multiplications of an
integer by a small int, so no `Fraction` is formed before the last division.
The values live in one `exact_arith._Grown` table, each growth appended to the
values already handed out, so B_m is the same object on every call.

Conventions: B_1 = -1/2; all odd Bernoulli numbers beyond B_1 vanish.
zeta_neg(g) means the value of the zeta function at 1-2g, computed exactly as
-B_{2g}/2g.

The proportionality constant is the alternating product
(-1)^g * prod_{j<=g} zeta_neg(j)/2 = prod_{j<=g} B_2j/(4j), as the g signs of
zeta_neg(j) = -B_2j/2j cancel (-1)^g.  The literal product is negative for
g = 2,3 mod 4, although the constant is usually quoted positive; both the
signed and the absolute value are exposed, and every divisibility statement
downstream consumes the absolute value.
"""
from __future__ import annotations

from .exact_arith import _Grown, _Record, _check_nonnegative, _check_positive, _product, primes_upto

__all__ = [
    "BernoulliTable",
    "ProportionalityResult",
    "bernoulli",
    "bernoulli_table",
    "zeta_neg",
    "proportionality",
    "von_staudt_denominator",
]


def bernoulli(m: int):
    """B_m, a Fraction, from the tangent numbers, read off one grow-only table."""
    _check_nonnegative("m", m)
    top, values = _cache.table
    if m > top:
        values = _cache.read(m)[1]
    return values[m]


def _extend_bernoulli(top: int, old: list) -> list:
    """old + [B_len(old), ..., B_top], keeping the values already handed out."""
    from fractions import Fraction
    tangent = _tangent_numbers(top // 2)
    values = old[:]
    for n in range(len(old), top + 1):
        if n == 0:
            values.append(Fraction(1))
        elif n % 2:
            values.append(Fraction(-1, 2) if n == 1 else Fraction(0))
        else:
            four_k = 1 << n
            value = Fraction(n * tangent[n // 2], four_k * (four_k - 1))
            values.append(value if n % 4 else -value)  # sign (-1)^(k-1), n = 2k
    return values


_cache = _Grown(_extend_bernoulli)


def _tangent_numbers(n: int) -> list[int]:
    """[0, T_1, ..., T_n] by Brent and Harvey's in-place Algorithm TangentNumbers."""
    t = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


class BernoulliTable(_Record):
    """Frozen view of B_0, B_1, and the even-index values up to max_index."""

    max_index: int
    values: dict[int, object]  # Fractions


def bernoulli_table(max_index: int) -> BernoulliTable:
    _check_nonnegative("max_index", max_index)
    keys = [0, 1] if max_index >= 1 else [0]
    keys += [m for m in range(2, max_index + 1, 2)]
    return BernoulliTable(max_index, {m: bernoulli(m) for m in keys})


def von_staudt_denominator(m: int) -> int:
    """Product of the primes p with (p-1) | m; the denominator of B_m for even m."""
    _check_positive("m", m)
    if m % 2:
        raise ValueError("defined for positive even m")
    return _product(p for p in primes_upto(m + 1) if m % (p - 1) == 0)


def zeta_neg(g: int):
    """zeta(1-2g) = -B_{2g}/2g, an exact Fraction."""
    _check_positive("g", g)
    return -bernoulli(2 * g) / (2 * g)


class ProportionalityResult(_Record):
    g: int
    signed_value: object  # a Fraction
    absolute_value: object  # a Fraction
    denominator: int


def proportionality(g: int) -> ProportionalityResult:
    """(-1)^g * prod_{j=1}^{g} zeta_neg(j)/2, with its absolute value and denominator."""
    from fractions import Fraction
    _check_positive("g", g)
    bs = [bernoulli(2 * j) for j in range(1, g + 1)]
    # prod B_2j / prod 4j den(B_2j): one gcd, in the final Fraction, instead of one per factor
    num = _product(b.numerator for b in bs)
    signed = Fraction(num, _product(4 * j * b.denominator for j, b in enumerate(bs, 1)))
    return ProportionalityResult(g, signed, abs(signed), abs(signed).denominator)


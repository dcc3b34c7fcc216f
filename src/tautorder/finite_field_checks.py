"""Mod-l polynomial identities for the cyclic-cover construction, and the
exact cyclotomic trace pairing.

The cover bookkeeping: for odd l the branched cover of the line with l^k-th
root structure has genus g with 2g = l^{k-1}(l-1); for l = 2 the construction
needs k > 2 and gives genus 2^{k-3}.

The unit-indexed Chern product prod_{gcd(i,l)=1} (1 + i x) over F_l has the
closed form (1 - x^{l-1})^{l^{k-1}}: the product of the units of F_l is -1,
so the constant in each degree-(l-1) block is -1, not +1.  The +1 variant
(which coincides mod 2) is reported alongside for comparison.

The trace pairing B(a, b) = Tr(a * conj(b) * w) on Z[zeta], zeta of order
l^k, twists by w = (zeta - zeta^{-1})^{-d} where d = l^{k-1}(k(l-1)-1) is the
valuation of the different (for k = 1 this is the familiar l - 2).  With that
twist the Gram matrix on the power basis is integral, antisymmetric,
zeta-invariant, and unimodular.  The exponent l^k - l^{k-1} - 1 sometimes
quoted agrees only for k = 1; the report carries both, and for the quoted
variant the determinant picks up a power of l (l^4 for l^k = 9).

One dense core does all polynomial arithmetic: `_convolve` multiplies, then
`ModPPolynomial` reduces mod l and `CyclotomicElement` mod Phi_{l^k} through
the division-free `_reduce_cyclotomic`; the field inverse is the product of the
other Galois conjugates over the rational norm.  The twist is in closed form:
sum_{j<N} j eta^j = N/(eta - 1) for eta = zeta^2 of odd order N = l^k, so
(zeta - zeta^{-1})^{-1} = u/l^k with u = sum_{j<N} j zeta^{2j+1} (Washington,
ch. 2).  The Gram matrix applies the closed form of Tr(zeta^m) (l^{k-1}(l-1)
when l^k | m, -l^{k-1} when only l^{k-1} | m, else 0) to the integer
coordinates of u^d, and takes its determinant by fraction-free Bareiss
elimination.  `CyclotomicElement.trace` and the inverse-and-power twist are
the slower independent routes the tests check these closed forms against.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exact_arith import _power, is_prime

__all__ = [
    "ModPPolynomial",
    "CyclotomicElement",
    "CyclotomicChernReport",
    "SymplecticPairingReport",
    "hurwitz_genus",
    "cyclotomic_chern_product",
    "cyclotomic_chern_check",
    "symplectic_pairing_check",
    "different_exponent",
]

# the largest rank symplectic_pairing_check accepts
_MAX_PAIRING_RANK = 16


# -- the polynomial core ---------------------------------------------------


def _convolve(a, b) -> list:
    """Dense product of two coefficient lists, constant term first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _reduce_cyclotomic(coeffs, l: int, k: int) -> list:
    """coeffs mod Phi_{l^k}, as its n = l^{k-1}(l-1) power-basis coordinates.

    Exponents fold mod l^k since x^{l^k} = 1; then, as Phi_{l^k} = sum_{j<l}
    x^{j l^{k-1}}, x^{n+r} = -sum_{j<l-1} x^{j l^{k-1}+r} for 0 <= r < l^{k-1}.
    """
    step = l ** (k - 1)
    level, n = step * l, step * (l - 1)
    out = [0] * level
    for i, c in enumerate(coeffs):
        out[i % level] += c
    for r in range(step):
        c = out[n + r]
        if c:
            for j in range(r, n, step):
                out[j] -= c
    del out[n:]
    return out


class ModPPolynomial:
    """Dense univariate polynomial over Z/l, coefficients canonical in 0..l-1."""

    __slots__ = ("modulus", "coeffs")

    def __init__(self, modulus: int, coeffs) -> None:
        if not is_prime(modulus):
            raise ValueError(f"{modulus} is not prime")
        cs = [c % modulus for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ModPPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coefficient(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other: "ModPPolynomial") -> "ModPPolynomial":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return ModPPolynomial(
            self.modulus,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __mul__(self, other: "ModPPolynomial") -> "ModPPolynomial":
        self._check(other)
        return ModPPolynomial(self.modulus, _convolve(self.coeffs, other.coeffs))

    def __pow__(self, k: int) -> "ModPPolynomial":
        if k < 0:
            raise ValueError("negative power")
        return _power(self, k, ModPPolynomial(self.modulus, [1]), mul)

    def _check(self, other: "ModPPolynomial") -> None:
        if self.modulus != other.modulus:
            raise ValueError("mismatched moduli")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModPPolynomial):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.modulus, self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                x = "x" if i == 1 else f"x^{i}"
                parts.append(x if c == 1 else f"{c}*{x}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ModPPolynomial(mod {self.modulus}: {self})"


def _check_prime_power(l: int, k: int) -> None:
    if not is_prime(l):
        raise ValueError(f"{l} is not prime")
    if k < 1:
        raise ValueError("k must be positive")


def hurwitz_genus(l: int, k: int) -> int:
    """Genus of the l^k cyclic cover: l^{k-1}(l-1)/2 for odd l, 2^{k-3} for l=2."""
    _check_prime_power(l, k)
    if l == 2:
        if k < 3:
            raise ValueError("the construction requires k > 2 when l = 2")
        return 2 ** (k - 3)
    return l ** (k - 1) * (l - 1) // 2


def cyclotomic_chern_product(l: int, k: int) -> ModPPolynomial:
    """prod over 1 <= i <= l^k with gcd(i, l) = 1 of (1 + i x), mod l."""
    _check_prime_power(l, k)
    out = ModPPolynomial(l, [1])
    for i in range(1, l**k + 1):
        if gcd(i, l) == 1:
            out = out * ModPPolynomial(l, [1, i])
    return out


@dataclass(frozen=True)
class CyclotomicChernReport:
    l: int
    k: int
    product: ModPPolynomial
    closed_form: ModPPolynomial
    plus_sign_form: ModPPolynomial
    equal: bool
    plus_sign_form_matches: bool
    top_degree: int
    top_coefficient_nonzero: bool


def cyclotomic_chern_check(l: int, k: int) -> CyclotomicChernReport:
    """Compare the unit product with (1 -/+ x^{l-1})^{l^{k-1}} and inspect the top term."""
    product = cyclotomic_chern_product(l, k)
    block = [1] + [0] * (l - 2) + [-1] if l > 2 else [1, 1]
    closed = ModPPolynomial(l, block) ** (l ** (k - 1))
    plus_block = [1] + [0] * (l - 2) + [1] if l > 2 else [1, 1]
    plus_form = ModPPolynomial(l, plus_block) ** (l ** (k - 1))
    top = l ** (k - 1) * (l - 1)
    return CyclotomicChernReport(
        l=l,
        k=k,
        product=product,
        closed_form=closed,
        plus_sign_form=plus_form,
        equal=product == closed,
        plus_sign_form_matches=product == plus_form,
        top_degree=top,
        top_coefficient_nonzero=product.coefficient(top) != 0,
    )


# -- exact cyclotomic arithmetic -------------------------------------------


class CyclotomicElement:
    """Element of Q(zeta), zeta a primitive l^k-th root of unity, on the power basis."""

    __slots__ = ("l", "k", "coeffs")

    def __init__(self, l: int, k: int, coeffs) -> None:
        _check_prime_power(l, k)
        cs = tuple(Fraction(c) for c in _reduce_cyclotomic(coeffs, l, k))
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicElement is immutable")

    @property
    def level(self) -> int:
        return self.l ** self.k

    @property
    def degree(self) -> int:
        return self.l ** (self.k - 1) * (self.l - 1)

    @classmethod
    def zeta_power(cls, l: int, k: int, m: int) -> "CyclotomicElement":
        m = m % (l**k)
        return cls(l, k, [0] * m + [1])

    def _check(self, other: "CyclotomicElement") -> None:
        if (self.l, self.k) != (other.l, other.k):
            raise ValueError("mismatched cyclotomic fields")

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.l, self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(
            self.l, self.k, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        self._check(other)
        return CyclotomicElement(self.l, self.k, _convolve(self.coeffs, other.coeffs))

    def __pow__(self, m: int) -> "CyclotomicElement":
        if m < 0:
            return (self ** (-m)).inverse()
        return _power(self, m, CyclotomicElement(self.l, self.k, [1]), mul)

    def _galois(self, a: int) -> "CyclotomicElement":
        """The automorphism zeta -> zeta^a, for a prime to l."""
        level = self.level
        out = [0] * level
        for i, c in enumerate(self.coeffs):
            out[a * i % level] += c
        return CyclotomicElement(self.l, self.k, out)

    def conj(self) -> "CyclotomicElement":
        """The automorphism zeta -> zeta^{-1}."""
        return self._galois(-1)

    def inverse(self) -> "CyclotomicElement":
        """Field inverse: the product of the other Galois conjugates over the norm."""
        if not any(self.coeffs):
            raise ZeroDivisionError("zero has no inverse")
        others = CyclotomicElement(self.l, self.k, [1])
        for a in range(2, self.level):
            if a % self.l:
                others = others * self._galois(a)
        norm = (self * others).coeffs[0]  # rational, so on the constant coordinate
        return CyclotomicElement(self.l, self.k, [c / norm for c in others.coeffs])

    def trace(self) -> Fraction:
        """Field trace, as the trace of the multiplication-by-self matrix.

        O(n^3) through n multiplications; the pairing uses the closed form in
        `_zeta_power_trace` instead, and this route is its test oracle.
        """
        n = self.degree
        total = Fraction(0)
        for j in range(n):
            col = self * CyclotomicElement.zeta_power(self.l, self.k, j)
            total += col.coeffs[j]
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        return (self.l, self.k, self.coeffs) == (other.l, other.k, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.l, self.k, self.coeffs))

    def __repr__(self) -> str:
        return f"CyclotomicElement(l={self.l}, k={self.k}, {list(self.coeffs)})"


# -- the pairing -----------------------------------------------------------


def different_exponent(l: int, k: int) -> int:
    """Valuation of the different of Z[zeta_{l^k}] at the prime above l."""
    return l ** (k - 1) * (k * (l - 1) - 1)


@dataclass(frozen=True)
class SymplecticPairingReport:
    l: int
    k: int
    rank: int
    gram_determinant: int
    integral: bool
    skew: bool
    invariant: bool
    exponent: int
    quoted_exponent: int
    exponent_matches_quoted: bool
    quoted_exponent_determinant: "int | None"


def _zeta_power_trace(l: int, k: int, m: int) -> int:
    """Tr(zeta^m) from Q(zeta_{l^k}) to Q, in closed form (Washington, ch. 2)."""
    step = l ** (k - 1)
    if m % (step * l) == 0:
        return step * (l - 1)
    if m % step == 0:
        return -step
    return 0


def _twist_numerator(l: int, k: int, exponent: int) -> list[int]:
    """u^exponent with u = sum_{j<l^k} j zeta^{2j+1} = l^k / (zeta - zeta^{-1}), odd l."""
    level = l**k
    u = [(p - 1) * (level + 1) // 2 % level for p in range(level)]  # 2 u_p + 1 = p mod l^k
    return _power(
        _reduce_cyclotomic(u, l, k), exponent, [1],
        lambda a, b: _reduce_cyclotomic(_convolve(a, b), l, k),
    )


def _pairing_gram(l: int, k: int, exponent: int) -> list[list[Fraction]]:
    n = l ** (k - 1) * (l - 1)
    # the twist (zeta - zeta^{-1})^{-exponent} is num / den
    num, den = _twist_numerator(l, k, exponent), l ** (k * exponent)
    # Gram[i][j] = Tr(zeta^i conj(zeta^j) twist) = Tr(zeta^{i-j} twist), and
    # Tr(zeta^m twist) = sum_t num_t Tr(zeta^{m+t}) / den since the trace is Q-linear
    traces = {
        m: Fraction(
            sum(c * _zeta_power_trace(l, k, m + t) for t, c in enumerate(num) if c), den
        )
        for m in range(-(n - 1), n)
    }
    return [[traces[i - j] for j in range(n)] for i in range(n)]


def _det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction-free Bareiss elimination (Bareiss, 1968).

    The matrix is scaled to integers by the lcm L of its denominators; every
    division below is exact, and det(matrix) = det(L * matrix) / L^n.
    """
    n = len(matrix)
    scale = lcm(*(c.denominator for row in matrix for c in row))
    a = [[c.numerator * (scale // c.denominator) for c in row] for row in matrix]
    sign, prev = 1, 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p, top = a[col][col], a[col]
        for r in range(col + 1, n):
            row, f = a[r], a[r][col]
            for c in range(col + 1, n):
                row[c] = (row[c] * p - f * top[c]) // prev
        prev = p
    return Fraction(sign * a[-1][-1] if n else 1, scale**n)


def symplectic_pairing_check(l: int, k: int) -> SymplecticPairingReport:
    """Gram matrix of B(a,b) = Tr(a conj(b) (zeta-zeta^{-1})^{-d}) on the power basis.

    d is the different valuation, so the form is integral, antisymmetric,
    zeta-invariant and unimodular.  The quoted exponent l^k - l^{k-1} - 1 is
    also reported (identical for k = 1); when it differs, so does its
    determinant, by the norm of the change of twist.
    """
    if l == 2:
        raise ValueError("the pairing is built for odd l")
    _check_prime_power(l, k)
    rank = l ** (k - 1) * (l - 1)
    if rank > _MAX_PAIRING_RANK:
        raise ValueError(f"rank {rank} exceeds the cap {_MAX_PAIRING_RANK}")
    d = different_exponent(l, k)
    quoted = l**k - l ** (k - 1) - 1
    gram = _pairing_gram(l, k, d)
    integral = all(c.denominator == 1 for row in gram for c in row)
    if integral:  # the checks below then run on ints, not Fractions
        gram = [[c.numerator for c in row] for row in gram]
    skew = all(gram[j][i] == -gram[i][j] for i in range(rank) for j in range(rank))
    # multiplication by zeta on the power basis must preserve the form:
    # Z G Z^T == G, where row i of Z is zeta^{i+1}, sparse (a unit vector for
    # i < rank - 1, l - 1 entries for the last row)
    zrows = [
        [(a, c) for a, c in enumerate(_reduce_cyclotomic([0] * (i + 1) + [1], l, k)) if c]
        for i in range(rank)
    ]
    zg = [[sum(c * gram[a][b] for a, c in zrow) for b in range(rank)] for zrow in zrows]
    transformed = [
        [sum(zg_row[b] * c for b, c in zrow) for zrow in zrows] for zg_row in zg
    ]
    invariant = transformed == [list(row) for row in gram]
    det = _det(gram)
    if det.denominator != 1:
        raise ArithmeticError("determinant of an integral form must be an integer")
    # the quoted twist differs by (zeta - zeta^{-1})^{d - quoted}, of norm l^{d - quoted}
    quoted_det = None if quoted == d else l ** (d - quoted) * int(det)
    return SymplecticPairingReport(
        l=l,
        k=k,
        rank=rank,
        gram_determinant=int(det),
        integral=integral,
        skew=skew,
        invariant=invariant,
        exponent=d,
        quoted_exponent=quoted,
        exponent_matches_quoted=quoted == d,
        quoted_exponent_determinant=quoted_det,
    )

"""The classical trace-pairing route, kept as a test oracle.

`symplectic_pairing_check` twists by the small generator w0 = (zeta^s -
zeta^{-s}) / l^k of the inverse different.  This module keeps the route it
replaced: exact field arithmetic in Q(zeta_{l^k}) (`CyclotomicElement`, with
the field inverse as the product of the other Galois conjugates over the
rational norm, and the trace as the trace of the multiplication matrix), the
twist (zeta - zeta^{-1})^{-d} in closed form through `twist_numerator`, its
Fraction Gram matrix, and a Bareiss determinant that scales a rational matrix
to integers.  `_reduce_cyclotomic`, the division-free reduction mod
Phi_{l^k}, and `_power`, the square-and-multiply that `CyclotomicElement`
powers and `twist_numerator` run on, live here too.  The module shares only `_convolve` and `_zeta_power_trace` with
the package.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from tautorder.finite_field_checks import _convolve, _zeta_power_trace


def _power(base, m: int, one, times):
    """base^m for m >= 0, by square-and-multiply under `times`."""
    result = one
    while m:
        if m & 1:
            result = times(result, base)
        m >>= 1
        if m:
            base = times(base, base)
    return result


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


class CyclotomicElement:
    """Element of Q(zeta), zeta a primitive l^k-th root of unity, on the power basis."""

    __slots__ = ("l", "k", "coeffs")

    def __init__(self, l: int, k: int, coeffs) -> None:
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

    def __add__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return CyclotomicElement(
            self.l, self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "CyclotomicElement") -> "CyclotomicElement":
        return CyclotomicElement(
            self.l, self.k, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __mul__(self, other: "CyclotomicElement") -> "CyclotomicElement":
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
        """Field trace, as the trace of the multiplication-by-self matrix."""
        total = Fraction(0)
        for j in range(self.degree):
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


def twist_numerator(l: int, k: int, exponent: int) -> list[int]:
    """u^exponent with u = sum_{j<l^k} j zeta^{2j+1} = l^k / (zeta - zeta^{-1}), odd l.

    sum_{j<N} j eta^j = N/(eta - 1) for eta = zeta^2 of odd order N = l^k
    (Washington, ch. 2), so u is integral and u^exponent needs no division.
    """
    level = l**k
    u = [(p - 1) * (level + 1) // 2 % level for p in range(level)]  # 2 u_p + 1 = p mod l^k
    return _power(
        _reduce_cyclotomic(u, l, k), exponent, [1],
        lambda a, b: _reduce_cyclotomic(_convolve(a, b), l, k),
    )


def classical_gram(l: int, k: int, exponent: int) -> list[list[Fraction]]:
    """Gram matrix of Tr(a conj(b) (zeta - zeta^{-1})^{-exponent}) on the power basis."""
    n = l ** (k - 1) * (l - 1)
    # the twist (zeta - zeta^{-1})^{-exponent} is num / den
    num, den = twist_numerator(l, k, exponent), l ** (k * exponent)
    # Gram[i][j] = Tr(zeta^i conj(zeta^j) twist) = Tr(zeta^{i-j} twist), and
    # Tr(zeta^m twist) = sum_t num_t Tr(zeta^{m+t}) / den since the trace is Q-linear
    traces = {
        m: Fraction(
            sum(c * _zeta_power_trace(l, k, m + t) for t, c in enumerate(num) if c), den
        )
        for m in range(-(n - 1), n)
    }
    return [[traces[i - j] for j in range(n)] for i in range(n)]


def rational_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Bareiss elimination after scaling to integers.

    The matrix is scaled by the lcm L of its denominators; every division
    below is exact, and det(matrix) = det(L * matrix) / L^n.
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


def classical_pairing(l: int, k: int) -> dict:
    """The determinant, the four flags and the quoted determinant by the classical twist."""
    n = l ** (k - 1) * (l - 1)
    d = l ** (k - 1) * (k * (l - 1) - 1)
    quoted = l**k - l ** (k - 1) - 1
    gram = classical_gram(l, k, d)
    # Z G Z^T with row i of Z the coordinates of zeta^{i+1}
    z = [CyclotomicElement.zeta_power(l, k, i + 1).coeffs for i in range(n)]
    zg = [[sum(z[i][a] * gram[a][b] for a in range(n)) for b in range(n)] for i in range(n)]
    transformed = [[sum(zg[i][b] * z[j][b] for b in range(n)) for j in range(n)] for i in range(n)]
    return {
        "gram_determinant": rational_det(gram),
        "integral": all(c.denominator == 1 for row in gram for c in row),
        "skew": all(gram[j][i] == -gram[i][j] for i in range(n) for j in range(n)),
        "invariant": transformed == gram,
        "quoted_exponent_determinant": (
            None if quoted == d else rational_det(classical_gram(l, k, quoted))
        ),
    }

"""Mod-l polynomial identities for the cyclic-cover construction, and the
exact cyclotomic trace pairing.

The cover bookkeeping: for odd l the branched cover of the line with l^k-th
root structure has genus g with 2g = l^{k-1}(l-1); for l = 2 the construction
needs k > 2 and gives genus 2^{k-3}.

The unit-indexed Chern product prod_{gcd(i,l)=1} (1 + i x) over F_l has the
closed form (1 - x^{l-1})^{l^{k-1}}: the product of the units of F_l is -1,
so the constant in each degree-(l-1) block is -1, not +1.  As (a + b)^l =
a^l + b^l mod l, that is 1 - x^top with top = l^{k-1}(l-1), and the check
writes it down so, sharing no arithmetic with the product it checks.  The +1
variant 1 + x^top (which coincides mod 2) is written down the same way and
reported for comparison.

The trace pairing B(a, b) = Tr(a * conj(b) * w) on Z[zeta], zeta of order
l^k, needs a twist w that generates the inverse different lambda^{-d}, where
d = l^{k-1}(k(l-1)-1) is the valuation of the different (for k = 1 this is the
familiar l - 2).  With such a twist the Gram matrix on the power basis is
integral, antisymmetric, zeta-invariant, and unimodular.  The exponent
l^k - l^{k-1} - 1 sometimes quoted agrees only for k = 1; the report carries
both, and for the quoted variant the determinant picks up a power of l (l^4
for l^k = 9).

The twist is the small generator w0 = (zeta^s - zeta^{-s}) / l^k, s = l^{k-1}:
lambda^s is associate to 1 - zeta^s and v_lambda(l^k) = k l^{k-1}(l-1), so w0
generates lambda^{s - k l^{k-1}(l-1)} = lambda^{-d} (Washington, ch. 2-3;
Neukirch, III.2).  The classical twist (zeta - zeta^{-1})^{-d} generates the
same ideal, so it is eps * w0 with eps a unit; both twists are negated by
complex conjugation, so eps is real, and a real unit of a CM field has norm 1.
The determinant, the four flags and the quoted determinant are therefore those
of the classical twist, while the Gram entries stay in {-1, 0, 1}: by the
closed form of Tr(zeta^m) (l^{k-1}(l-1) when l^k | m, -l^{k-1} when only
l^{k-1} | m, else 0, Washington, ch. 2), the entry at i - j = m is
(Tr zeta^{m+s} - Tr zeta^{m-s}) / l^k.  The determinant comes from
fraction-free Bareiss elimination on integers.  The classical twist, the field
arithmetic it needs and the matrix trace live on in the tests as the
independent route these closed forms are checked against.

One dense core, `_convolve`, multiplies coefficient lists: the unit product's
tree here, and the field arithmetic of the test oracle.  `ModPPolynomial` is
the result record, canonical mod l, with no arithmetic of its own; it prints its
nonzero terms ascending through exact_arith's term writer, as GradedPolynomial
does.  The rows of multiplication by zeta are the companion matrix of Phi_{l^k}.
"""
from __future__ import annotations

from .exact_arith import (
    _Record, _check_int, _check_iterable, _check_positive, _check_prime, _product, _render_terms,
)

__all__ = [
    "ModPPolynomial",
    "CyclotomicChernReport",
    "SymplecticPairingReport",
    "hurwitz_genus",
    "cyclotomic_chern_product",
    "cyclotomic_chern_check",
    "symplectic_pairing_check",
    "different_exponent",
]

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


class ModPPolynomial(_Record):
    """Dense univariate polynomial over Z/l, coefficients canonical in 0..l-1."""

    modulus: int
    coeffs: tuple[int, ...]

    def __init__(self, modulus: int, coeffs) -> None:
        _check_prime("modulus", modulus)
        _check_iterable("coeffs", coeffs)
        cs = list(coeffs)
        for c in cs:
            _check_int("coefficient", c)
        cs = [c % modulus for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        super().__init__(modulus, tuple(cs))

    def __str__(self) -> str:
        return _render_terms(("x",), (((i,), c) for i, c in enumerate(self.coeffs) if c))


def hurwitz_genus(l: int, k: int) -> int:
    """Genus of the l^k cyclic cover: l^{k-1}(l-1)/2 for odd l, 2^{k-3} for l=2."""
    _check_prime("l", l)
    _check_positive("k", k)
    if l == 2:
        if k < 3:
            raise ValueError("the construction requires k > 2 when l = 2")
        return 2 ** (k - 3)
    return l ** (k - 1) * (l - 1) // 2


def cyclotomic_chern_product(l: int, k: int) -> ModPPolynomial:
    """prod over 1 <= i <= l^k with gcd(i, l) = 1 of (1 + i x), mod l."""
    _check_prime("l", l)
    _check_positive("k", k)
    units = ([1, i % l] for i in range(1, l**k + 1) if i % l)  # the units, as l is prime
    return ModPPolynomial(l, _product(units, [1], lambda a, b: [c % l for c in _convolve(a, b)]))


class CyclotomicChernReport(_Record):
    l: int
    k: int
    product: ModPPolynomial
    closed_form: ModPPolynomial
    plus_sign_form: ModPPolynomial
    equal: bool
    top_degree: int
    top_coefficient_nonzero: bool


def cyclotomic_chern_check(l: int, k: int) -> CyclotomicChernReport:
    """Compare the unit product with (1 -/+ x^{l-1})^{l^{k-1}} and inspect the top term."""
    product = cyclotomic_chern_product(l, k)
    top = l ** (k - 1) * (l - 1)
    # (a + b)^l = a^l + b^l mod l, so (1 -/+ x^{l-1})^{l^{k-1}} = 1 -/+ x^top
    closed = ModPPolynomial._raw(l, (1,) + (0,) * (top - 1) + (l - 1,))
    return CyclotomicChernReport(
        l=l,
        k=k,
        product=product,
        closed_form=closed,
        plus_sign_form=ModPPolynomial._raw(l, (1,) + (0,) * (top - 1) + (1,)),
        equal=product == closed,
        top_degree=top,
        top_coefficient_nonzero=top < len(product.coeffs) and product.coeffs[top] != 0,
    )


# -- the pairing -----------------------------------------------------------


def different_exponent(l: int, k: int) -> int:
    """Valuation of the different of Z[zeta_{l^k}] at the prime above l."""
    _check_prime("l", l)
    _check_positive("k", k)
    return l ** (k - 1) * (k * (l - 1) - 1)


class SymplecticPairingReport(_Record):
    l: int
    k: int
    rank: int
    gram_determinant: int
    integral: bool
    skew: bool
    invariant: bool
    exponent: int
    quoted_exponent: int
    quoted_exponent_determinant: "int | None"


def _zeta_power_trace(l: int, k: int, m: int) -> int:
    """Tr(zeta^m) from Q(zeta_{l^k}) to Q, in closed form (Washington, ch. 2)."""
    step = l ** (k - 1)
    if m % (step * l) == 0:
        return step * (l - 1)
    if m % step == 0:
        return -step
    return 0


def _pairing_gram(l: int, k: int) -> tuple[list[list[int]], bool]:
    """Gram matrix of B(a, b) = Tr(a conj(b) w0) on the power basis, and
    whether every entry came out integral.

    With s = l^{k-1}, B(zeta^i, zeta^j) = Tr(zeta^{i-j} w0) = t(i - j) where
    t(m) = (Tr zeta^{m+s} - Tr zeta^{m-s}) / l^k, since the trace is Q-linear.
    """
    n, s, level = l ** (k - 1) * (l - 1), l ** (k - 1), l**k
    t, integral = {}, True
    for m in range(-(n - 1), n):
        t[m], rem = divmod(_zeta_power_trace(l, k, m + s) - _zeta_power_trace(l, k, m - s), level)
        integral = integral and rem == 0
    return [[t[i - j] for j in range(n)] for i in range(n)], integral


def _det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination
    (Bareiss, 1968); every division below is exact."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    sign, prev = 1, 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p, top = a[col][col], a[col]
        for r in range(col + 1, n):
            row, f = a[r], a[r][col]
            for c in range(col + 1, n):
                row[c] = (row[c] * p - f * top[c]) // prev
        prev = p
    return sign * a[-1][-1] if n else 1


def symplectic_pairing_check(l: int, k: int) -> SymplecticPairingReport:
    """Gram matrix of B(a,b) = Tr(a conj(b) w0) on the power basis, w0 the
    small generator (zeta^s - zeta^{-s}) / l^k of the inverse different.

    w0 generates lambda^{-d}, d the different valuation, so the form is
    integral, antisymmetric, zeta-invariant and unimodular.  The quoted
    exponent l^k - l^{k-1} - 1 is also reported (identical for k = 1); when it
    differs, so does its determinant, by the norm of the change of twist.
    A Gram entry that is not integral is floored and reported as `integral`
    False, so a violated identity is a failed check rather than an error.
    """
    d = different_exponent(l, k)  # refuses l not prime and k < 1
    if l == 2:
        raise ValueError("the pairing is built for odd l")
    s = l ** (k - 1)
    rank, quoted = s * (l - 1), l**k - s - 1
    gram, integral = _pairing_gram(l, k)
    skew = all(gram[j][i] == -gram[i][j] for i in range(rank) for j in range(rank))
    # multiplication by zeta on the power basis must preserve the form:
    # Z G Z^T == G, Z the companion matrix of Phi_{l^k} = sum_{j<l} x^{j s}:
    # row i is zeta^{i+1}, a unit vector for i < rank - 1, and
    # zeta^rank = -sum_{j<l-1} zeta^{j s}
    zrows = [[(i + 1, 1)] for i in range(rank - 1)] + [[(j * s, -1) for j in range(l - 1)]]
    zg = [[sum(c * gram[a][b] for a, c in zrow) for b in range(rank)] for zrow in zrows]
    transformed = [
        [sum(zg_row[b] * c for b, c in zrow) for zrow in zrows] for zg_row in zg
    ]
    invariant = transformed == [list(row) for row in gram]
    det = _det(gram)
    # the quoted twist differs by a real unit times (zeta - zeta^{-1})^{d - quoted},
    # of norm l^{d - quoted}
    quoted_det = None if quoted == d else l ** (d - quoted) * det
    return SymplecticPairingReport(
        l=l,
        k=k,
        rank=rank,
        gram_determinant=det,
        integral=integral,
        skew=skew,
        invariant=invariant,
        exponent=d,
        quoted_exponent=quoted,
        quoted_exponent_determinant=quoted_det,
    )

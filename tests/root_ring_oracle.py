"""Truncated weighted polynomial rings as plain term maps, kept as a test oracle.

`GradedPolynomial` is a result record with no arithmetic.  The tests build
their expected values here instead: `RingElement` is a dict from exponent
tuples to exact coefficients with `+ - * **`, truncated at a fixed weighted
degree, plus `constant`, `variable` and `component`.  On top of it sit the
generators `root_variables` and `class_variables`, the elementary symmetric
polynomials `elementary_symmetric`, `substitute_elementary` (the inverse of
`symmetric_reduce`) and a truncated `inverse`.

The module reads a `GradedPolynomial` only through `names`, `weights`,
`truncation` and `terms`, and builds one only through its public constructor,
so it shares neither the packed monomials nor the product kernel of the code
it checks.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, mul

from tautorder import GradedPolynomial


class RingElement:
    """An element of Q[v1..vn] / (weighted degree > truncation), as {exponents: coefficient}."""

    def __init__(self, names, weights, truncation: int, terms) -> None:
        self.names, self.weights, self.truncation = tuple(names), tuple(weights), truncation
        self.terms = {tuple(mon): c for mon, c in dict(terms).items()
                      if c != 0 and self.degree(mon) <= truncation}

    @classmethod
    def of(cls, poly) -> "RingElement":
        """The element with the ring and terms of a GradedPolynomial (or a RingElement)."""
        return cls(poly.names, poly.weights, poly.truncation, poly.terms)

    def polynomial(self) -> GradedPolynomial:
        return GradedPolynomial(self.names, self.weights, self.truncation, self.terms)

    def degree(self, mon) -> int:
        return sum(map(mul, mon, self.weights))

    def _ring(self) -> tuple:
        return self.names, self.weights, self.truncation

    def _with_terms(self, terms) -> "RingElement":
        return RingElement(self.names, self.weights, self.truncation, terms)

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, (int, Fraction)):
            return self.constant(other)
        if not isinstance(other, RingElement):
            other = RingElement.of(other)  # a GradedPolynomial
        if other._ring() != self._ring():
            raise ValueError("elements of different rings")
        return other

    def constant(self, value) -> "RingElement":
        return self._with_terms({(0,) * len(self.names): value})

    def variable(self, index: int) -> "RingElement":
        if not 0 <= index < len(self.names):
            raise ValueError("variable index out of range")
        return self._with_terms({tuple(int(i == index) for i in range(len(self.names))): 1})

    def component(self, degree: int) -> "RingElement":
        """The terms of weighted degree `degree`."""
        return self._with_terms({m: c for m, c in self.terms.items() if self.degree(m) == degree})

    def __add__(self, other) -> "RingElement":
        out = dict(self.terms)
        for mon, c in self._coerce(other).terms.items():
            out[mon] = out.get(mon, 0) + c
        return self._with_terms(out)

    __radd__ = __add__

    def __neg__(self) -> "RingElement":
        return self._with_terms({mon: -c for mon, c in self.terms.items()})

    def __sub__(self, other) -> "RingElement":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "RingElement":
        return -self + other

    def __mul__(self, other) -> "RingElement":
        other = self._coerce(other)
        by_degree = [[] for _ in range(self.truncation + 1)]
        for mon, c in other.terms.items():
            by_degree[self.degree(mon)].append((mon, c))
        out: dict = {}
        for ma, ca in self.terms.items():
            for bucket in by_degree[: self.truncation - self.degree(ma) + 1]:
                for mb, cb in bucket:
                    mon = tuple(map(add, ma, mb))
                    out[mon] = out.get(mon, 0) + ca * cb
        return self._with_terms(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RingElement":
        if k < 0:
            raise ValueError("negative power")
        out, base = self.constant(1), self
        while k:  # square and multiply
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other) -> bool:
        """Equal to a RingElement or a GradedPolynomial of the same ring and terms."""
        if not isinstance(other, (RingElement, GradedPolynomial)):
            return NotImplemented
        other = RingElement.of(other)
        return self._ring() == other._ring() and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"RingElement({self.names}, {self.weights}, {self.truncation}, {self.terms!r})"


def _generators(names, weights, truncation: int) -> tuple[RingElement, ...]:
    zero = RingElement(names, weights, truncation, {})
    return tuple(zero.variable(i) for i in range(len(zero.names)))


def root_variables(g: int, truncation: int) -> tuple[RingElement, ...]:
    """Weight-1 generators x1..xg."""
    if g < 1:
        raise ValueError("g must be positive")
    return _generators([f"x{i}" for i in range(1, g + 1)], (1,) * g, truncation)


def class_variables(g: int, truncation: int, symbol: str = "c") -> tuple[RingElement, ...]:
    """Generators of weights 1..g named symbol1..symbolg."""
    if g < 1:
        raise ValueError("g must be positive")
    return _generators([f"{symbol}{i}" for i in range(1, g + 1)], range(1, g + 1), truncation)


def elementary_symmetric(g: int, i: int, truncation: int) -> RingElement:
    """e_i(x1..xg), the sum over i-element subsets of the product of their roots."""
    xs = root_variables(g, truncation)
    out = xs[0].constant(0)
    for subset in combinations(xs, i):
        term = xs[0].constant(1)
        for x in subset:
            term = term * x
        out = out + term
    return out


def substitute_elementary(class_poly) -> RingElement:
    """Substitute e_i(x1..xg) for the i-th generator c_i of weight i."""
    g = len(class_poly.names)
    if tuple(class_poly.weights) != tuple(range(1, g + 1)):
        raise ValueError("expects class variables of weights 1..g")
    es = [elementary_symmetric(g, i, class_poly.truncation) for i in range(1, g + 1)]
    out = es[0].constant(0)
    for exps, coeff in class_poly.terms.items():
        term = es[0].constant(coeff)
        for e, a in zip(es, exps):
            term = term * e**a
        out = out + term
    return out


def inverse(u: RingElement) -> RingElement:
    """u^-1 in the truncated ring, for u with a nonzero constant term c0:
    (1/c0) sum_k m^k with m = 1 - u/c0, whose powers past the truncation vanish."""
    c0 = u.terms.get((0,) * len(u.names), 0)
    if c0 == 0:
        raise ValueError("inverse requires a nonzero constant term")
    m = 1 - u * Fraction(1, c0)
    total = power = u.constant(1)
    for _ in range(u.truncation):
        power = power * m
        total = total + power
    return total * Fraction(1, c0)

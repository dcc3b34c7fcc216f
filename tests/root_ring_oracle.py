"""The weight-1 root ring x1..xg beyond what the package keeps, as a test oracle.

The package keeps the root-ring entry points the benchmark calls
(`GradedPolynomial`, `chern_character`, `todd_class`, `symmetric_reduce`).  This
module keeps the rest: the generators `root_variables`, the elementary symmetric
polynomials `elementary_symmetric`, `substitute_elementary` (the inverse of
`symmetric_reduce`) and a truncated `inverse`.  Every one is built through the
public `GradedPolynomial` arithmetic alone, so none shares the packed e-monomial
table that `symmetric_reduce` reads.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from tautorder.chern_symbolics import GradedPolynomial


def root_variables(g: int, truncation: int) -> tuple[GradedPolynomial, ...]:
    """Weight-1 generators x1..xg."""
    if g < 1:
        raise ValueError("g must be positive")
    proto = GradedPolynomial([f"x{i}" for i in range(1, g + 1)], (1,) * g, truncation, {})
    return tuple(proto.ring_variable(i) for i in range(g))


def elementary_symmetric(g: int, i: int, truncation: int) -> GradedPolynomial:
    """e_i(x1..xg), the sum over i-element subsets of the product of their roots."""
    xs = root_variables(g, truncation)
    out = xs[0].ring_constant(0)
    for subset in combinations(xs, i):
        term = xs[0].ring_constant(1)
        for x in subset:
            term = term * x
        out = out + term
    return out


def substitute_elementary(class_poly: GradedPolynomial) -> GradedPolynomial:
    """Substitute e_i(x1..xg) for the i-th generator c_i of weight i."""
    g = len(class_poly.names)
    if class_poly.weights != tuple(range(1, g + 1)):
        raise ValueError("expects class variables of weights 1..g")
    es = [elementary_symmetric(g, i, class_poly.truncation) for i in range(1, g + 1)]
    out = es[0].ring_constant(0)
    for exps, coeff in class_poly.terms.items():
        term = es[0].ring_constant(coeff)
        for e, a in zip(es, exps):
            term = term * e**a
        out = out + term
    return out


def inverse(u: GradedPolynomial) -> GradedPolynomial:
    """u^-1 in the truncated ring, for u with a nonzero constant term c0:
    (1/c0) sum_k m^k with m = 1 - u/c0, whose powers past the truncation vanish."""
    c0 = u.coefficient((0,) * len(u.names))
    if c0 == 0:
        raise ValueError("inverse requires a nonzero constant term")
    m = 1 - u * Fraction(1, c0)
    total = power = u.ring_constant(1)
    for _ in range(u.truncation):
        power = power * m
        total = total + power
    return total * Fraction(1, c0)

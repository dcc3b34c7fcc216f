"""Truncated graded polynomial algebra over exact rationals, and the
characteristic-class identities computed in it.

Two generator contexts appear: g "root" variables x1..xg of weight 1 (splitting
a rank-g bundle into line elements), and g "class" variables c1..cg (or l1..lg)
of weights 1..g.  Every product truncates at the ring's fixed total weighted
degree, zero coefficients are pruned, and equality is equality of term maps.

The identities for a rank-g bundle E run in the class ring on one engine:
Newton's identities give the power sums p_m, the Adams operations give
ch(lambda_{-1} E) = sum_i (-1)^i e_i(e^{x_1}, ..., e^{x_g}), and one exp
recurrence makes a multiplicative class of a log series.  lambda_star_class is
exp(sum_k (-1)^{k-1} (k-1)! ch_k), the total class of sum_i (-1)^i [Lambda^i E],
with payload -(g-1)! c_g in degree g (the opposite sign convention would flip
it).  borel_serre_check tests ch(lambda_{-1} E) Td(E) = (-1)^g c_g, where
Td = exp(sum_k s_k p_k) and sum_k s_k t^k = log(t/(e^t - 1)).

The Todd factor of a root x is x/(e^x - 1) = sum_k B_k/k! x^k (dual
convention), under which prod_i (1 - e^{x_i}) equals (-1)^g (x1...xg) Td^{-1};
with x/(1 - e^{-x}) the two sides differ by a unit e^{-c1}.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .bernoulli_zeta import todd_inverse_series

__all__ = [
    "GradedPolynomial",
    "SymmetricReduction",
    "root_variables",
    "class_variables",
    "symmetric_reduce",
    "substitute_elementary",
    "elementary_symmetric",
    "chern_character",
    "todd_class",
    "lambda_star_class",
    "borel_serre_check",
    "newton_special_case",
    "fundamental_relations",
]

Coefficient = "int | Fraction"


class GradedPolynomial:
    """Sparse polynomial with weighted generators and hard degree truncation.

    Instances are treated as immutable; every operation returns a new object.
    Coefficients are exact (int or Fraction, freely mixed).
    """

    __slots__ = ("names", "weights", "truncation", "terms")

    def __init__(self, names, weights, truncation, terms):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must align")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        if truncation < 0:
            raise ValueError("truncation must be nonnegative")
        clean = {}
        for mon, coeff in dict(terms).items():
            mon = tuple(int(e) for e in mon)
            if len(mon) != len(names):
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in mon):
                raise ValueError("exponents must be nonnegative")
            if coeff == 0:
                continue
            if sum(e * w for e, w in zip(mon, weights)) > truncation:
                continue
            clean[mon] = coeff
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "truncation", int(truncation))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPolynomial is immutable")

    @classmethod
    def _raw(cls, names, weights, truncation, terms):
        # internal: terms already normalized (no zeros, nothing over truncation)
        self = object.__new__(cls)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "terms", terms)
        return self

    # -- ring bookkeeping -------------------------------------------------

    def _check_ring(self, other: "GradedPolynomial") -> None:
        if (
            self.names != other.names
            or self.weights != other.weights
            or self.truncation != other.truncation
        ):
            raise ValueError("polynomials live in different rings")

    def ring_constant(self, value) -> "GradedPolynomial":
        if value == 0:
            return GradedPolynomial._raw(self.names, self.weights, self.truncation, {})
        zero_mon = (0,) * len(self.names)
        return GradedPolynomial._raw(
            self.names, self.weights, self.truncation, {zero_mon: value}
        )

    def ring_variable(self, index: int) -> "GradedPolynomial":
        n = len(self.names)
        if not 0 <= index < n:
            raise ValueError("variable index out of range")
        if self.weights[index] > self.truncation:
            return self.ring_constant(0)
        mon = tuple(1 if i == index else 0 for i in range(n))
        return GradedPolynomial._raw(self.names, self.weights, self.truncation, {mon: 1})

    def _wdeg(self, mon) -> int:
        return sum(e * w for e, w in zip(mon, self.weights))

    def _buckets(self) -> dict[int, dict]:
        out: dict[int, dict] = {}
        for mon, coeff in self.terms.items():
            out.setdefault(self._wdeg(mon), {})[mon] = coeff
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring_constant(other)
        self._check_ring(other)
        terms = dict(self.terms)
        for mon, coeff in other.terms.items():
            acc = terms.get(mon, 0) + coeff
            if acc:
                terms[mon] = acc
            else:
                terms.pop(mon, None)
        return GradedPolynomial._raw(self.names, self.weights, self.truncation, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedPolynomial._raw(
            self.names,
            self.weights,
            self.truncation,
            {mon: -coeff for mon, coeff in self.terms.items()},
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring_constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.ring_constant(0)
            return GradedPolynomial._raw(
                self.names,
                self.weights,
                self.truncation,
                {mon: coeff * other for mon, coeff in self.terms.items()},
            )
        self._check_ring(other)
        res: dict = {}
        limit = self.truncation
        for da, ba in self._buckets().items():
            room = limit - da
            for db, bb in other._buckets().items():
                if db > room:
                    continue
                for ma, ca in ba.items():
                    for mb, cb in bb.items():
                        mon = tuple(x + y for x, y in zip(ma, mb))
                        acc = res.get(mon, 0) + ca * cb
                        if acc:
                            res[mon] = acc
                        else:
                            res.pop(mon, None)
        return GradedPolynomial._raw(self.names, self.weights, self.truncation, res)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers go through inverse()")
        result = self.ring_constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base_needed = k >> 1
            if base_needed:
                base = base * base
            k = base_needed
        return result

    def inverse(self) -> "GradedPolynomial":
        """Multiplicative inverse in the truncated ring; needs a unit constant term."""
        n = len(self.names)
        zero_mon = (0,) * n
        c0 = self.terms.get(zero_mon, 0)
        if c0 == 0:
            raise ValueError("inverse requires a nonzero constant term")
        if c0 == 1:
            inv0 = 1
        elif c0 == -1:
            inv0 = -1
        else:
            inv0 = Fraction(1) / c0
        sb = self._buckets()
        inv_buckets: dict[int, dict] = {0: {zero_mon: inv0}}
        for d in range(1, self.truncation + 1):
            acc: dict = {}
            for e in range(1, d + 1):
                be = sb.get(e)
                qd = inv_buckets.get(d - e)
                if not be or not qd:
                    continue
                for ma, ca in be.items():
                    for mb, cb in qd.items():
                        mon = tuple(x + y for x, y in zip(ma, mb))
                        prev = acc.get(mon, 0) + ca * cb
                        if prev:
                            acc[mon] = prev
                        else:
                            acc.pop(mon, None)
            bucket = {mon: -inv0 * c for mon, c in acc.items()}
            if bucket:
                inv_buckets[d] = bucket
        terms = {mon: c for b in inv_buckets.values() for mon, c in b.items()}
        return GradedPolynomial._raw(self.names, self.weights, self.truncation, terms)

    # -- structure --------------------------------------------------------

    def homogeneous_component(self, degree: int) -> "GradedPolynomial":
        terms = {
            mon: c for mon, c in self.terms.items() if self._wdeg(mon) == degree
        }
        return GradedPolynomial._raw(self.names, self.weights, self.truncation, terms)

    def coefficient(self, mon) -> "int | Fraction":
        return self.terms.get(tuple(mon), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPolynomial):
            return NotImplemented
        return (
            self.names == other.names
            and self.weights == other.weights
            and self.truncation == other.truncation
            and self.terms == other.terms
        )

    __hash__ = None

    # -- canonical rendering ----------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by (degree, exponents), exact coefficients."""
        if not self.terms:
            return "0"
        pieces = []
        order = lambda m: (self._wdeg(m), tuple(-e for e in m))
        for mon in sorted(self.terms, key=order):
            coeff = self.terms[mon]
            factors = []
            for name, e in zip(self.names, mon):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            mag = abs(coeff)
            mag_str = str(mag)  # Fraction renders as n/d, int as n
            if body and mag == 1:
                text = body
            elif body:
                text = f"{mag_str}*{body}"
            else:
                text = mag_str
            pieces.append(("-" if coeff < 0 else "+", text))
        sign, text = pieces[0]
        out = ("-" if sign == "-" else "") + text
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    __str__ = render

    def __repr__(self) -> str:
        return f"GradedPolynomial({self.render()!r})"


# -- generator factories ---------------------------------------------------


def root_variables(g: int, truncation: int) -> tuple[GradedPolynomial, ...]:
    """Weight-1 generators x1..xg."""
    if g < 1:
        raise ValueError("g must be positive")
    names = tuple(f"x{i}" for i in range(1, g + 1))
    weights = (1,) * g
    proto = GradedPolynomial(names, weights, truncation, {})
    return tuple(proto.ring_variable(i) for i in range(g))


def class_variables(g: int, truncation: int, symbol: str = "c") -> tuple[GradedPolynomial, ...]:
    """Generators of weights 1..g named symbol1..symbolg."""
    if g < 1:
        raise ValueError("g must be positive")
    names = tuple(f"{symbol}{i}" for i in range(1, g + 1))
    weights = tuple(range(1, g + 1))
    proto = GradedPolynomial(names, weights, truncation, {})
    return tuple(proto.ring_variable(i) for i in range(g))


# -- symmetric function machinery ------------------------------------------


@lru_cache(maxsize=None)
def elementary_symmetric(g: int, i: int, truncation: int) -> GradedPolynomial:
    """e_i(x1..xg) in the weight-1 root ring.  Cached; treat as immutable."""
    if not 0 <= i <= g:
        raise ValueError("need 0 <= i <= g")
    names = tuple(f"x{j}" for j in range(1, g + 1))
    if i == 0:
        return GradedPolynomial(names, (1,) * g, truncation, {(0,) * g: 1})
    terms = {}
    if i <= truncation:
        for subset in combinations(range(g), i):
            terms[tuple(1 if j in subset else 0 for j in range(g))] = 1
    return GradedPolynomial._raw(names, (1,) * g, truncation, terms)


@lru_cache(maxsize=None)
def _elementary_monomial(g: int, exps: tuple, truncation: int) -> GradedPolynomial:
    # prod_i e_i^{exps[i-1]}, exps indexed from e_1
    out = elementary_symmetric(g, 0, truncation)
    for i, e in enumerate(exps, start=1):
        if e:
            out = out * (elementary_symmetric(g, i, truncation) ** e)
    return out


@dataclass(frozen=True)
class SymmetricReduction:
    """A symmetric root polynomial together with its expression in c1..cg."""

    input: GradedPolynomial
    output: GradedPolynomial


def symmetric_reduce(poly: GradedPolynomial) -> SymmetricReduction:
    """Rewrite a symmetric polynomial in the roots as a polynomial in c1..cg.

    Classical leading-term elimination: the lex-greatest monomial of a
    symmetric polynomial has weakly decreasing exponents (a1 >= a2 >= ...),
    and prod_i e_i^{a_i - a_{i+1}} has that same leading monomial with
    coefficient 1.  Works one homogeneous component at a time, so truncation
    never interferes.  Raises ValueError on non-symmetric input.
    """
    g = len(poly.names)
    if poly.weights != (1,) * g:
        raise ValueError("symmetric reduction expects weight-1 root variables")
    out_terms: dict = {}
    for degree, bucket in sorted(poly._buckets().items()):
        comp = dict(bucket)
        while comp:
            lead = max(comp)
            if any(lead[i] < lead[i + 1] for i in range(g - 1)):
                raise ValueError("polynomial is not symmetric in the roots")
            coeff = comp.pop(lead)
            exps = tuple(
                lead[i] - (lead[i + 1] if i + 1 < g else 0) for i in range(g)
            )
            expansion = _elementary_monomial(g, exps, poly.truncation)
            for mon, c in expansion.terms.items():
                if mon == lead:
                    continue
                acc = comp.get(mon, 0) - coeff * c
                if acc:
                    comp[mon] = acc
                else:
                    comp.pop(mon, None)
            acc = out_terms.get(exps, 0) + coeff
            if acc:
                out_terms[exps] = acc
            else:
                out_terms.pop(exps, None)
    out_names = tuple(f"c{i}" for i in range(1, g + 1))
    output = GradedPolynomial._raw(
        out_names, tuple(range(1, g + 1)), poly.truncation, out_terms
    )
    return SymmetricReduction(poly, output)


def substitute_elementary(class_poly: GradedPolynomial) -> GradedPolynomial:
    """Substitute e_i(x1..xg) for the i-th generator; inverse of symmetric_reduce."""
    g = len(class_poly.names)
    if class_poly.weights != tuple(range(1, g + 1)):
        raise ValueError("expects class variables of weights 1..g")
    trunc = class_poly.truncation
    acc: dict = {}
    for mon, coeff in class_poly.terms.items():
        expansion = _elementary_monomial(g, mon, trunc)
        for m, c in expansion.terms.items():
            v = acc.get(m, 0) + coeff * c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    names = tuple(f"x{i}" for i in range(1, g + 1))
    return GradedPolynomial._raw(names, (1,) * g, trunc, acc)


# -- characteristic-class operations ---------------------------------------


def chern_character(g: int, depth: int) -> GradedPolynomial:
    """sum_i e^{x_i} through total degree `depth`; constant term is the rank g."""
    if g < 1:
        raise ValueError("g must be positive")
    if depth < 1:
        raise ValueError("depth must be positive")
    names = tuple(f"x{i}" for i in range(1, g + 1))
    terms: dict = {(0,) * g: g}
    fact = 1
    for k in range(1, depth + 1):
        fact *= k
        c = Fraction(1, fact)
        for i in range(g):
            terms[tuple(k if j == i else 0 for j in range(g))] = c
    return GradedPolynomial._raw(names, (1,) * g, depth, terms)


def todd_class(g: int, depth: int, dual: bool = True) -> GradedPolynomial:
    """prod_i f(x_i) with f = t/(e^t - 1) (dual) or t/(1 - e^{-t}).

    The two differ by t -> -t, i.e. by the sign of every odd coefficient.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    base = todd_inverse_series(depth)
    if not dual:
        base = [(-c if k % 2 else c) for k, c in enumerate(base)]
    names = tuple(f"x{i}" for i in range(1, g + 1))
    out = None
    for i in range(g):
        factor = GradedPolynomial._raw(names, (1,) * g, depth, {
            tuple(k if j == i else 0 for j in range(g)): c for k, c in enumerate(base) if c})
        out = factor if out is None else out * factor
    return out


def lambda_star_class(g: int, depth: int) -> GradedPolynomial:
    """Total Chern class of sum_i (-1)^i [Lambda^i E], in c1..cg: exp(L) with
    L = sum_k (-1)^{k-1} (k-1)! ch_k(lambda_{-1} E), computed in the class ring.

    Vanishes in degrees 1..g-1; the degree-g term is -(g-1)! c_g.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if depth < g:
        raise ValueError("depth must reach g: the degree-g coefficient is the payload")
    ch = _lambda_character(g, _power_sums(g, depth))
    # k! L_k = (-1)^{k-1} (k-1)! (k! ch_k); ch_0 is empty, as ch vanishes below degree g
    total = _exp_scaled([{mon: (-1) ** (k - 1) * factorial(k - 1) * c for mon, c in comp.items()}
                         for k, comp in enumerate(ch)])
    # dividing by n! is exact, as the total class of a virtual bundle is integral
    return _class_poly([{mon: c // factorial(n) for mon, c in comp.items()}
                        for n, comp in enumerate(total)], g, depth)


# -- the class-ring engine -------------------------------------------------
#
# A homogeneous component is a dict {packed monomial: coefficient}.  A
# monomial c1^a1 ... cg^ag packs to sum_i a_i * radix^(i-1) with radix
# depth + 1; no exponent exceeds depth, so multiplying monomials is adding
# their packed forms.  Components of degree n are kept scaled by n! where the
# series is exponential, which turns products into binomial convolutions.


def _power_sums(g: int, depth: int) -> list[dict]:
    # p_1..p_depth of the roots by Newton's identities (p_0 = g is left out):
    # p_m = sum_{i<m} (-1)^{i-1} c_i p_{m-i} + (-1)^{m-1} m c_m
    radix = depth + 1
    p: list[dict] = [{}]
    for m in range(1, depth + 1):
        acc: dict = {}
        for i in range(1, min(m - 1, g) + 1):
            shift = radix ** (i - 1)
            _add_into(acc, {mon + shift: c for mon, c in p[m - i].items()}, 1 if i % 2 else -1)
        if m <= g:
            acc[radix ** (m - 1)] = m if m % 2 else -m
        p.append(acc)
    return p


def _lambda_character(g: int, p: list[dict]) -> list[dict]:
    # n! ch_n(lambda_{-1} E) for n = 0..depth.  Newton reads
    # i e_i = sum_{k=1}^{i} (-1)^{k-1} e_{i-k} psi^k, with the degree-d part
    # of psi^k equal to k^d p_d (d >= 1) and g (d = 0); the sum over k is
    # taken before multiplying by p_d.  Dividing by i is exact: n! times the
    # degree-n part of e_i(e^{x_1}, ...) is sum_S (x_S)^n, an integral class.
    depth = len(p) - 1
    elem = [[{0: 1}] + [{} for _ in range(depth)]]
    for i in range(1, g + 1):
        e_i = []
        for n in range(depth + 1):
            acc = {}
            for k in range(1, i + 1):
                _add_into(acc, elem[i - k][n], g if k % 2 else -g)
            for d in range(1, n + 1):
                combo: dict = {}
                for k in range(1, i + 1):
                    _add_into(combo, elem[i - k][n - d], k**d if k % 2 else -(k**d))
                _mul_into(acc, combo, p[d], comb(n, d))
            e_i.append({mon: c // i for mon, c in acc.items()})
        elem.append(e_i)
    ch: list[dict] = [{} for _ in range(depth + 1)]
    for i, e_i in enumerate(elem):
        for n in range(g, depth + 1):  # it vanishes below degree g
            _add_into(ch[n], e_i[n], -1 if i % 2 else 1)
    return ch


def _todd_scaled(p: list[dict]) -> list[dict]:
    # n! Td_n(E) = n! exp(sum_k s_k p_k)_n, where sum_k s_k t^k is the log of
    # t/(e^t - 1): s_1 = -1/2 and s_k = -B_k/(k k!) for k >= 2, so the exp
    # recurrence's k! s_k is -(k-1)! B_k/k!.
    series = todd_inverse_series(len(p) - 1)
    scale = [Fraction(-1, 2)] + [-factorial(k - 1) * series[k] for k in range(2, len(p))]
    return _exp_scaled([{}] + [{mon: c * s for mon, c in comp.items()} if s else {}
                               for s, comp in zip(scale, p[1:])])


def _exp_scaled(a: list[dict]) -> list[dict]:
    # n!-scaled components G_n of exp(L), from a_k = k! L_k (a[0] unused):
    # G_n = sum_k C(n-1, k-1) a_k G_{n-k}.  No division, so int and Fraction
    # coefficients both stay exact and keep their type.
    out = [{0: 1}]
    for n in range(1, len(a)):
        acc: dict = {}
        for k in range(1, n + 1):
            _mul_into(acc, a[k], out[n - k], comb(n - 1, k - 1))
        out.append(acc)
    return out


def _class_poly(components: list[dict], g: int, depth: int) -> GradedPolynomial:
    # unpack homogeneous components into a polynomial in c1..cg
    radix = depth + 1
    terms = {tuple(mon // radix**i % radix for i in range(g)): c
             for comp in components for mon, c in comp.items()}
    names = tuple(f"c{i}" for i in range(1, g + 1))
    return GradedPolynomial._raw(names, tuple(range(1, g + 1)), depth, terms)


def _add_into(acc: dict, comp: dict, scale: int) -> None:
    # acc += scale * comp, pruning zeros
    for mon, c in comp.items():
        v = acc.get(mon, 0) + scale * c
        if v:
            acc[mon] = v
        else:
            acc.pop(mon, None)


def _mul_into(acc: dict, a: dict, b: dict, scale: int) -> None:
    # acc += scale * a * b for packed components
    for ma, ca in a.items():
        ca *= scale
        for mb, cb in b.items():
            mon = ma + mb
            v = acc.get(mon, 0) + ca * cb
            if v:
                acc[mon] = v
            else:
                acc.pop(mon, None)


def borel_serre_check(g: int, depth: int) -> bool:
    """ch(lambda_{-1} E) * Td(E) == (-1)^g c_g in c1..cg, truncated at `depth`.

    Td is the dual-convention Todd class exp(sum_k s_k p_k).  In the roots this
    is prod_i (1 - e^{x_i}) * prod_i x_i/(e^{x_i} - 1) = (-1)^g x1...xg.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    p = _power_sums(g, depth)
    ch, td = _lambda_character(g, p), _todd_scaled(p)
    top = {(depth + 1) ** (g - 1): (-1) ** g * factorial(g)}
    for n in range(depth + 1):
        acc: dict = {}
        for k in range(g, n + 1):
            _mul_into(acc, ch[k], td[n - k], comb(n, k))
        if acc != (top if n == g else {}):
            return False
    return True


def newton_special_case(g: int) -> bool:
    """With c1..c_{g-1} killed, the g-th Newton power sum is (-1)^{g-1} g c_g."""
    if g < 1:
        raise ValueError("g must be positive")
    c_g = (g + 1) ** (g - 1)  # packed; a multiple of it is free of c1..c_{g-1}
    p_g = _power_sums(g, g)[g]
    return {mon: c for mon, c in p_g.items() if mon % c_g == 0} == {c_g: g if g % 2 else -g}


def fundamental_relations(g: int, max_degree: int) -> list[GradedPolynomial]:
    """Homogeneous components (degrees 1..max_degree) of
    (1 + l1 + ... + lg)(1 - l1 + l2 - ...) - 1.

    Each component is a relation; the odd ones vanish identically.
    """
    if g < 1:
        raise ValueError("g must be positive")
    if not 1 <= max_degree <= 2 * g:
        raise ValueError("max_degree must lie in 1..2g")
    ls = class_variables(g, 2 * g, symbol="l")
    plus = ls[0].ring_constant(1)
    minus = ls[0].ring_constant(1)
    for i, li in enumerate(ls, start=1):
        plus = plus + li
        minus = minus + (-li if i % 2 else li)
    product = plus * minus - 1
    return [product.homogeneous_component(d) for d in range(1, max_degree + 1)]

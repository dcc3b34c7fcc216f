"""Truncated graded polynomial algebra over exact rationals, and the
characteristic-class identities computed in it.

Two generator contexts appear: g "root" variables x1..xg of weight 1 (splitting
a rank-g bundle into line elements), and g "class" variables c1..cg (or l1..lg)
of weights 1..g.  Every product truncates at the ring's fixed total weighted
degree, zero coefficients are pruned, and equality is equality of term maps.

Every polynomial here has one sparse form: truncation + 1 homogeneous
components, component d a dict from the packed monomials of weighted degree d
to their coefficients.  A monomial v1^a1 ... vn^an packs to
sum_i a_i radix^(i-1) with radix = truncation + 1, v1 the least significant
digit.  No exponent within the truncation exceeds it, so multiplying monomials
is adding their packed forms, and `_mul_into` and `_add_into` do every
product and sum.

The root ring keeps what bench/'s class-ring pool calls: GradedPolynomial,
chern_character, todd_class and symmetric_reduce.  symmetric_reduce subtracts
e-monomials e_1^a_1 ... e_g^a_g, read from one cached table of packed
homogeneous components.  root_variables and substitute_elementary, the inverse
of symmetric_reduce, live in tests/root_ring_oracle.py.

The identities for a rank-g bundle E run in the class ring on one engine:
Newton's identities give the power sums p_m; Stirling numbers give
ch(lambda_{-1} E) = (-1)^g e_g(e^{x_1} - 1, ...), empty below degree g by
construction, like the tests' Adams-operation oracle; one exp recurrence makes
a multiplicative class of a log series.  lambda_star_class is
exp(sum_k (-1)^{k-1} (k-1)! ch_k), the total class of sum_i (-1)^i [Lambda^i E],
with payload -(g-1)! c_g in degree g (the opposite sign convention would flip
it).  borel_serre_check tests ch(lambda_{-1} E) Td(E) = (-1)^g c_g, where
Td = exp(sum_k s_k p_k) and sum_k s_k t^k = log(t/(e^t - 1)).

The Todd factor of a root x is x/(e^x - 1) = sum_k B_k/k! x^k (dual
convention), under which prod_i (1 - e^{x_i}) equals (-1)^g (x1...xg) Td^{-1};
with x/(1 - e^{-x}) the two sides differ by a unit e^{-c1}.

symmetric_reduce, todd_class and borel_serre_check run on ints.  The first two
clear denominators once (each component's lcm; t -> D t) and divide once at the
end; borel_serre_check scales degree n by M^n n! and compares M^g g! (-1)^g c_g.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, factorial, lcm
from operator import mul

from .bernoulli_zeta import todd_inverse_series
from .exact_arith import (
    _Record,
    _check_nonnegative,
    _check_positive,
    _is_rational,
    _power,
    _product,
)

__all__ = [
    "GradedPolynomial",
    "SymmetricReduction",
    "class_variables",
    "symmetric_reduce",
    "chern_character",
    "todd_class",
    "lambda_star_class",
    "borel_serre_check",
    "newton_special_case",
    "fundamental_relations",
]


# -- packed components -----------------------------------------------------


def _pack(exps, radix: int) -> int:
    return sum(e * radix**i for i, e in enumerate(exps))


def _unpack(mon: int, n: int, radix: int) -> tuple[int, ...]:
    return tuple(mon // radix**i % radix for i in range(n))


def _add_into(acc: dict, comp: dict, scale) -> None:
    # acc += scale * comp, pruning zeros
    for mon, c in comp.items():
        v = acc.get(mon, 0) + scale * c
        if v:
            acc[mon] = v
        else:
            acc.pop(mon, None)


def _mul_into(acc: dict, a: dict, b: dict, scale) -> None:
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


def _names(symbol: str, g: int) -> tuple[str, ...]:
    return tuple(f"{symbol}{i}" for i in range(1, g + 1))


class GradedPolynomial(_Record):
    """Sparse polynomial with weighted generators and hard degree truncation.

    Instances are immutable records; every operation returns a new object.
    Coefficients are exact (int or Fraction, freely mixed).  The private
    `_comps[d]`, which instances may share (homogeneous_component hands its
    source's on), holds the packed monomials of degree d; `terms` is the same
    data by exponent tuples, fresh on each read.
    """

    names: tuple[str, ...]
    weights: tuple[int, ...]
    truncation: int
    _comps: list

    def __init__(self, names, weights, truncation, terms):
        names = tuple(names)
        weights = tuple(int(w) for w in weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must align")
        if any(w < 1 for w in weights):
            raise ValueError("weights must be positive")
        _check_nonnegative("truncation", truncation)
        truncation = int(truncation)
        comps = [{} for _ in range(truncation + 1)]
        for mon, coeff in dict(terms).items():
            mon = tuple(int(e) for e in mon)
            if len(mon) != len(names):
                raise ValueError("exponent vector length mismatch")
            if any(e < 0 for e in mon):
                raise ValueError("exponents must be nonnegative")
            degree = sum(e * w for e, w in zip(mon, weights))
            if coeff != 0 and degree <= truncation:
                comps[degree][_pack(mon, truncation + 1)] = coeff
        super().__init__(names, weights, truncation, comps)

    def _like(self, comps) -> "GradedPolynomial":
        return GradedPolynomial._raw(self.names, self.weights, self.truncation, comps)

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, as a fresh dict the caller may keep."""
        n, radix = len(self.names), self.truncation + 1
        return {_unpack(mon, n, radix): c for comp in self._comps for mon, c in comp.items()}

    # -- ring bookkeeping -------------------------------------------------

    def _check_ring(self, other: "GradedPolynomial") -> None:
        if (
            self.names != other.names
            or self.weights != other.weights
            or self.truncation != other.truncation
        ):
            raise ValueError("polynomials live in different rings")

    def ring_constant(self, value) -> "GradedPolynomial":
        comps = [{} for _ in self._comps]
        if value != 0:
            comps[0][0] = value
        return self._like(comps)

    def ring_variable(self, index: int) -> "GradedPolynomial":
        if not 0 <= index < len(self.names):
            raise ValueError("variable index out of range")
        comps = [{} for _ in self._comps]
        if self.weights[index] <= self.truncation:
            comps[self.weights[index]][(self.truncation + 1) ** index] = 1
        return self._like(comps)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if _is_rational(other):
            other = self.ring_constant(other)
        self._check_ring(other)
        comps = [dict(comp) for comp in self._comps]
        for acc, comp in zip(comps, other._comps):
            _add_into(acc, comp, 1)
        return self._like(comps)

    __radd__ = __add__

    def __neg__(self):
        return self._scaled(-1)

    def __sub__(self, other):
        if _is_rational(other):
            other = self.ring_constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, scale) -> "GradedPolynomial":
        comps = [{} for _ in self._comps]
        for acc, comp in zip(comps, self._comps):
            _add_into(acc, comp, scale)
        return self._like(comps)

    def __mul__(self, other):
        if _is_rational(other):
            return self._scaled(other)
        self._check_ring(other)
        comps = [{} for _ in self._comps]
        for da, a in enumerate(self._comps):
            if a:
                for db in range(len(comps) - da):
                    _mul_into(comps[da + db], a, other._comps[db], 1)
        return self._like(comps)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        return _power(self, k, self.ring_constant(1), mul)

    # -- structure --------------------------------------------------------

    def homogeneous_component(self, degree: int) -> "GradedPolynomial":
        comps = [{} for _ in self._comps]
        if 0 <= degree <= self.truncation:
            comps[degree] = self._comps[degree]
        return self._like(comps)

    def coefficient(self, mon) -> "int | Fraction":
        mon, radix = tuple(mon), self.truncation + 1
        if len(mon) != len(self.names) or not all(0 <= e < radix for e in mon):
            return 0  # no term has this monomial, and packing it could alias one
        degree = sum(e * w for e, w in zip(mon, self.weights))
        return self._comps[degree].get(_pack(mon, radix), 0) if degree < radix else 0

    def is_zero(self) -> bool:
        return not any(self._comps)

    __hash__ = None

    # -- canonical rendering ----------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by (degree, exponents), exact coefficients."""
        n, radix = len(self.names), self.truncation + 1
        ordered = [term for comp in self._comps for term in sorted(
            ((_unpack(m, n, radix), c) for m, c in comp.items()), reverse=True)]
        if not ordered:
            return "0"
        pieces = []
        for mon, coeff in ordered:
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


def class_variables(g: int, truncation: int, symbol: str = "c") -> tuple[GradedPolynomial, ...]:
    """Generators of weights 1..g named symbol1..symbolg."""
    _check_positive("g", g)
    proto = GradedPolynomial(_names(symbol, g), range(1, g + 1), truncation, {})
    return tuple(proto.ring_variable(i) for i in range(g))


# -- symmetric function machinery ------------------------------------------


@lru_cache(maxsize=None)
def _elementary_monomial(g: int, exps: tuple, radix: int) -> dict:
    # the packed component of e_1^a_1 ... e_g^a_g in x1..xg, exps the a_i, one
    # factor at a time in a loop: a recursion on the entry with one factor fewer
    # nests sum_i a_i calls, past the interpreter's limit by x1^500.  Callers
    # only read the entry.
    out = {0: 1}
    for i, a in enumerate(exps, start=1):
        if not a:
            continue
        e_i = dict.fromkeys((sum(radix**j for j in s) for s in combinations(range(g), i)), 1)
        for _ in range(a):
            acc: dict = {}
            _mul_into(acc, out, e_i, 1)
            out = acc
    return out


class SymmetricReduction(_Record):
    """A symmetric root polynomial together with its expression in c1..cg."""

    input: GradedPolynomial
    output: GradedPolynomial


def symmetric_reduce(poly: GradedPolynomial) -> SymmetricReduction:
    """Rewrite a symmetric polynomial in the roots as a polynomial in c1..cg.

    Classical leading-term elimination, one homogeneous component at a time,
    so truncation never interferes.  Packed monomials compare x_g first, and
    the greatest monomial x1^a1 ... xg^ag of a symmetric polynomial has
    a1 <= ... <= ag; prod_j e_j^{a_{g-j+1} - a_{g-j}} (a_0 = 0) has that same
    leading monomial with coefficient 1.  A falling exponent shows that the
    input is not symmetric, and raises ValueError.
    """
    from fractions import Fraction
    g = len(poly.names)
    if poly.weights != (1,) * g:
        raise ValueError("symmetric reduction expects weight-1 root variables")
    radix = poly.truncation + 1
    out = [{} for _ in poly._comps]
    for degree, bucket in enumerate(poly._comps):
        # the elimination is linear, so it runs on den * bucket, all ints
        den = lcm(*(c.denominator for c in bucket.values()))
        comp = {mon: c.numerator * (den // c.denominator) for mon, c in bucket.items()}
        while comp:
            lead = max(comp)
            a = (0,) + _unpack(lead, g, radix)
            if any(a[i] > a[i + 1] for i in range(1, g)):
                raise ValueError("polynomial is not symmetric in the roots")
            exps = tuple(a[g - j + 1] - a[g - j] for j in range(1, g + 1))
            coeff = comp[lead]
            _add_into(comp, _elementary_monomial(g, exps, radix), -coeff)
            out[degree][_pack(exps, radix)] = Fraction(coeff, den) if den > 1 else coeff
    output = GradedPolynomial._raw(_names("c", g), tuple(range(1, g + 1)), poly.truncation, out)
    return SymmetricReduction(poly, output)


# -- characteristic-class operations ---------------------------------------


def chern_character(g: int, depth: int) -> GradedPolynomial:
    """sum_i e^{x_i} through total degree `depth`; constant term is the rank g."""
    from fractions import Fraction
    _check_positive("g", g)
    _check_positive("depth", depth)
    radix = depth + 1
    comps = [{0: g}] + [{k * radix**i: Fraction(1, factorial(k)) for i in range(g)}
                        for k in range(1, radix)]
    return GradedPolynomial._raw(_names("x", g), (1,) * g, depth, comps)


def todd_class(g: int, depth: int, dual: bool = True) -> GradedPolynomial:
    """prod_i f(x_i) with f = t/(e^t - 1) (dual) or t/(1 - e^{-t}).

    The two differ by t -> -t, i.e. by the sign of every odd coefficient.
    """
    from fractions import Fraction
    _check_positive("g", g)
    _check_nonnegative("depth", depth)
    base = todd_inverse_series(depth)
    if not dual:
        base = [(-c if k % 2 else c) for k, c in enumerate(base)]
    # t -> D t makes each B_k D^k / k! an int; degree n of the product is D^n Td_n
    den = lcm(*(c.denominator for c in base))
    base = [c.numerator * (den**k // c.denominator) for k, c in enumerate(base)]
    names, radix = _names("x", g), depth + 1
    out = _product(GradedPolynomial._raw(names, (1,) * g, depth, [
        {k * radix**i: c} if c else {} for k, c in enumerate(base)]) for i in range(g))
    return out._like([{mon: Fraction(c, den**n) for mon, c in comp.items()}
                      for n, comp in enumerate(out._comps)])


def lambda_star_class(g: int, depth: int) -> GradedPolynomial:
    """Total Chern class of sum_i (-1)^i [Lambda^i E], in c1..cg: exp(L) with
    L = sum_k (-1)^{k-1} (k-1)! ch_k(lambda_{-1} E), computed in the class ring.

    Vanishes in degrees 1..g-1 by construction; the degree-g term is -(g-1)! c_g.
    """
    _check_positive("g", g)
    if depth < g:
        raise ValueError("depth must reach g: the degree-g coefficient is the payload")
    ch = _lambda_character(g, _power_sums(g, depth))
    # k! L_k = (-1)^{k-1} (k-1)! (k! ch_k); ch_0 is empty, as ch vanishes below degree g
    total = _exp_scaled([{mon: (-1) ** (k - 1) * factorial(k - 1) * c for mon, c in comp.items()}
                         for k, comp in enumerate(ch)])
    # dividing by n! is exact, as the total class of a virtual bundle is integral
    return GradedPolynomial._raw(_names("c", g), tuple(range(1, g + 1)), depth, [
        {mon: c // factorial(n) for mon, c in comp.items()} for n, comp in enumerate(total)])


# -- the class-ring engine -------------------------------------------------
#
# The engine works on bare lists of homogeneous components, packed as
# GradedPolynomial packs c1..cg (radix depth + 1), so lambda_star_class hands
# its components over without repacking.  Components of degree n are kept
# scaled by n! where the series is exponential, which turns products into
# binomial convolutions.


def _power_sums(g: int, depth: int) -> list[dict]:
    # p_1..p_depth of the roots by Newton's identities (p_0 = g is left out):
    # p_m = sum_{i<m} (-1)^{i-1} c_i p_{m-i} + (-1)^{m-1} m c_m
    radix = depth + 1
    p: list[dict] = [{}]
    for m in range(1, depth + 1):
        acc: dict = {}
        for i in range(1, min(m - 1, g) + 1):
            _mul_into(acc, {radix ** (i - 1): 1}, p[m - i], 1 if i % 2 else -1)
        if m <= g:
            acc[radix ** (m - 1)] = m if m % 2 else -m
        p.append(acc)
    return p


def _stirling_table(g: int, depth: int) -> list[list[int]]:
    # t[k][n] = k! S(n, k) = sum_m C(k, m) (-1)^{k-m} m^n, n! times the degree-n
    # part of (e^x - 1)^k, whose derivative is k ((e^x - 1)^k + (e^x - 1)^{k-1})
    t = [[1] + [0] * depth]
    for k in range(1, g + 1):
        t.append(list(accumulate(t[k - 1][:-1], lambda r, s: k * (r + s), initial=0)))
    return t


def _lambda_character(g: int, p: list[dict]) -> list[dict]:
    # n! ch_n(lambda_{-1} E), n = 0..depth, as e_g(w) with w_j = 1 - e^{x_j}: the
    # n!-scaled degree-d part of p_k(w) is (-1)^k t[k][d] p_d, so every sign of
    # Newton's i e_i = sum_k (-1)^{k-1} e_{i-k} p_k is minus.  e_i(w) starts in
    # degree i, so ch is zero below degree g by construction, and e_g needs e_i
    # only through degree depth - (g - i).  n! e_i(w)_n is integral: // i is exact.
    depth = len(p) - 1
    t = _stirling_table(g, depth)
    elem = [[{0: 1}] + [{} for _ in range(depth)]]
    for i in range(1, g + 1):
        e_i = [{} for _ in range(i)]
        for n in range(i, depth - g + i + 1):
            acc = {}
            for d in range(1, n + 1):
                combo: dict = {}
                for k in range(max(1, i - n + d), min(i, d) + 1):
                    _add_into(combo, elem[i - k][n - d], t[k][d])
                _mul_into(acc, combo, p[d], -comb(n, d))
            e_i.append({mon: c // i for mon, c in acc.items()})
        elem.append(e_i)
    return elem[g][: depth + 1]


def _todd_scaled(p: list[dict]) -> tuple[int, list[dict]]:
    # (M, [M^n n! Td_n(E)]) as ints, Td = exp(sum_k s_k p_k) with sum_k s_k t^k
    # the log of t/(e^t - 1): s_1 = -1/2 and s_k = -B_k/(k k!) for k >= 2, so
    # the exp recurrence's k! s_k is -(k-1)! B_k/k!, and M clears every one.
    from fractions import Fraction
    series = todd_inverse_series(len(p) - 1)
    scale = [Fraction(-1, 2)] + [-factorial(k - 1) * series[k] for k in range(2, len(p))]
    m = lcm(*(s.denominator for s in scale))
    scale = [s.numerator * (m**k // s.denominator) for k, s in enumerate(scale, start=1)]
    return m, _exp_scaled([{}] + [{mon: c * s for mon, c in comp.items()} if s else {}
                                  for s, comp in zip(scale, p[1:])])


def _exp_scaled(a: list[dict]) -> list[dict]:
    # n!-scaled components G_n of exp(L), from a_k = k! L_k (a[0] unused):
    # G_n = sum_k C(n-1, k-1) a_k G_{n-k}.  Its callers pass ints, and with no
    # division the G_n stay ints.
    out = [{0: 1}]
    for n in range(1, len(a)):
        acc: dict = {}
        for k in range(1, n + 1):
            _mul_into(acc, a[k], out[n - k], comb(n - 1, k - 1))
        out.append(acc)
    return out


def borel_serre_check(g: int, depth: int) -> bool:
    """ch(lambda_{-1} E) * Td(E) == (-1)^g c_g in c1..cg, truncated at `depth`.

    Td is the dual-convention Todd class exp(sum_k s_k p_k).  In the roots this
    is prod_i (1 - e^{x_i}) * prod_i x_i/(e^{x_i} - 1) = (-1)^g x1...xg.
    """
    _check_positive("g", g)
    _check_nonnegative("depth", depth)
    p = _power_sums(g, depth)
    ch, (m, td) = _lambda_character(g, p), _todd_scaled(p)
    top = {(depth + 1) ** (g - 1): (-1) ** g * factorial(g) * m**g}  # degree n scaled by M^n n!
    for n in range(depth + 1):
        acc: dict = {}
        for k in range(g, n + 1):
            _mul_into(acc, ch[k], td[n - k], comb(n, k) * m**k)
        if acc != (top if n == g else {}):
            return False
    return True


def newton_special_case(g: int) -> bool:
    """With c1..c_{g-1} killed, the g-th Newton power sum is (-1)^{g-1} g c_g."""
    _check_positive("g", g)
    c_g = (g + 1) ** (g - 1)  # packed; a multiple of it is free of c1..c_{g-1}
    p_g = _power_sums(g, g)[g]
    return {mon: c for mon, c in p_g.items() if mon % c_g == 0} == {c_g: g if g % 2 else -g}


def fundamental_relations(g: int, max_degree: int) -> list[GradedPolynomial]:
    """Homogeneous components (degrees 1..max_degree) of
    (1 + l1 + ... + lg)(1 - l1 + l2 - ...) - 1.

    Each component is a relation; the odd ones vanish identically.
    """
    _check_positive("g", g)
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

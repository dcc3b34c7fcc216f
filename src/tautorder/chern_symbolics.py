"""Truncated graded polynomial algebra over exact rationals, and the
characteristic-class identities computed in it.

Two generator contexts appear: g "root" variables x1..xg of weight 1 (splitting
a rank-g bundle into line elements), and g "class" variables c1..cg (or l1..lg)
of weights 1..g.  Every product truncates at the ring's fixed total weighted
degree, zero coefficients are pruned, and equality is equality of term maps.

Every polynomial here has one sparse form: a dict from packed monomials to
their nonzero coefficients, sized by its terms, not by its truncation.  A
monomial v1^a1 ... vn^an packs to sum_i a_i radix^(i-1) with radix =
truncation + 1, v1 the least significant digit.  No exponent within the
truncation exceeds it, so multiplying monomials is adding their packed forms,
and `_mul_into` and `_add_into` do every product and sum.

The root ring keeps what bench/'s class-ring pool calls: GradedPolynomial,
chern_character, todd_class and symmetric_reduce.  GradedPolynomial is a
result record with no arithmetic: todd_class writes its terms down one root at
a time, as each coefficient is a product of coefficients of one series, and
fundamental_relations writes each degree down as a sum of l_i l_j.  Its text
form comes from exact_arith's term writer, as ModPPolynomial's does.
symmetric_reduce passes once down each degree's sorted monomials a1 <= ... <= ag
(the only ones that can lead) on a cached plan, subtracting cached e-monomials.
The ring operators, root_variables and substitute_elementary (the inverse of
symmetric_reduce) live in tests/root_ring_oracle.py on term maps.

The identities for a rank-g bundle E run in the class ring on one pipeline.
Newton's identities give the power sums p_m.  Since 1 - e^x = -x z with
z = (e^x - 1)/x, ch(lambda_{-1} E) = (-1)^g c_g e_g(z_1, ..., z_g), and
_lambda_quotient builds e_g(z), the multiplicative class of (e^t - 1)/t, from p
by its log-derivative recurrence, with its own B_k, not `bernoulli`'s (verify's
von-staudt suite reads them as its second route to each B_m).  Degree n of ch is
c_g times degree n - g of e_g(z), and ch is empty below degree g, so both
identities read p and e_g(z) only through degree depth - g.  One exp
recurrence makes a multiplicative class of a log series: lambda_star_class is
exp(sum_k (-1)^{k-1} (k-1)! ch_k), the total class of sum_i (-1)^i [Lambda^i E],
with payload -(g-1)! c_g in degree g (the opposite sign convention would flip
it): it shifts e_g(z) by the packed c_g and divides once by (-1)^g g!.
borel_serre_check tests ch(lambda_{-1} E) Td(E) = (-1)^g c_g, where
Td = exp(sum_k s_k p_k) and sum_k s_k t^k = log(t/(e^t - 1)); with c_g
divided out, it needs Td too only through degree depth - g.

The Todd factor of a root x is x/(e^x - 1) = sum_k B_k/k! x^k (dual
convention), under which prod_i (1 - e^{x_i}) equals (-1)^g (x1...xg) Td^{-1};
with x/(1 - e^{-x}) the two sides differ by a unit e^{-c1}.  Both Todd routes
read `bernoulli` directly: todd_class the series B_k/k!, _todd_scaled the
k! s_k = -B_k/k of its log.

symmetric_reduce, todd_class and borel_serre_check run on ints.  The first two
clear denominators once (each component's lcm; t -> D t) and divide at the end,
todd_class once per distinct coefficient of a degree.  _lambda_quotient keeps
g! (m + g)! e_g(z)_m and divides each degree once, exactly; borel_serre_check
scales degree n + g by M^n (n + g)! g! / ((-1)^g c_g).
"""
from __future__ import annotations

from itertools import combinations
from math import comb, factorial, lcm

from .bernoulli_zeta import bernoulli
from .exact_arith import (
    _Record, _check_bool, _check_int, _check_iterable, _check_nonnegative, _check_positive,
    _is_rational, _render_terms,
)

__all__ = [
    "GradedPolynomial",
    "SymmetricReduction",
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

    A result record with no arithmetic: the functions of this module return
    one, and nothing multiplies it.  Coefficients are exact (int or Fraction,
    freely mixed, never a bool), and weights, exponents and the truncation are
    ints; any other type, names, weights or terms that are not iterable, or
    terms that do not map exponent tuples to coefficients, is refused with
    TypeError.  The private `_packed` maps packed monomials to coefficients;
    `terms` is the same data by exponent tuples, fresh on each read.
    """

    names: tuple[str, ...]
    weights: tuple[int, ...]
    truncation: int
    _packed: dict

    def __init__(self, names, weights, truncation, terms):
        for name, value in (("names", names), ("weights", weights), ("terms", terms)):
            _check_iterable(name, value)
        names, weights = tuple(names), tuple(weights)
        if len(names) != len(weights):
            raise ValueError("names and weights must align")
        for name in names:  # so the term writer prints each as one variable
            if not isinstance(name, str):
                raise TypeError(f"name must be a str, not {type(name).__name__}")
            if not name.isidentifier():
                raise ValueError(f"name must be an identifier; got {name!r}")
        if len(set(names)) != len(names):
            raise ValueError("names must be distinct")
        for w in weights:
            _check_positive("weight", w)
        _check_nonnegative("truncation", truncation)
        try:
            terms = [(tuple(mon), coeff) for mon, coeff in dict(terms).items()]
        except (TypeError, ValueError):
            raise TypeError("terms must map exponent tuples to coefficients") from None
        packed = {}
        for mon, coeff in terms:
            if len(mon) != len(names):
                raise ValueError("exponent vector length mismatch")
            for e in mon:
                _check_nonnegative("exponent", e)
            if not _is_rational(coeff):
                raise TypeError(f"coefficients must be int or Fraction, not {type(coeff).__name__}")
            if coeff != 0 and sum(e * w for e, w in zip(mon, weights)) <= truncation:
                packed[_pack(mon, truncation + 1)] = coeff
        super().__init__(names, weights, truncation, packed)

    @property
    def terms(self) -> dict:
        """{exponent tuple: coefficient}, as a fresh dict the caller may keep."""
        n, radix = len(self.names), self.truncation + 1
        return {_unpack(mon, n, radix): c for mon, c in self._packed.items()}

    __hash__ = None

    # -- canonical rendering ----------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms by degree, exponents descending within one,
        exact coefficients, written by exact_arith's one term writer."""
        return _render_terms(self.names, sorted(self.terms.items(), reverse=True, key=lambda term: (
            -sum(map(int.__mul__, term[0], self.weights)), term[0])))

    __str__ = render

    def __repr__(self) -> str:
        return f"GradedPolynomial({self.render()!r})"


# -- symmetric function machinery ------------------------------------------


# (g, exps, radix) -> a table entry, (g, degree, radix) -> a list; both only grow
_sorted_elementary, _sorted_monomials = {}, {}


def _sorted_of_degree(g: int, degree: int, radix: int) -> list[tuple]:
    # one degree's elimination plan, leads descending: a row (lead, packed exps, exps) per
    # packed a1 <= ... <= ag of digit sum `degree` (its partitions into <= g parts)
    if (g, degree, radix) not in _sorted_monomials:
        rows = [((0,), degree)]  # (0, a1..ai), the rest r to split into parts >= ai
        for parts in range(g, 1, -1):
            rows = [(a + (k,), r - k) for a, r in rows for k in range(a[-1], r // parts + 1)]
        rows = [(a[1:] + (r,), (r - a[-1],) + tuple(a[i] - a[i - 1] for i in range(g - 1, 0, -1)))
                for a, r in rows]
        _sorted_monomials[g, degree, radix] = sorted(
            ((_pack(a, radix), _pack(exps, radix), exps) for a, exps in rows), reverse=True)
    return _sorted_monomials[g, degree, radix]


def _sorted_elementary_monomial(g: int, exps: tuple, radix: int) -> dict:
    # the packed e_1^a_1 ... e_g^a_g in x1..xg, exps the a_i, on its sorted
    # monomials only, the ones symmetric_reduce reads.  One factor at a time in a
    # loop: a recursion on the entry with one factor fewer nests sum_i a_i calls,
    # past the interpreter's limit by x1^500.  Callers only read the entry.
    if (g, exps, radix) in _sorted_elementary:
        return _sorted_elementary[g, exps, radix]
    out = {0: 1}
    for i, a in enumerate(exps, start=1):
        if not a:
            continue
        e_i = dict.fromkeys((sum(radix**j for j in s) for s in combinations(range(g), i)), 1)
        for _ in range(a):
            acc: dict = {}
            _mul_into(acc, out, e_i, 1)
            out = acc
    keep = _sorted_of_degree(g, sum(i * a for i, a in enumerate(exps, start=1)), radix)
    return _sorted_elementary.setdefault((g, exps, radix), {
        m: out[m] for m, _, _ in keep if m in out})


class SymmetricReduction(_Record):
    """A symmetric root polynomial together with its expression in c1..cg."""

    input: GradedPolynomial
    output: GradedPolynomial


def symmetric_reduce(poly: GradedPolynomial) -> SymmetricReduction:
    """Rewrite a symmetric polynomial in the roots as a polynomial in c1..cg.

    Classical leading-term elimination on each homogeneous component (the
    packed monomials of one digit sum), so truncation never interferes.  Packed
    monomials compare x_g first, and the greatest monomial x1^a1 ... xg^ag of a
    symmetric polynomial has a1 <= ... <= ag; prod_j e_j^{a_{g-j+1} - a_{g-j}}
    (a_0 = 0) leads with that monomial and coefficient 1, its other sorted ones
    smaller, so one descending pass over the sorted monomials (a cached plan)
    finds every lead.  A term whose coefficient a swap of two adjacent roots
    (these generate S_g) changes raises ValueError.
    """
    from fractions import Fraction
    if not isinstance(poly, GradedPolynomial):
        raise TypeError(f"poly must be a GradedPolynomial, not {type(poly).__name__}")
    g = len(poly.names)
    if poly.weights != (1,) * g:
        raise ValueError("symmetric reduction expects weight-1 root variables")
    radix, buckets, out = poly.truncation + 1, {}, {}
    for mon, c in poly._packed.items():
        # mon is its digit sum mod radix - 1, and the sum lies in 1..radix - 1 if mon
        buckets.setdefault((mon - 1) % (radix - 1) + 1 if mon else 0, []).append((mon, c))
    for degree, terms in buckets.items():
        # the elimination is linear, so it runs on den * bucket, all ints
        den = lcm(*(c.denominator for _, c in terms))
        comp = {mon: c.numerator * (den // c.denominator) for mon, c in terms}
        for mon, c in comp.items():
            # swapping the digits a, b of roots i + 1, i + 2 adds (a - b)(radix - 1) radix^i
            rest, a = divmod(mon, radix)
            step = radix - 1
            for _ in range(g - 1):
                rest, b = divmod(rest, radix)
                if a != b and comp.get(mon + (a - b) * step) != c:
                    raise ValueError("polynomial is not symmetric in the roots")
                a, step = b, step * radix
        for lead, key, exps in _sorted_of_degree(g, degree, radix):
            coeff = comp.get(lead)
            if coeff:
                _add_into(comp, _sorted_elementary_monomial(g, exps, radix), -coeff)
                out[key] = Fraction(coeff, den) if den > 1 else coeff
    output = GradedPolynomial._raw(_names("c", g), tuple(range(1, g + 1)), poly.truncation, out)
    return SymmetricReduction(poly, output)


# -- characteristic-class operations ---------------------------------------


def chern_character(g: int, depth: int) -> GradedPolynomial:
    """sum_i e^{x_i} through total degree `depth`; constant term is the rank g."""
    from fractions import Fraction
    _check_positive("g", g)
    _check_nonnegative("depth", depth)
    radix = depth + 1
    packed = {k * radix**i: Fraction(1, factorial(k)) for k in range(1, radix) for i in range(g)}
    return GradedPolynomial._raw(_names("x", g), (1,) * g, depth, {0: g} | packed)


def todd_class(g: int, depth: int, dual: bool = True) -> GradedPolynomial:
    """prod_i f(x_i) with f = t/(e^t - 1) (dual) or t/(1 - e^{-t}).

    The two differ by t -> -t, i.e. by the sign of every odd coefficient.
    """
    from fractions import Fraction
    _check_positive("g", g)
    _check_nonnegative("depth", depth)
    _check_bool("dual", dual)
    base = [bernoulli(k) / factorial(k) for k in range(depth + 1)]
    if not dual:
        base = [(-c if k % 2 else c) for k, c in enumerate(base)]
    # t -> D t makes each B_k D^k / k! an int; degree n of the product is D^n Td_n
    den = lcm(*(c.denominator for c in base))
    base = [c.numerator * (den**k // c.denominator) for k, c in enumerate(base)]
    # the coefficient of x1^a1 ... xg^ag is prod_i base[a_i] (base[0] = 1): root i
    # appends each exponent k to every monomial of degree n - k, and degrees
    # fall, so comps[n - k] does not hold root i yet
    radix = depth + 1
    comps = [{0: 1}] + [{} for _ in range(depth)]
    for step in (radix**i for i in range(g)):
        for n in range(depth, 0, -1):
            for k in range(1, n + 1):
                if base[k]:
                    shift, b = k * step, base[k]
                    comps[n].update({mon + shift: c * b for mon, c in comps[n - k].items()})
    fracs = [{c: Fraction(c, den**n) for c in set(comp.values())} for n, comp in enumerate(comps)]
    return GradedPolynomial._raw(_names("x", g), (1,) * g, depth, {
        mon: fracs[n][c] for n, comp in enumerate(comps) for mon, c in comp.items()})


def lambda_star_class(g: int, depth: int) -> GradedPolynomial:
    """Total Chern class of sum_i (-1)^i [Lambda^i E], in c1..cg: exp(L) with
    L = sum_k (-1)^{k-1} (k-1)! ch_k(lambda_{-1} E), computed in the class ring.

    Vanishes in degrees 1..g-1 by construction; the degree-g term is -(g-1)! c_g.
    """
    _check_positive("g", g)
    _check_int("depth", depth)
    if depth < g:
        raise ValueError("depth must reach g: the degree-g coefficient is the payload")
    # n! ch_n = (-1)^g c_g q[n - g] / g!, exactly, and zero below degree g: q[m]
    # = g! (m + g)! e_g(z)_m is g! times a sum of multinomials (m + g)!/prod_j
    # (n_j + 1)! on root monomials.  k! L_k = (-1)^{k-1} (k-1)! (k! ch_k).
    c_g, div = (depth + 1) ** (g - 1), (-1) ** g * factorial(g)
    q = _lambda_quotient(g, _power_sums(g, depth - g, depth + 1))
    total = _exp_scaled([{} for _ in range(g)] + [
        {mon + c_g: (-1) ** (k - 1) * factorial(k - 1) * c for mon, c in comp.items()}
        for k, comp in enumerate((_divided(comp, div) for comp in q), start=g)])
    # dividing by n! is exact, as the total class of a virtual bundle is integral
    return GradedPolynomial._raw(_names("c", g), tuple(range(1, g + 1)), depth, {
        mon: c for n, comp in enumerate(total) for mon, c in _divided(comp, factorial(n)).items()})


def _divided(comp: dict, div: int) -> dict:
    # comp with every coefficient divided by div, which must be exact: a remainder
    # means a wrong entry, and no wrong entry may floor away
    out = {}
    for mon, c in comp.items():
        out[mon], rem = divmod(c, div)
        if rem:
            raise ArithmeticError(f"a coefficient {c} is not divisible by {div}")
    return out


# -- the class-ring engine -------------------------------------------------
#
# The engine works on bare lists of homogeneous components, packed as
# GradedPolynomial packs c1..cg (radix depth + 1), so lambda_star_class hands
# its components over without repacking.  Components of degree n are kept
# scaled by n! where the series is exponential, which turns products into
# binomial convolutions.


def _power_sums(g: int, depth: int, radix: "int | None" = None) -> list[dict]:
    # p_1..p_depth of the roots by Newton's identities (p_0 = g is left out):
    # p_m = sum_{i<m} (-1)^{i-1} c_i p_{m-i} + (-1)^{m-1} m c_m, packed in radix,
    # depth + 1 by default.  lambda_star_class packs in its ring's radix but
    # reads p only through depth - g, as borel_serre_check does.
    radix = radix or depth + 1
    p: list[dict] = [{}]
    for m in range(1, depth + 1):
        acc: dict = {}
        for i in range(1, min(m - 1, g) + 1):
            _mul_into(acc, {radix ** (i - 1): 1}, p[m - i], 1 if i % 2 else -1)
        if m <= g:
            acc[radix ** (m - 1)] = m if m % 2 else -m
        p.append(acc)
    return p


def _log_derivative_scaled(top: int) -> tuple[int, list[int]]:
    # (D, [D r_k for k <= top]), D = lcm(1..top + 1), r_k = k! b_k with sum_k b_k t^k =
    # t Q'/Q = t/(1 - e^{-t}) - 1 for Q(t) = (e^t - 1)/t: r_k = B_k (B_1 = +1/2, r_0 = 0)
    # by the classical sum_{k<=n} C(n + 1, k) r_k = n.  D clears each (von Staudt-Clausen).
    d, r = lcm(*range(1, top + 2)), [0]
    for n in range(1, top + 1):
        r.append((n * d - sum(comb(n + 1, k) * r[k] for k in range(1, n))) // (n + 1))
    return d, r


def _lambda_quotient(g: int, p: list[dict]) -> list[dict]:
    # q[m] = g! (m + g)! e_g(z)_m for m = 0..top from p = p_0..p_top (p_0 unread),
    # z_j = Q(x_j); degree n of ch(lambda_{-1} E) reads q[n - g].  As e_g(z) =
    # prod_j Q(x_j), n E_n = sum_k b_k p_k E_{n-k}: times g! (n + g)!,
    # n q[n] = sum_k r_k C(n + g, k) p_k q[n - k], each division by n D checked.
    d, r = _log_derivative_scaled(len(p) - 1)
    q = [{0: factorial(g) ** 2}] if p else []
    for n in range(1, len(p)):
        acc: dict = {}
        for k in range(1, n + 1):
            if r[k]:
                _mul_into(acc, p[k], q[n - k], r[k] * comb(n + g, k))
        q.append(_divided(acc, n * d))
    return q


def _todd_scaled(p: list[dict]) -> tuple[int, list[dict]]:
    # (M, [M^n n! Td_n(E)]) as ints, Td = exp(sum_k s_k p_k) with sum_k s_k t^k
    # the log of t/(e^t - 1): s_1 = -1/2 and s_k = -B_k/(k k!) for k >= 2, so
    # the exp recurrence's k! s_k is -B_k/k, and M clears every one.
    from fractions import Fraction
    scale = [Fraction(-1, 2)] + [-bernoulli(k) / k for k in range(2, len(p))]
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
    # ch is (-1)^g c_g q / g!, so degree n + g of the identity, times (-1)^g g! M^n
    # (n + g)! / c_g, reads sum_j C(n + g, j + g) M^j q[j] td[n - j] = g!^2 [n = 0]
    p = _power_sums(g, depth - g)
    try:
        q = _lambda_quotient(g, p)
    except ArithmeticError:  # a Chern side that does not divide fails the identity
        return False
    m, td = _todd_scaled(p)
    for n in range(depth - g + 1):
        acc: dict = {}
        for j in range(n + 1):
            _mul_into(acc, q[j], td[n - j], comb(n + g, j + g) * m**j)
        if acc != ({0: factorial(g) ** 2} if n == 0 else {}):
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
    _check_int("max_degree", max_degree)
    if not 1 <= max_degree <= 2 * g:
        raise ValueError("max_degree must lie in 1..2g")
    # degree d is sum_{i+j=d} (-1)^j l_i l_j with l_0 = 1, on packed monomials
    ls = [0] + [(2 * g + 1) ** (i - 1) for i in range(1, g + 1)]
    names, weights, out = _names("l", g), tuple(range(1, g + 1)), []
    for d in range(1, max_degree + 1):
        packed: dict = {}
        for j in range(max(0, d - g), min(d, g) + 1):
            mon = ls[d - j] + ls[j]  # met at most twice, at j and d - j, so pruned last
            packed[mon] = packed.get(mon, 0) + (-1 if j % 2 else 1)
        out.append(GradedPolynomial._raw(names, weights, 2 * g, {
            mon: c for mon, c in packed.items() if c}))
    return out

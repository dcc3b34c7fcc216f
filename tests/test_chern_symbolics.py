from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial

import pytest
from root_ring_oracle import elementary_symmetric, inverse, root_variables, substitute_elementary

import tautorder.bernoulli_zeta as bernoulli_zeta
import tautorder.chern_symbolics as chern
from tautorder.bernoulli_zeta import todd_inverse_series
from tautorder.chern_symbolics import (
    GradedPolynomial,
    borel_serre_check,
    chern_character,
    class_variables,
    fundamental_relations,
    lambda_star_class,
    newton_special_case,
    symmetric_reduce,
    todd_class,
)
from tautorder.chern_symbolics import (
    _add_into,
    _exp_scaled,
    _lambda_character,
    _mul_into,
    _power_sums,
    _todd_scaled,
)


def _random_poly(rng: random.Random, vars_: tuple[GradedPolynomial, ...]) -> GradedPolynomial:
    acc = vars_[0].ring_constant(rng.randint(-3, 3))
    for _ in range(rng.randint(1, 4)):
        term = vars_[0].ring_constant(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))
        for v in vars_:
            term = term * v ** rng.randint(0, 2)
        acc = acc + term
    return acc


def _exp_minus_one(x: GradedPolynomial, depth: int) -> GradedPolynomial:
    acc = x.ring_constant(0)
    for k in range(1, depth + 1):
        acc = acc + x.ring_constant(Fraction(1, factorial(k))) * x**k
    return acc


def test_ring_laws_on_random_triples() -> None:
    rng = random.Random(55101)
    xs = root_variables(3, 5)
    for _ in range(40):
        a, b, c = (_random_poly(rng, xs) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == xs[0].ring_constant(0)
        assert a * xs[0].ring_constant(1) == a


def test_pow_matches_repeated_multiplication() -> None:
    rng = random.Random(55102)
    xs = root_variables(2, 6)
    for _ in range(20):
        a = _random_poly(rng, xs)
        explicit = xs[0].ring_constant(1)
        for k in range(5):
            assert a**k == explicit
            explicit = explicit * a
    with pytest.raises(ValueError, match="negative power"):
        xs[0] ** -1


def test_truncation_discards_high_degrees() -> None:
    xs = root_variables(2, 3)
    assert (xs[0] ** 4).is_zero()
    assert ((xs[0] + xs[1]) ** 3).coefficient((2, 1)) == 3
    assert ((xs[0] + xs[1]) ** 4).is_zero()


def test_weighted_grading_in_class_ring() -> None:
    cs = class_variables(3, 4)
    # c3 has weight 3, so c3*c2 falls outside truncation 4
    assert (cs[2] * cs[1]).is_zero()
    assert not (cs[2] * cs[0]).is_zero()
    p = cs[0] + cs[1] + cs[2]
    assert p.homogeneous_component(2) == cs[1]
    assert p.homogeneous_component(3) == cs[2]


def test_inverse_round_trip() -> None:
    # the oracle's inverse, which the Todd and subset-product oracles divide by
    rng = random.Random(55103)
    xs = root_variables(3, 4)
    one = xs[0].ring_constant(1)
    for _ in range(20):
        for c0 in (1, -2, Fraction(3, 5)):
            u = one * c0 + _random_poly(rng, xs) * xs[0]
            assert u * inverse(u) == one
            assert inverse(u) * u == one


def test_inverse_requires_unit_constant_term() -> None:
    xs = root_variables(2, 3)
    with pytest.raises(ValueError, match="nonzero constant term"):
        inverse(xs[0] + xs[1])


def test_homogeneous_components_partition() -> None:
    rng = random.Random(55104)
    xs = root_variables(3, 5)
    for _ in range(10):
        a = _random_poly(rng, xs)
        acc = xs[0].ring_constant(0)
        for d in range(6):
            acc = acc + a.homogeneous_component(d)
        assert acc == a


def test_terms_is_a_fresh_dict() -> None:
    # editing what .terms returns must not reach the polynomial, nor another
    # polynomial that shares its components
    source = elementary_symmetric(3, 2, 4)
    source.homogeneous_component(2).terms[(1, 1, 0)] = 7
    assert source.render() == "x1*x2 + x1*x3 + x2*x3"
    x1 = root_variables(2, 3)[0]
    x1.terms.clear()
    assert x1.terms == {(1, 0): 1}


def test_no_public_accessor_reaches_the_cached_components() -> None:
    # homogeneous_component shares its source's packed components, so every public
    # accessor must hand out a copy or an immutable value; a new accessor joins this list
    source = elementary_symmetric(3, 2, 4)
    e2 = source.homogeneous_component(2)
    assert sorted(n for n in dir(e2) if not n.startswith("_")) == [
        "coefficient", "homogeneous_component", "is_zero", "names", "render",
        "ring_constant", "ring_variable", "terms", "truncation", "weights",
    ]
    with pytest.raises(AttributeError):
        e2.comps[2][6] = 7
    parts = [e2.homogeneous_component(d) for d in range(5)] + [e2.ring_constant(1), e2.ring_variable(0)]
    for value in [e2.names, e2.weights, e2.truncation, e2.terms, e2.coefficient((1, 1, 0)), e2.is_zero(),
                  e2.render()] + [p.terms for p in parts]:
        if isinstance(value, dict):
            value[(1, 1, 0)] = 7
            value[(0, 0, 2)] = 1
        else:
            assert isinstance(value, (tuple, int, str))
    for poly in (source, e2):
        assert poly.render() == "x1*x2 + x1*x3 + x2*x3"
        assert poly.terms == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}


def test_coefficient_is_total() -> None:
    x1 = root_variables(2, 3)[0]
    assert x1.coefficient((1, 0)) == 1
    assert x1.coefficient((1,)) == 0  # too short
    assert x1.coefficient((1, 0, 0)) == 0  # too long
    assert x1.coefficient((-3, 1)) == 0  # negative exponent; packs to 1
    assert x1.coefficient((5, 0)) == 0  # exponent beyond the radix
    assert x1.coefficient((0, 4)) == 0  # weighted degree beyond the truncation
    c2 = class_variables(2, 3)[1]
    assert c2.coefficient((0, 1)) == 1
    assert c2.coefficient((0, 2)) == 0  # degree 4 > 3, though each exponent fits


def test_round_trip_through_terms() -> None:
    rng = random.Random(55106)
    for vars_ in (root_variables(3, 5), class_variables(3, 5)):
        for _ in range(20):
            p = _random_poly(rng, vars_)
            assert GradedPolynomial(p.names, p.weights, p.truncation, p.terms) == p


def test_immutability_and_unhashability() -> None:
    x1 = root_variables(2, 3)[0]
    with pytest.raises(AttributeError, match="immutable"):
        x1.terms = {}
    with pytest.raises(TypeError):
        hash(x1)


def test_mixed_ring_operations_rejected() -> None:
    a = root_variables(2, 3)[0]
    b = root_variables(3, 3)[0]
    with pytest.raises(ValueError):
        a + b


def test_render_goldens() -> None:
    xs = root_variables(2, 6)
    assert ((xs[0] + xs[0].ring_constant(1)) ** 4).render() == "1 + 4*x1 + 6*x1^2 + 4*x1^3 + x1^4"
    assert elementary_symmetric(3, 2, 4).render() == "x1*x2 + x1*x3 + x2*x3"
    assert xs[0].ring_constant(0).render() == "0"


def test_elementary_symmetric_degenerate_cases() -> None:
    # the table's empty product is 1 and its e_g is the one monomial x1...xg
    assert chern._elementary_monomial(3, (0, 0, 0), 5) == {0: 1}
    assert chern._elementary_monomial(3, (0, 0, 1), 5) == {chern._pack((1, 1, 1), 5): 1}


def test_elementary_monomial_table_matches_the_oracle_products() -> None:
    # every e-monomial e_1^a_1 ... e_g^a_g of weighted degree <= 8 in g <= 5 roots,
    # against the GradedPolynomial product of the oracle's e_i
    depth = 8
    for g in range(1, 6):
        es = [elementary_symmetric(g, i, depth) for i in range(1, g + 1)]
        for exps in product(*(range(depth // i + 1) for i in range(1, g + 1))):
            if sum(i * a for i, a in enumerate(exps, start=1)) > depth:
                continue
            want = es[0].ring_constant(1)
            for e, a in zip(es, exps):
                want = want * e**a
            table = chern._elementary_monomial(g, exps, depth + 1)
            assert {chern._unpack(mon, g, depth + 1): c for mon, c in table.items()} == want.terms


def test_symmetric_reduce_round_trip() -> None:
    rng = random.Random(55105)
    for g in (2, 3, 4):
        cs = class_variables(g, 5)
        for _ in range(8):
            q = _random_poly(rng, cs)
            reduction = symmetric_reduce(substitute_elementary(q))
            assert reduction.output == q


def _symmetric_reduce_by_fractions(poly: GradedPolynomial) -> GradedPolynomial:
    # the elimination on each component as given, Fraction coefficients and
    # all: the route before denominators were cleared, kept as an oracle
    g, radix = len(poly.names), poly.truncation + 1
    out = [{} for _ in poly._comps]
    for degree, bucket in enumerate(poly._comps):
        comp = dict(bucket)
        while comp:
            lead = max(comp)
            a = (0,) + chern._unpack(lead, g, radix)
            if any(a[i] > a[i + 1] for i in range(1, g)):
                raise ValueError("polynomial is not symmetric in the roots")
            exps = tuple(a[g - j + 1] - a[g - j] for j in range(1, g + 1))
            coeff = comp[lead]
            chern._add_into(comp, chern._elementary_monomial(g, exps, radix), -coeff)
            out[degree][chern._pack(exps, radix)] = coeff
    return GradedPolynomial._raw(
        tuple(f"c{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), poly.truncation, out)


def _assert_same(got: GradedPolynomial, want: GradedPolynomial) -> None:
    assert got == want
    assert got.render() == want.render()


def test_symmetric_reduce_matches_the_fraction_elimination() -> None:
    for g in range(1, 7):
        for depth in range(1, 9):
            ch = chern_character(g, depth)
            _assert_same(symmetric_reduce(ch).output, _symmetric_reduce_by_fractions(ch))


def test_symmetric_reduce_clears_mixed_denominators() -> None:
    # int and Fraction coefficients, several denominators within one degree
    # (1/2, 2/3, 5 in degree 2) and different ones across degrees
    c1, c2, c3 = class_variables(3, 5)
    q = (Fraction(5, 6) + Fraction(1, 2) * c1 + 5 * c1**2 + Fraction(2, 3) * c2
         + Fraction(-7, 4) * c3 + Fraction(3, 10) * c1 * c2 + c1**3 + Fraction(1, 7) * c2 * c3)
    roots = substitute_elementary(q)
    _assert_same(symmetric_reduce(roots).output, q)
    _assert_same(symmetric_reduce(roots).output, _symmetric_reduce_by_fractions(roots))


def test_symmetric_reduce_fraction_edge_cases() -> None:
    x1, x2 = root_variables(2, 3)
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_reduce(Fraction(1, 3) * x1 + Fraction(1, 2) * x2)
    # an integral Fraction input renders as the Fraction route renders it
    p2 = GradedPolynomial(x1.names, x1.weights, 3, {(2, 0): Fraction(3), (0, 2): Fraction(3)})
    assert symmetric_reduce(p2).output.render() == "3*c1^2 - 6*c2"
    _assert_same(symmetric_reduce(p2).output, _symmetric_reduce_by_fractions(p2))
    # empty components (degrees 1 and 3 here, every degree of zero) and truncation 0
    sparse = Fraction(1, 2) + Fraction(4, 3) * x1 * x2
    for poly in (sparse, x1.ring_constant(0), GradedPolynomial(x1.names, x1.weights, 0, {
            (0, 0): Fraction(2, 3), (1, 0): 5})):
        out = symmetric_reduce(poly).output
        _assert_same(out, _symmetric_reduce_by_fractions(poly))
        assert substitute_elementary(out) == poly
    assert symmetric_reduce(sparse).output.render() == "1/2 + 4/3*c2"


def test_symmetric_reduce_of_a_high_power_in_one_root() -> None:
    # x1^d is e_1^d: the table builds it by d multiplications, not d nested calls
    for d in (600, 1500):
        x1 = GradedPolynomial(("x1",), (1,), d, {(d,): 3})
        assert symmetric_reduce(x1).output.render() == f"3*c1^{d}"


def test_symmetric_reduce_power_sums() -> None:
    # classical expressions of power sums in the elementary basis
    xs = root_variables(3, 4)
    cs = class_variables(3, 4)
    c1, c2, c3 = cs
    p2 = xs[0] ** 2 + xs[1] ** 2 + xs[2] ** 2
    assert symmetric_reduce(p2).output == c1**2 - c2 - c2
    p3 = xs[0] ** 3 + xs[1] ** 3 + xs[2] ** 3
    three = c1.ring_constant(3)
    assert symmetric_reduce(p3).output == c1**3 - three * c1 * c2 + three * c3


def test_symmetric_reduce_rejects_asymmetric_input() -> None:
    xs = root_variables(2, 3)
    # x1*x2^2 passes as a first leading term, x1^2*x2 does not
    for poly in (xs[0], xs[0] * xs[1] ** 2, xs[0] ** 2 * xs[1]):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_reduce(poly)


# rendered before the polynomials changed their internal representation
PARITY = {
    "todd_class(3, 4)": (
        lambda: todd_class(3, 4),
        "1 - 1/2*x1 - 1/2*x2 - 1/2*x3 + 1/12*x1^2 + 1/4*x1*x2 + 1/4*x1*x3 + 1/12*x2^2"
        " + 1/4*x2*x3 + 1/12*x3^2 - 1/24*x1^2*x2 - 1/24*x1^2*x3 - 1/24*x1*x2^2"
        " - 1/8*x1*x2*x3 - 1/24*x1*x3^2 - 1/24*x2^2*x3 - 1/24*x2*x3^2 - 1/720*x1^4"
        " + 1/144*x1^2*x2^2 + 1/48*x1^2*x2*x3 + 1/144*x1^2*x3^2 + 1/48*x1*x2^2*x3"
        " + 1/48*x1*x2*x3^2 - 1/720*x2^4 + 1/144*x2^2*x3^2 - 1/720*x3^4",
    ),
    "todd_class(2, 3, dual=False)": (
        lambda: todd_class(2, 3, dual=False),
        "1 + 1/2*x1 + 1/2*x2 + 1/12*x1^2 + 1/4*x1*x2 + 1/12*x2^2 + 1/24*x1^2*x2"
        " + 1/24*x1*x2^2",
    ),
    "chern_character(3, 3)": (
        lambda: chern_character(3, 3),
        "3 + x1 + x2 + x3 + 1/2*x1^2 + 1/2*x2^2 + 1/2*x3^2 + 1/6*x1^3 + 1/6*x2^3"
        " + 1/6*x3^3",
    ),
    "symmetric_reduce(chern_character(3, 4))": (
        lambda: symmetric_reduce(chern_character(3, 4)).output,
        "3 + c1 + 1/2*c1^2 - c2 + 1/6*c1^3 - 1/2*c1*c2 + 1/2*c3 + 1/24*c1^4"
        " - 1/6*c1^2*c2 + 1/6*c1*c3 + 1/12*c2^2",
    ),
    "substitute_elementary(c1*c2 + c3)": (
        lambda: (lambda c1, c2, c3: substitute_elementary(c1 * c2 + c3))(*class_variables(3, 5)),
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 4*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2",
    ),
    "elementary_symmetric(4, 2, 4)": (
        lambda: elementary_symmetric(4, 2, 4),
        "x1*x2 + x1*x3 + x1*x4 + x2*x3 + x2*x4 + x3*x4",
    ),
    "lambda_star_class(5, 7)": (
        lambda: lambda_star_class(5, 7),
        "1 - 24*c5 + 60*c1*c5 - 120*c1^2*c5 + 60*c2*c5",
    ),
}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_render_parity(name: str) -> None:
    build, text = PARITY[name]
    assert build().render() == text


def test_chern_character_is_sum_of_exponentials() -> None:
    ch = chern_character(2, 4)
    assert ch.coefficient((0, 0)) == 2
    for k in range(1, 5):
        assert ch.coefficient((k, 0)) == Fraction(1, factorial(k))
        assert ch.coefficient((0, k)) == Fraction(1, factorial(k))
    assert ch.coefficient((1, 1)) == 0
    assert ch.render() == (
        "2 + x1 + x2 + 1/2*x1^2 + 1/2*x2^2 + 1/6*x1^3 + 1/6*x2^3"
        " + 1/24*x1^4 + 1/24*x2^4"
    )


def test_todd_class_single_variable_series() -> None:
    assert todd_class(1, 2).render() == "1 - 1/2*x1 + 1/12*x1^2"
    assert todd_class(1, 2, dual=False).render() == "1 + 1/2*x1 + 1/12*x1^2"


def _todd_class_by_fractions(g: int, depth: int, dual: bool) -> GradedPolynomial:
    # prod_i f(x_i) multiplied out on the Fraction series, the route before t -> D t
    xs = root_variables(g, depth)
    series = todd_inverse_series(depth)
    out = xs[0].ring_constant(1)
    for x in xs:
        factor = x.ring_constant(0)
        for k, c in enumerate(series):
            factor = factor + x.ring_constant(c if dual or k % 2 == 0 else -c) * x**k
        out = out * factor
    return out


def test_todd_class_matches_the_fraction_product() -> None:
    for g in range(1, 6):
        for depth in range(9):
            for dual in (True, False):
                _assert_same(todd_class(g, depth, dual), _todd_class_by_fractions(g, depth, dual))


def test_todd_class_is_product_over_roots() -> None:
    # rebuild from the one-variable series: invert (e^x - 1)/x per root
    depth = 4
    xs = root_variables(2, depth)
    one = xs[0].ring_constant(1)
    rebuilt = one
    for x in xs:
        quotient = one.ring_constant(0)
        for k in range(depth + 1):
            quotient = quotient + x.ring_constant(Fraction(1, factorial(k + 1))) * x**k
        rebuilt = rebuilt * inverse(quotient)
    assert rebuilt == todd_class(2, depth)


def test_lambda_star_payload_small_genus() -> None:
    assert lambda_star_class(3, 3).render() == "1 - 2*c3"
    assert lambda_star_class(4, 4).render() == "1 - 6*c4"
    for g in range(1, 6):
        lam = lambda_star_class(g, g)
        for d in range(1, g):
            assert lam.homogeneous_component(d).is_zero()
        top = lam.homogeneous_component(g)
        mono = tuple(0 for _ in range(g - 1)) + (1,)
        assert top.coefficient(mono) == -factorial(g - 1)


def _lambda_star_by_subset_product(g: int, depth: int) -> GradedPolynomial:
    # slow independent route: prod over nonempty subsets S of (1 + x_S)^{±1},
    # odd sizes inverted with the oracle's inverse(), reduced to c1..cg
    xs = root_variables(g, depth)
    one = xs[0].ring_constant(1)
    even = odd = one
    for size in range(1, g + 1):
        for subset in combinations(range(g), size):
            linear = one
            for i in subset:
                linear = linear + xs[i]
            if size % 2:
                odd = odd * linear
            else:
                even = even * linear
    return symmetric_reduce(even * inverse(odd)).output


def test_lambda_star_against_subset_product() -> None:
    for g in range(1, 6):
        for depth in (g, g + 1, g + 2):
            assert lambda_star_class(g, depth) == _lambda_star_by_subset_product(g, depth)


def test_lambda_star_goldens_beyond_the_oracle() -> None:
    # rendered by the subset product over root variables
    assert lambda_star_class(6, 8).render() == (
        "1 - 120*c6 + 360*c1*c6 - 840*c1^2*c6 + 420*c2*c6"
    )
    assert lambda_star_class(7, 7).render() == "1 - 720*c7"
    assert lambda_star_class(7, 9).render() == (
        "1 - 720*c7 + 2520*c1*c7 - 6720*c1^2*c7 + 3360*c2*c7"
    )


def test_lambda_star_payload_beyond_the_subset_product() -> None:
    for g in (9, 10):
        lam = lambda_star_class(g, g)
        cs = class_variables(g, g)
        assert lam == cs[0].ring_constant(1) - factorial(g - 1) * cs[g - 1]
        assert all(type(c) is int for c in lam.terms.values())


def test_lambda_star_requires_enough_depth() -> None:
    with pytest.raises(ValueError, match="depth must reach g"):
        lambda_star_class(3, 2)


def test_borel_serre_identity() -> None:
    for g in range(1, 5):
        assert borel_serre_check(g, g)
    # extra headroom above the top degree changes nothing
    assert borel_serre_check(2, 5)


def test_borel_serre_one_variable_by_hand() -> None:
    # (1 - e^x) * x/(e^x - 1) = -x identically
    depth = 6
    x = root_variables(1, depth)[0]
    lhs = x.ring_constant(0) - _exp_minus_one(x, depth)
    assert lhs * todd_class(1, depth) == x.ring_constant(-1) * x


def _one_minus_exp_product(g: int, depth: int) -> GradedPolynomial:
    # prod_i (1 - e^{x_i}), which is ch(lambda_{-1} E), in the root ring
    xs = root_variables(g, depth)
    product = xs[0].ring_constant(1)
    for x in xs:
        product = product * -_exp_minus_one(x, depth)
    return product


def _borel_serre_in_roots(g: int, depth: int) -> bool:
    # independent route: prod_i (1 - e^{x_i}) * Td == (-1)^g x1...xg, expanded
    # by the generic multiply in the root ring
    lhs = _one_minus_exp_product(g, depth)
    target = GradedPolynomial(lhs.names, lhs.weights, depth, {(1,) * g: (-1) ** g})
    return lhs * todd_class(g, depth) == target


def _class_poly(components: list[dict], g: int, depth: int) -> GradedPolynomial:
    # the polynomial in c1..cg of packed components (c1 the least significant
    # digit, radix depth + 1), built through the public constructor
    radix = depth + 1
    terms = {tuple(mon // radix**i % radix for i in range(g)): c
             for comp in components for mon, c in comp.items()}
    return GradedPolynomial([f"c{i}" for i in range(1, g + 1)], range(1, g + 1), depth, terms)


def _unscaled(components: list[dict], g: int, depth: int, m: int = 1) -> GradedPolynomial:
    # the class polynomial of components scaled by m^n n! in degree n
    return _class_poly(
        [{mon: Fraction(c, m**n * factorial(n)) for mon, c in comp.items()}
         for n, comp in enumerate(components)],
        g, depth,
    )


def _todd_scaled_by_fractions(p: list[dict]) -> list[dict]:
    # n! Td_n(E) with the Fraction k! s_k fed to the exp recurrence as they are,
    # the route before M cleared them, kept as an oracle
    series = todd_inverse_series(len(p) - 1)
    scale = [Fraction(-1, 2)] + [-factorial(k - 1) * series[k] for k in range(2, len(p))]
    return _exp_scaled([{}] + [{mon: c * s for mon, c in comp.items()} if s else {}
                               for s, comp in zip(scale, p[1:])])


def test_borel_serre_agrees_with_the_root_ring() -> None:
    for g in range(1, 6):
        for depth in range(2 * g + 2):
            assert borel_serre_check(g, depth) == _borel_serre_in_roots(g, depth) is True
    assert borel_serre_check(6, 12) == _borel_serre_in_roots(6, 12) is True


def test_class_ring_todd_and_lambda_character_match_the_roots() -> None:
    for g in range(1, 5):
        for depth in range(1, 2 * g + 1):
            p = _power_sums(g, depth)
            m, td = _todd_scaled(p)
            assert _unscaled(td, g, depth, m) == symmetric_reduce(todd_class(g, depth)).output
            assert _unscaled(_lambda_character(g, p), g, depth) == symmetric_reduce(
                _one_minus_exp_product(g, depth)).output


def test_todd_scaled_matches_the_fraction_route() -> None:
    for g in range(1, 7):
        for depth in range(2 * g + 1):
            m, td = _todd_scaled(_power_sums(g, depth))
            assert [{mon: Fraction(c, m**n) for mon, c in comp.items()}
                    for n, comp in enumerate(td)] == _todd_scaled_by_fractions(_power_sums(g, depth))


def test_power_sums_match_symmetric_reduction() -> None:
    depth = 8
    for g in range(1, 6):
        p = _power_sums(g, depth)
        xs = root_variables(g, depth)
        for m in range(1, depth + 1):
            power_sum = xs[0] ** m
            for x in xs[1:]:
                power_sum = power_sum + x**m
            assert _class_poly([p[m]], g, depth) == symmetric_reduce(power_sum).output


def test_mutated_todd_coefficient_is_rejected_by_both_routes(monkeypatch) -> None:
    # s_2 = -B_2/(2 2!) is read from B_2/2! = 1/12; both routes read that series
    original = chern.todd_inverse_series

    def mutated(depth: int) -> list[Fraction]:
        series = original(depth)
        series[2] = Fraction(1, 6)
        return series

    monkeypatch.setattr(chern, "todd_inverse_series", mutated)
    for g in range(2, 6):
        assert not borel_serre_check(g, 2 * g)
    for g in range(2, 4):
        assert not _borel_serre_in_roots(g, 2 * g)


def _lambda_character_by_adams(g: int, p: list[dict]) -> list[dict]:
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


def test_lambda_character_matches_the_adams_operations() -> None:
    # the alternating sum of e_i(e^{x_1}, ...) over the Adams operations, the
    # route before e_g(1 - e^{x_1}, ...), kept as an oracle
    for g in range(1, 8):
        for depth in range(2 * g + 2):
            p = _power_sums(g, depth)
            assert _lambda_character(g, p) == _lambda_character_by_adams(g, p)


def test_mutated_stirling_entry_is_rejected_by_borel_serre(monkeypatch) -> None:
    # the route reads t[k][d] for k <= d <= depth - (g - k): e_{i-k}(w) starts
    # in degree i - k, and e_g needs e_i only through degree depth - (g - i)
    original = chern._stirling_table
    for g in range(2, 6):
        for k in range(1, g + 1):
            for d in range(k, g + k + 1):

                def mutated(g_: int, depth: int, k=k, d=d) -> list[list[int]]:
                    table = original(g_, depth)
                    table[k][d] += 1
                    return table

                monkeypatch.setattr(chern, "_stirling_table", mutated)
                assert not borel_serre_check(g, 2 * g), (g, k, d)


def test_lambda_character_reads_no_bernoulli_number(monkeypatch) -> None:
    # so borel_serre_check sets Stirling/Newton against Bernoulli/exp, and its
    # left side is not Td^{-1} restated
    want = {g: _lambda_character(g, _power_sums(g, 2 * g)) for g in range(1, 7)}

    def refuse(*args):
        raise AssertionError("Bernoulli number read")

    for module in (chern, bernoulli_zeta):
        monkeypatch.setattr(module, "todd_inverse_series", refuse)
    monkeypatch.setattr(bernoulli_zeta, "bernoulli", refuse)
    for g, ch in want.items():
        assert _lambda_character(g, _power_sums(g, 2 * g)) == ch
    with pytest.raises(AssertionError, match="Bernoulli"):
        borel_serre_check(2, 4)


def test_class_ring_checks_build_no_graded_polynomial(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("GradedPolynomial used")

    for name in ("__init__", "__mul__", "__rmul__"):
        monkeypatch.setattr(GradedPolynomial, name, refuse)
    monkeypatch.setattr(GradedPolynomial, "_raw", classmethod(refuse))
    for g in range(1, 9):
        assert borel_serre_check(g, 2 * g)
    for g in range(1, 13):
        assert newton_special_case(g)


def test_engine_coefficients_are_exact() -> None:
    for g in range(1, 6):
        depth = 2 * g
        p = _power_sums(g, depth)
        exp_of_p = _exp_scaled([{}] + p[1:])
        for components in (p, _lambda_character(g, p), exp_of_p):
            assert all(type(c) is int for comp in components for c in comp.values())
        m, td = _todd_scaled(p)
        assert type(m) is int and all(type(c) is int for comp in td for c in comp.values())
        assert all(type(c) is int for c in lambda_star_class(g, depth).terms.values())


def test_newton_special_case_range() -> None:
    for g in range(1, 9):
        assert newton_special_case(g)


def test_fundamental_relations_frozen_g2() -> None:
    components = fundamental_relations(2, 4)
    assert [p.render() for p in components] == ["0", "-l1^2 + 2*l2", "0", "l2^2"]


def test_fundamental_relations_match_direct_expansion() -> None:
    # (1 + sum l_i)(1 + sum (-1)^i l_i) - 1, expanded in the test by hand
    g = 3
    ls = class_variables(g, 2 * g, symbol="l")
    one = ls[0].ring_constant(1)
    plus = one
    minus = one
    for i, v in enumerate(ls, start=1):
        plus = plus + v
        minus = minus + (v if i % 2 == 0 else -v)
    expected = plus * minus - one
    components = fundamental_relations(g, 2 * g)
    assert len(components) == 2 * g
    for d, comp in enumerate(components, start=1):
        assert comp == expected.homogeneous_component(d)
    # odd-degree components vanish
    for d in (1, 3, 5):
        assert components[d - 1].is_zero()
    assert components[3].render() == "-2*l1*l3 + l2^2"
    assert components[5].render() == "-l3^2"
    assert [comp.render() for comp in components] == [
        "0", "-l1^2 + 2*l2", "0", "-2*l1*l3 + l2^2", "0", "-l3^2"]


def test_fundamental_relations_degree_window() -> None:
    with pytest.raises(ValueError, match="max_degree"):
        fundamental_relations(2, 0)
    with pytest.raises(ValueError, match="max_degree"):
        fundamental_relations(2, 5)

from __future__ import annotations

import ast
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import comb, factorial, lcm, perm
from pathlib import Path

import pytest
from root_ring_oracle import (
    RingElement,
    class_variables,
    elementary_symmetric,
    inverse,
    root_variables,
    substitute_elementary,
)

import tautorder
import tautorder.bernoulli_zeta as bernoulli_zeta
import tautorder.chern_symbolics as chern
from tautorder.bernoulli_zeta import bernoulli
from tautorder.chern_symbolics import (
    GradedPolynomial,
    borel_serre_check,
    chern_character,
    fundamental_relations,
    lambda_star_class,
    newton_special_case,
    symmetric_reduce,
    todd_class,
)
from tautorder.chern_symbolics import (
    _add_into,
    _exp_scaled,
    _lambda_quotient,
    _log_derivative_scaled,
    _mul_into,
    _power_sums,
    _todd_scaled,
)


def _random_poly(rng: random.Random, vars_: tuple[RingElement, ...]) -> RingElement:
    acc = vars_[0].constant(rng.randint(-3, 3))
    for _ in range(rng.randint(1, 4)):
        term = vars_[0].constant(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3))))
        for v in vars_:
            term = term * v ** rng.randint(0, 2)
        acc = acc + term
    return acc


def _exp_minus_one(x: RingElement, depth: int) -> RingElement:
    acc = x.constant(0)
    for k in range(1, depth + 1):
        acc = acc + Fraction(1, factorial(k)) * x**k
    return acc


REMOVED_ARITHMETIC = (
    "_like", "_check_ring", "ring_constant", "ring_variable", "__add__", "__radd__", "__neg__",
    "__sub__", "__rsub__", "_scaled", "__mul__", "__rmul__", "__pow__", "homogeneous_component",
    "coefficient", "is_zero",
)


def test_graded_polynomial_is_a_record_without_arithmetic() -> None:
    # todd_class and fundamental_relations write their terms down, so the record
    # needs no ring; the ring the tests compute in is root_ring_oracle's
    for name in REMOVED_ARITHMETIC:
        assert not hasattr(GradedPolynomial, name), name
    for module in (chern, tautorder):
        assert not hasattr(module, "class_variables")


def test_root_ring_oracle_shares_nothing_with_the_packed_ring() -> None:
    # the oracle imports GradedPolynomial alone and reads only its public fields,
    # so a fault in the packed components or in _mul_into cannot reach both sides
    tree = ast.parse((Path(__file__).parent / "root_ring_oracle.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tautorder"
        for alias in node.names
    ]
    assert imported == ["GradedPolynomial"]
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "tautorder" for a in node.names)]
    package = {*dir(GradedPolynomial), *GradedPolynomial._fields, *vars(chern), *REMOVED_ARITHMETIC}
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & package <= {"names", "weights", "truncation", "terms"}


def test_ring_laws_on_random_triples() -> None:
    # the oracle's ring, in which the tests below build their expected values
    rng = random.Random(55101)
    xs = root_variables(3, 5)
    for _ in range(40):
        a, b, c = (_random_poly(rng, xs) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a - a == xs[0].constant(0)
        assert a * xs[0].constant(1) == a


def test_pow_matches_repeated_multiplication() -> None:
    rng = random.Random(55102)
    xs = root_variables(2, 6)
    for _ in range(20):
        a = _random_poly(rng, xs)
        explicit = xs[0].constant(1)
        for k in range(5):
            assert a**k == explicit
            explicit = explicit * a
    with pytest.raises(ValueError, match="negative power"):
        xs[0] ** -1


def test_truncation_discards_high_degrees() -> None:
    xs = root_variables(2, 3)
    assert (xs[0] ** 4).terms == {}
    assert ((xs[0] + xs[1]) ** 3).terms[(2, 1)] == 3
    assert ((xs[0] + xs[1]) ** 4).terms == {}


def test_weighted_grading_in_class_ring() -> None:
    cs = class_variables(3, 4)
    # c3 has weight 3, so c3*c2 falls outside truncation 4
    assert (cs[2] * cs[1]).terms == {}
    assert (cs[2] * cs[0]).terms == {(1, 0, 1): 1}
    p = cs[0] + cs[1] + cs[2]
    assert p.component(2) == cs[1]
    assert p.component(3) == cs[2]


def test_inverse_round_trip() -> None:
    # the oracle's inverse, which the Todd and subset-product oracles divide by
    rng = random.Random(55103)
    xs = root_variables(3, 4)
    one = xs[0].constant(1)
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
        acc = xs[0].constant(0)
        for d in range(6):
            acc = acc + a.component(d)
        assert acc == a


def test_terms_is_a_fresh_dict() -> None:
    # editing what .terms returns must not reach the polynomial
    source = elementary_symmetric(3, 2, 4).polynomial()
    source.terms[(1, 1, 0)] = 7
    assert source.render() == "x1*x2 + x1*x3 + x2*x3"
    x1 = root_variables(2, 3)[0].polynomial()
    x1.terms.clear()
    assert x1.terms == {(1, 0): 1}


def test_no_public_accessor_reaches_the_cached_components() -> None:
    # every public accessor must hand out a copy or an immutable value; a new
    # accessor joins this list
    for poly in (elementary_symmetric(3, 2, 4).polynomial(), fundamental_relations(2, 2)[1]):
        assert sorted(n for n in dir(poly) if not n.startswith("_")) == [
            "names", "render", "terms", "truncation", "weights",
        ]
        with pytest.raises(AttributeError):
            poly.comps[2][6] = 7
        before = (poly.render(), poly.terms)
        for value in (poly.names, poly.weights, poly.truncation, poly.terms, poly.render()):
            if isinstance(value, dict):
                value[(1, 1, 0)] = 7
                value[(0, 0, 2)] = 1
            else:
                assert isinstance(value, (tuple, int, str))
        assert (poly.render(), poly.terms) == before


def test_round_trip_through_terms() -> None:
    # the validating constructor rebuilds every record the package builds raw
    rng = random.Random(55106)
    polys = [_random_poly(rng, vars_).polynomial()
             for vars_ in (root_variables(3, 5), class_variables(3, 5)) for _ in range(20)]
    polys += [todd_class(3, 5), todd_class(2, 4, dual=False), chern_character(3, 4),
              lambda_star_class(4, 7), symmetric_reduce(chern_character(3, 4)).output,
              *fundamental_relations(3, 6)]
    for p in polys:
        assert GradedPolynomial(p.names, p.weights, p.truncation, p.terms) == p
        # one unordered map: neither equality nor print order follows insertion order
        rebuilt = GradedPolynomial(
            p.names, p.weights, p.truncation, dict(reversed(list(p.terms.items()))))
        assert rebuilt == p and rebuilt.render() == p.render()


def test_a_record_costs_its_terms_not_its_truncation() -> None:
    # one term under truncation 10**6: no allocation per degree up to the truncation
    tracemalloc.start()
    try:
        start = time.perf_counter()
        x = GradedPolynomial(("x",), (1,), 10**6, {(1,): 1})
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"built in {elapsed * 1e3:.3f} ms, tracemalloc peak {peak / 1024:.1f} KiB")
    assert peak < 64 * 1024
    assert x.terms == {(1,): 1} and x.render() == "x"


def test_immutability_and_unhashability() -> None:
    x1 = root_variables(2, 3)[0].polynomial()
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
    assert ((xs[0] + 1) ** 4).polynomial().render() == "1 + 4*x1 + 6*x1^2 + 4*x1^3 + x1^4"
    assert elementary_symmetric(3, 2, 4).polynomial().render() == "x1*x2 + x1*x3 + x2*x3"
    assert xs[0].constant(0).polynomial().render() == "0"


def _nondecreasing(mon: tuple) -> bool:
    return all(a <= b for a, b in zip(mon, mon[1:]))


def test_elementary_symmetric_degenerate_cases() -> None:
    # the table's empty product is 1 and its e_g the one monomial x1...xg; of
    # e_1 = x1 + x2 + x3 it keeps x3, and of e_1^2 the x3^2 and 2*x2*x3
    pack = chern._pack
    assert chern._sorted_elementary_monomial(3, (0, 0, 0), 5) == {0: 1}
    assert chern._sorted_elementary_monomial(3, (0, 0, 1), 5) == {pack((1, 1, 1), 5): 1}
    assert chern._sorted_elementary_monomial(3, (1, 0, 0), 5) == {pack((0, 0, 1), 5): 1}
    assert chern._sorted_elementary_monomial(3, (2, 0, 0), 5) == {
        pack((0, 0, 2), 5): 1, pack((0, 1, 1), 5): 2}


def test_sorted_monomials_are_the_partitions_of_the_degree() -> None:
    # each nondecreasing exponent vector of the degree, once, against a plain filter
    for g in range(1, 7):
        for degree in range(11):
            radix = degree + 2
            want = {chern._pack(mon, radix) for mon in combinations_with_replacement(
                range(degree + 1), g) if sum(mon) == degree}
            got = [lead for lead, _, _ in chern._sorted_of_degree(g, degree, radix)]
            assert len(got) == len(set(got)) and set(got) == want, (g, degree)


def test_each_degrees_plan_is_strictly_descending_and_names_the_leading_e_monomial() -> None:
    # a row is (lead, packed exps, exps): leads fall strictly, and the oracle's
    # prod_j e_j^exps_j has the row's lead as its greatest monomial, coefficient 1
    for g in range(1, 6):
        es = [elementary_symmetric(g, i, 8) for i in range(1, g + 1)]
        for degree in range(9):
            rows = chern._sorted_of_degree(g, degree, 9)
            leads = [lead for lead, _, _ in rows]
            assert leads == sorted(set(leads), reverse=True), (g, degree)
            for lead, key, exps in rows:
                assert key == chern._pack(exps, 9)
                product_ = es[0].constant(1)
                for e, a in zip(es, exps):
                    product_ = product_ * e**a
                top = max(product_.terms, key=lambda mon: mon[::-1])  # x_g first, as packed
                assert (chern._pack(top, 9), product_.terms[top]) == (lead, 1), (g, exps)


def test_elementary_monomial_table_matches_the_oracle_products() -> None:
    # every e-monomial e_1^a_1 ... e_g^a_g of weighted degree <= 8 in g <= 5 roots,
    # against the oracle's product of its e_i on the nondecreasing exponents
    depth = 8
    for g in range(1, 6):
        es = [elementary_symmetric(g, i, depth) for i in range(1, g + 1)]
        for exps in product(*(range(depth // i + 1) for i in range(1, g + 1))):
            if sum(i * a for i, a in enumerate(exps, start=1)) > depth:
                continue
            want = es[0].constant(1)
            for e, a in zip(es, exps):
                want = want * e**a
            table = chern._sorted_elementary_monomial(g, exps, depth + 1)
            assert {chern._unpack(mon, g, depth + 1): c for mon, c in table.items()} == {
                mon: c for mon, c in want.terms.items() if _nondecreasing(mon)}


def test_symmetric_reduce_round_trip() -> None:
    rng = random.Random(55105)
    for g in (2, 3, 4):
        cs = class_variables(g, 5)
        for _ in range(8):
            q = _random_poly(rng, cs)
            reduction = symmetric_reduce(substitute_elementary(q).polynomial())
            assert reduction.output == q


def _symmetric_reduce_by_fractions(poly: GradedPolynomial, work: list = None) -> GradedPolynomial:
    # the full elimination on each component as given, every monomial and
    # Fraction coefficients: the route before denominators were cleared and rows
    # cut to sorted monomials, kept as an oracle.  It reads the public terms and
    # multiplies the oracle's e_i, so it shares no table with symmetric_reduce.
    # `work`, a list, gets the number of terms each subtraction reads.
    g, depth = len(poly.names), poly.truncation
    es = [elementary_symmetric(g, i, depth) for i in range(1, g + 1)]
    comps: dict = {}
    for mon, c in poly.terms.items():
        comps.setdefault(sum(mon), {})[mon] = c
    out = {}
    for terms in comps.values():
        comp = RingElement(poly.names, poly.weights, depth, terms)
        while comp.terms:
            lead = max(comp.terms, key=lambda mon: mon[::-1])  # x_g first, as packed
            if not _nondecreasing(lead):
                raise ValueError("polynomial is not symmetric in the roots")
            a = (0,) + lead
            exps = tuple(a[g - j + 1] - a[g - j] for j in range(1, g + 1))
            row = es[0].constant(1)
            for e, k in zip(es, exps):
                for _ in range(k):
                    row = row * e
            if work is not None:
                work.append(len(row.terms))
            out[exps] = coeff = comp.terms[lead]
            comp = comp - coeff * row
    return GradedPolynomial(
        tuple(f"c{i}" for i in range(1, g + 1)), tuple(range(1, g + 1)), depth, out)


def _assert_same(got: GradedPolynomial, want: GradedPolynomial) -> None:
    assert got == want
    assert got.render() == want.render()


def test_symmetric_reduce_matches_the_fraction_elimination() -> None:
    for g in range(1, 7):
        for depth in range(1, 9):
            ch = chern_character(g, depth)
            _assert_same(symmetric_reduce(ch).output, _symmetric_reduce_by_fractions(ch))


def _power_sum(g: int, k: int) -> GradedPolynomial:
    # x1^k + ... + xg^k, truncated at degree k, as the class-ring pool builds it
    names = tuple(f"x{i}" for i in range(1, g + 1))
    return GradedPolynomial(names, (1,) * g, k, {
        tuple(k if j == i else 0 for j in range(g)): 1 for i in range(g)})


def test_symmetric_reduce_of_power_sums_matches_the_fraction_elimination() -> None:
    # every lead of p_k but x_g^k starts at zero and arises only by subtraction
    for g in range(1, 7):
        for k in range(9):
            p = _power_sum(g, k)
            _assert_same(symmetric_reduce(p).output, _symmetric_reduce_by_fractions(p))


@pytest.mark.parametrize("poly", [chern_character(4, 8), chern_character(6, 6), _power_sum(4, 8)],
                         ids=["ch(4, 8)", "ch(6, 6)", "p8 in 4 roots"])
def test_symmetric_reduce_writes_each_degree_by_descending_lead(poly: GradedPolynomial) -> None:
    # degrees in the order the input first meets them (ascending here), and within
    # one the e-monomials by their leading root monomial, x_g first, descending:
    # e_1^a_1 ... e_g^a_g leads with x_i^(a_{g-i+1} + ... + a_g) for i = 1..g
    out = symmetric_reduce(poly).output
    g, radix = len(out.names), out.truncation + 1

    def lead(exps: tuple) -> int:
        return chern._pack(tuple(accumulate(reversed(exps))), radix)

    keys = [chern._unpack(key, g, radix) for key in out._packed]
    assert len(keys) > 1
    assert keys == sorted(keys, key=lambda exps: (
        sum(i * a for i, a in enumerate(exps, start=1)), -lead(exps)))


def test_symmetric_reduce_clears_mixed_denominators() -> None:
    # int and Fraction coefficients, several denominators within one degree
    # (1/2, 2/3, 5 in degree 2) and different ones across degrees
    c1, c2, c3 = class_variables(3, 5)
    q = (Fraction(5, 6) + Fraction(1, 2) * c1 + 5 * c1**2 + Fraction(2, 3) * c2
         + Fraction(-7, 4) * c3 + Fraction(3, 10) * c1 * c2 + c1**3 + Fraction(1, 7) * c2 * c3)
    roots = substitute_elementary(q).polynomial()
    _assert_same(symmetric_reduce(roots).output, q.polynomial())
    _assert_same(symmetric_reduce(roots).output, _symmetric_reduce_by_fractions(roots))


def test_symmetric_reduce_fraction_edge_cases() -> None:
    x1, x2 = root_variables(2, 3)
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_reduce((Fraction(1, 3) * x1 + Fraction(1, 2) * x2).polynomial())
    # an integral Fraction input renders as the Fraction route renders it
    p2 = GradedPolynomial(x1.names, x1.weights, 3, {(2, 0): Fraction(3), (0, 2): Fraction(3)})
    assert symmetric_reduce(p2).output.render() == "3*c1^2 - 6*c2"
    _assert_same(symmetric_reduce(p2).output, _symmetric_reduce_by_fractions(p2))
    # empty components (degrees 1 and 3 here, every degree of zero) and truncation 0
    sparse = (Fraction(1, 2) + Fraction(4, 3) * x1 * x2).polynomial()
    for poly in (sparse, x1.constant(0).polynomial(), GradedPolynomial(x1.names, x1.weights, 0, {
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
    assert symmetric_reduce(p2.polynomial()).output == c1**2 - c2 - c2
    p3 = xs[0] ** 3 + xs[1] ** 3 + xs[2] ** 3
    assert symmetric_reduce(p3.polynomial()).output == c1**3 - 3 * c1 * c2 + 3 * c3


def test_symmetric_reduce_rejects_asymmetric_input() -> None:
    xs = root_variables(2, 3)
    # x1*x2^2 passes as a first leading term, x1^2*x2 does not
    for poly in (xs[0], xs[0] * xs[1] ** 2, xs[0] ** 2 * xs[1]):
        with pytest.raises(ValueError, match="not symmetric"):
            symmetric_reduce(poly.polynomial())


def test_symmetric_reduce_rejects_asymmetry_off_the_sorted_monomials() -> None:
    # every sorted monomial carries its symmetric coefficient, so the elimination
    # alone would pass; one permuted monomial of a lower degree is off or missing
    c1, c2, c3 = class_variables(3, 6)
    terms = substitute_elementary(2 + c1 + Fraction(1, 3) * c2 + c1**2 * c3).terms
    assert terms[1, 1, 0] == terms[0, 1, 1] == Fraction(1, 3)
    for change in ({(1, 1, 0): Fraction(2, 3)}, {(1, 0, 0): 0}, {(1, 0, 1): 5}):
        poly = GradedPolynomial(("x1", "x2", "x3"), (1, 1, 1), 6, terms | change)
        with pytest.raises(ValueError, match="polynomial is not symmetric in the roots"):
            symmetric_reduce(poly)


def test_symmetric_reduce_rejects_any_single_changed_term() -> None:
    # a term moved by some permutation, raised by one or set to 0, breaks the
    # symmetry; a term that no permutation moves, x1^k...xg^k = c_g^k, keeps it
    rng = random.Random(55139)
    for g in range(2, 6):
        cs = class_variables(g, 5)
        for _ in range(5):
            q = _random_poly(rng, cs)
            roots = substitute_elementary(q)
            assert symmetric_reduce(roots.polynomial()).output == q
            for mon, c in roots.terms.items():
                for new in (c + 1, 0):
                    poly = GradedPolynomial(roots.names, roots.weights, 5, roots.terms | {mon: new})
                    if len(set(mon)) == 1:
                        want = q + (new - c) * cs[-1] ** mon[0]
                        assert symmetric_reduce(poly).output == want, (g, mon)
                    else:
                        with pytest.raises(ValueError, match="not symmetric"):
                            symmetric_reduce(poly)


def test_symmetric_reduce_in_one_root_takes_every_polynomial() -> None:
    # with g = 1 every monomial is sorted, no swap exists, and x1^k is c1^k
    rng = random.Random(55140)
    for _ in range(20):
        terms = {(k,): Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for k in rng.sample(range(9), 4)}
        out = symmetric_reduce(GradedPolynomial(("x1",), (1,), 8, terms)).output
        assert (out.names, out.terms) == (("c1",), {mon: c for mon, c in terms.items() if c})


def test_symmetric_reduce_does_at_most_a_tenth_of_the_full_eliminations_work(monkeypatch) -> None:
    # a count of the terms _add_into reads in a warm call, not a timing: the full
    # rows read 4,550 at g = 6, the rows cut to sorted monomials 118
    ch = chern_character(6, 6)
    symmetric_reduce(ch)  # fills the table
    count, add_into = [0], chern._add_into

    def counting_add(acc: dict, comp: dict, scale) -> None:
        count[0] += len(comp)
        add_into(acc, comp, scale)

    monkeypatch.setattr(chern, "_add_into", counting_add)
    symmetric_reduce(ch)
    work: list = []
    _symmetric_reduce_by_fractions(ch, work)
    assert 0 < count[0] <= sum(work) // 10, (count[0], sum(work))


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
        lambda: (lambda c1, c2, c3: substitute_elementary(c1 * c2 + c3))(
            *class_variables(3, 5)).polynomial(),
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 4*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2",
    ),
    "elementary_symmetric(4, 2, 4)": (
        lambda: elementary_symmetric(4, 2, 4).polynomial(),
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
    assert ch.terms[(0, 0)] == 2
    for k in range(1, 5):
        assert ch.terms[(k, 0)] == Fraction(1, factorial(k))
        assert ch.terms[(0, k)] == Fraction(1, factorial(k))
    assert (1, 1) not in ch.terms
    assert ch.render() == (
        "2 + x1 + x2 + 1/2*x1^2 + 1/2*x2^2 + 1/6*x1^3 + 1/6*x2^3"
        " + 1/24*x1^4 + 1/24*x2^4"
    )


def test_chern_character_at_depth_zero_is_the_rank() -> None:
    # as todd_class(g, 0) and borel_serre_check(g, 0) accept depth 0
    for g in range(1, 5):
        ch = chern_character(g, 0)
        assert ch.terms == {(0,) * g: g}
        assert ch.render() == str(g)
        assert ch.truncation == 0
    assert todd_class(3, 0).render() == "1"
    assert borel_serre_check(3, 0)


def test_todd_class_single_variable_series() -> None:
    assert todd_class(1, 2).render() == "1 - 1/2*x1 + 1/12*x1^2"
    assert todd_class(1, 2, dual=False).render() == "1 + 1/2*x1 + 1/12*x1^2"


def _todd_class_by_fractions(g: int, depth: int, dual: bool) -> GradedPolynomial:
    # prod_i f(x_i) multiplied out on the Fraction series, the route before t -> D t
    xs = root_variables(g, depth)
    series = [bernoulli(k) / factorial(k) for k in range(depth + 1)]
    out = xs[0].constant(1)
    for x in xs:
        factor = x.constant(0)
        for k, c in enumerate(series):
            factor = factor + (c if dual or k % 2 == 0 else -c) * x**k
        out = out * factor
    return out.polynomial()


def test_todd_class_matches_the_fraction_product() -> None:
    # through (4, 8) and (6, 6), the class-ring pool's largest sizes
    for g, depth in [(g, depth) for g in range(1, 6) for depth in range(9)] + [(6, 6)]:
        for dual in (True, False):
            _assert_same(todd_class(g, depth, dual), _todd_class_by_fractions(g, depth, dual))


def test_todd_class_is_product_over_roots() -> None:
    # rebuild from the one-variable series: invert (e^x - 1)/x per root
    depth = 4
    xs = root_variables(2, depth)
    one = xs[0].constant(1)
    rebuilt = one
    for x in xs:
        quotient = one.constant(0)
        for k in range(depth + 1):
            quotient = quotient + Fraction(1, factorial(k + 1)) * x**k
        rebuilt = rebuilt * inverse(quotient)
    assert rebuilt == todd_class(2, depth)


def test_lambda_star_payload_small_genus() -> None:
    assert lambda_star_class(3, 3).render() == "1 - 2*c3"
    assert lambda_star_class(4, 4).render() == "1 - 6*c4"
    for g in range(1, 6):
        lam = RingElement.of(lambda_star_class(g, g))
        for d in range(1, g):
            assert lam.component(d).terms == {}
        mono = tuple(0 for _ in range(g - 1)) + (1,)
        assert lam.component(g).terms == {mono: -factorial(g - 1)}


def _lambda_star_by_subset_product(g: int, depth: int) -> GradedPolynomial:
    # slow independent route: prod over nonempty subsets S of (1 + x_S)^{±1},
    # odd sizes inverted with the oracle's inverse(), reduced to c1..cg
    xs = root_variables(g, depth)
    one = xs[0].constant(1)
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
    return symmetric_reduce((even * inverse(odd)).polynomial()).output


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
        assert lam == 1 - factorial(g - 1) * cs[g - 1]
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
    lhs = -_exp_minus_one(x, depth)
    assert lhs * todd_class(1, depth) == -x


def _one_minus_exp_product(g: int, depth: int) -> GradedPolynomial:
    # prod_i (1 - e^{x_i}), which is ch(lambda_{-1} E), in the root ring
    xs = root_variables(g, depth)
    product = xs[0].constant(1)
    for x in xs:
        product = product * -_exp_minus_one(x, depth)
    return product.polynomial()


def _borel_serre_in_roots(g: int, depth: int) -> bool:
    # independent route: prod_i (1 - e^{x_i}) * Td == (-1)^g x1...xg, expanded
    # by the oracle's multiply in the root ring
    lhs = RingElement.of(_one_minus_exp_product(g, depth))
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


def _lambda_character(g: int, p: list[dict]) -> list[dict]:
    # n! ch_n(lambda_{-1} E), n = 0..depth: (-1)^g c_g q[n - g] / g!, zero below
    # degree g by construction.  The adaptor lambda_star_class read before it
    # took q through degree depth - g itself, kept as an oracle on
    # _lambda_quotient.
    depth = len(p) - 1
    c_g, div = (depth + 1) ** (g - 1), (-1) ** g * factorial(g)
    return [{} for _ in range(min(g, depth + 1))] + [
        {mon + c_g: c // div for mon, c in comp.items()}
        for comp in _lambda_quotient(g, p[: max(0, depth - g + 1)])]


def _lambda_star_by_character(g: int, depth: int) -> GradedPolynomial:
    # the route before lambda_star_class read _lambda_quotient itself: ch from
    # _power_sums(g, depth), then exp(sum_k (-1)^{k-1} (k-1)! ch_k), then / n!
    ch = _lambda_character(g, _power_sums(g, depth))
    total = _exp_scaled([{mon: (-1) ** (k - 1) * factorial(k - 1) * c for mon, c in comp.items()}
                         for k, comp in enumerate(ch)])
    return _class_poly([{mon: c // factorial(n) for mon, c in comp.items()}
                        for n, comp in enumerate(total)], g, depth)


def test_lambda_star_matches_the_character_route() -> None:
    for g in range(1, 9):
        for depth in range(g, 2 * g + 2):
            assert lambda_star_class(g, depth) == _lambda_star_by_character(g, depth), (g, depth)


def test_lambda_star_builds_power_sums_only_through_depth_minus_g(monkeypatch) -> None:
    asked = []
    original = chern._power_sums

    def spy(g: int, depth: int, *args):
        asked.append(depth)
        return original(g, depth, *args)

    monkeypatch.setattr(chern, "_power_sums", spy)
    for g in range(1, 9):
        for depth in range(g, 2 * g + 2):
            asked.clear()
            lambda_star_class(g, depth)
            assert asked and max(asked) <= depth - g, (g, depth, asked)


def test_lambda_star_refuses_a_quotient_entry_that_does_not_divide(monkeypatch) -> None:
    # q[m] is a multiple of g!; an entry raised by 1 used to floor away, and at
    # g = 3, depth 6 the class came out as the correct one
    original = chern._lambda_quotient
    for entry in range(len(original(3, chern._power_sums(3, 3, 7))[1])):

        def mutated(g: int, p: list[dict], entry=entry) -> list[dict]:
            q = original(g, p)
            mon = sorted(q[1])[entry]
            q[1][mon] += 1
            return q

        monkeypatch.setattr(chern, "_lambda_quotient", mutated)
        with pytest.raises(ArithmeticError, match="not divisible by -6$"):
            lambda_star_class(3, 6)


def _todd_scaled_by_fractions(p: list[dict]) -> list[dict]:
    # n! Td_n(E) with the Fraction k! s_k fed to the exp recurrence as they are,
    # the route before M cleared them, kept as an oracle
    series = [bernoulli(k) / factorial(k) for k in range(len(p))]
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
            assert _class_poly([p[m]], g, depth) == symmetric_reduce(power_sum.polynomial()).output


def test_mutated_todd_coefficient_is_rejected_by_both_routes(monkeypatch) -> None:
    # s_2 = -B_2/(2 2!) and the series' B_2/2! = 1/12 both read B_2 = 1/6, from
    # the same bernoulli; B_2 -> 1/3 doubles both
    original = chern.bernoulli

    def mutated(m: int) -> Fraction:
        return Fraction(1, 3) if m == 2 else original(m)

    monkeypatch.setattr(chern, "bernoulli", mutated)
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


def _stirling_table(g: int, depth: int) -> list[list[int]]:
    # t[k][n] = k! S(n, k) = sum_m C(k, m) (-1)^{k-m} m^n, n! times the degree-n
    # part of (e^x - 1)^k, whose derivative is k ((e^x - 1)^k + (e^x - 1)^{k-1})
    t = [[1] + [0] * depth]
    for k in range(1, g + 1):
        t.append(list(accumulate(t[k - 1][:-1], lambda r, s: k * (r + s), initial=0)))
    return t


def _lambda_quotient_on_the_square(g: int, p: list[dict]) -> list[dict]:
    # q[m] = g! (m + g)! e_g(z)_m for m = 0..top, z_j = (e^{x_j} - 1)/x_j, by
    # Newton on z itself: the degree-d part of P_k(z) is t[k][d + k] / (d + k)! p_d,
    # with p_0 = g, and i e_i = sum_k (-1)^{k-1} e_{i-k} P_k, times
    # (i - 1)! (m + i)!, runs on F_i[m] = i! (m + i)! e_i(z)_m for every i <= g
    # and m <= top.  The route before _lambda_quotient expanded around
    # w = z - 1, kept as an oracle.
    top = len(p) - 1
    t = _stirling_table(g, top + g)
    p = [{0: g}] + p[1:]
    f = [[{0: 1}] + [{} for _ in range(top)]]
    for i in range(1, g + 1):
        f_i = []
        for m in range(top + 1):
            acc: dict = {}
            for d in range(m + 1):
                combo: dict = {}
                for k in range(1, i + 1):
                    if f[i - k][m - d]:
                        scale = perm(i - 1, k - 1) * comb(m + i, d + k) * t[k][d + k]
                        _add_into(combo, f[i - k][m - d], scale if k % 2 else -scale)
                _mul_into(acc, combo, p[d], 1)
            f_i.append(acc)
        f.append(f_i)
    return f[g]


def test_lambda_quotient_matches_the_square_route() -> None:
    # and the deep truncations, where D = lcm(1..top + 1) is largest
    cases = [(g, top) for g in range(1, 9) for top in range(2 * g + 2)]
    for g, top in cases + [(1, 40), (2, 30), (3, 24)]:
        p = _power_sums(g, top, top + g + 1)
        assert _lambda_quotient(g, p) == _lambda_quotient_on_the_square(g, p), (g, top)


def _term_operations(monkeypatch, route, g: int, top: int) -> int:
    # the term operations of _add_into (one per term added) and _mul_into (one
    # per pair of terms multiplied) that route(g, p_1..p_top) makes, read
    # through chern or through this module's imports of the same kernels
    count, add_into, mul_into = [0], chern._add_into, chern._mul_into

    def counting_add(acc: dict, comp: dict, scale) -> None:
        count[0] += len(comp)
        add_into(acc, comp, scale)

    def counting_mul(acc: dict, a: dict, b: dict, scale) -> None:
        count[0] += len(a) * len(b)
        mul_into(acc, a, b, scale)

    p = _power_sums(g, top)
    with monkeypatch.context() as patch:
        for namespace in (vars(chern), globals()):
            patch.setitem(namespace, "_add_into", counting_add)
            patch.setitem(namespace, "_mul_into", counting_mul)
        route(g, p)
    return count[0]


def test_lambda_quotient_does_at_most_a_tenth_of_the_square_routes_work(monkeypatch) -> None:
    # a count of term operations, not a timing: 28,587 on the square at
    # g = 10, top = 10, and 588 by the log-derivative recurrence
    fast = _term_operations(monkeypatch, _lambda_quotient, 10, 10)
    slow = _term_operations(monkeypatch, _lambda_quotient_on_the_square, 10, 10)
    assert 0 < fast <= slow // 10, (fast, slow)


def _lambda_character_by_newton_on_w(g: int, p: list[dict]) -> list[dict]:
    # n! ch_n(lambda_{-1} E), n = 0..depth, as e_g(w) with w_j = 1 - e^{x_j}: the
    # n!-scaled degree-d part of p_k(w) is (-1)^k t[k][d] p_d, so every sign of
    # Newton's i e_i = sum_k (-1)^{k-1} e_{i-k} p_k is minus.  e_i(w) starts in
    # degree i, and e_g needs e_i only through degree depth - (g - i).  n! e_i(w)_n
    # is integral: // i is exact.  The route before c_g was factored out, kept
    # as an oracle.
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


def test_lambda_character_matches_newton_on_w() -> None:
    for g in range(1, 9):
        for depth in range(2 * g + 2):
            p = _power_sums(g, depth)
            assert _lambda_character(g, p) == _lambda_character_by_newton_on_w(g, p), (g, depth)


def test_lambda_character_is_c_g_times_a_polynomial() -> None:
    # one component per degree 0..depth, also below degree g, and every
    # monomial carries c_g, the most significant packed digit
    for g in range(1, 7):
        for depth in range(2 * g + 2):
            ch = _lambda_character(g, _power_sums(g, depth))
            assert len(ch) == depth + 1, (g, depth)
            assert all(mon // (depth + 1) ** (g - 1) >= 1 for comp in ch for mon in comp)
            assert any(ch) == (depth >= g)


def test_borel_serre_at_the_edges_of_the_truncated_todd_class() -> None:
    # Td is built only through degree depth - g, which is empty or a constant
    # at the low depths
    for g in range(1, 7):
        for depth in sorted({0, g - 1, g, g + 1, 2 * g, 2 * g + 1}):
            assert borel_serre_check(g, depth), (g, depth)


def test_moved_log_derivative_scalar_is_rejected_by_borel_serre(monkeypatch) -> None:
    # borel_serre_check(g, 2g) builds e_g(z) through degree g, so it reads D r_k
    # for k <= g; D r_k moved by 1 or by D (r_k by 1/D or by 1) must fail each
    original = _log_derivative_scaled
    for k in range(1, 7):
        for sign, of_d in product((1, -1), (False, True)):

            def mutated(top: int, k=k, sign=sign, of_d=of_d) -> tuple[int, list[int]]:
                d, r = original(top)
                r[k] += sign * (d if of_d else 1)
                return d, r

            monkeypatch.setattr(chern, "_log_derivative_scaled", mutated)
            for g in range(k, 7):
                assert not borel_serre_check(g, 2 * g), (g, k, sign, of_d)


def test_log_derivative_scalars_are_the_bernoulli_numbers() -> None:
    # r_k = B_k with B_1 = +1/2, by the classical recurrence; checked against
    # bernoulli, which the route reads nowhere, through k = 60
    d, r = _log_derivative_scaled(60)
    assert d == lcm(*range(1, 62)) and r[0] == 0
    assert Fraction(r[1], d) == Fraction(1, 2)
    for k in range(2, 61):
        assert Fraction(r[k], d) == bernoulli(k), k


def test_lambda_character_reads_no_bernoulli_number(monkeypatch) -> None:
    # so borel_serre_check sets the classical Bernoulli recurrence and a
    # log-derivative recurrence against the tangent numbers and exp, and its
    # left side is not Td^{-1} restated
    want = {g: _lambda_character(g, _power_sums(g, 2 * g)) for g in range(1, 7)}

    def refuse(*args):
        raise AssertionError("Bernoulli number read")

    for module in (chern, bernoulli_zeta):
        monkeypatch.setattr(module, "bernoulli", refuse)
    for g, ch in want.items():
        assert _lambda_character(g, _power_sums(g, 2 * g)) == ch
    with pytest.raises(AssertionError, match="Bernoulli"):
        borel_serre_check(2, 4)


def test_class_ring_checks_build_no_graded_polynomial(monkeypatch) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("GradedPolynomial used")

    monkeypatch.setattr(GradedPolynomial, "__init__", refuse)
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
    # (1 + sum l_i)(1 + sum (-1)^i l_i) - 1, expanded in the oracle's ring
    g = 3
    ls = class_variables(g, 2 * g, symbol="l")
    one = ls[0].constant(1)
    plus = one
    minus = one
    for i, v in enumerate(ls, start=1):
        plus = plus + v
        minus = minus + (v if i % 2 == 0 else -v)
    expected = plus * minus - one
    components = fundamental_relations(g, 2 * g)
    assert len(components) == 2 * g
    for d, comp in enumerate(components, start=1):
        assert comp == expected.component(d)
    # odd-degree components vanish
    for d in (1, 3, 5):
        assert components[d - 1].terms == {}
    assert components[3].render() == "-2*l1*l3 + l2^2"
    assert components[5].render() == "-l3^2"
    assert [comp.render() for comp in components] == [
        "0", "-l1^2 + 2*l2", "0", "-2*l1*l3 + l2^2", "0", "-l3^2"]


def test_fundamental_relations_degree_window() -> None:
    with pytest.raises(ValueError, match="max_degree"):
        fundamental_relations(2, 0)
    with pytest.raises(ValueError, match="max_degree"):
        fundamental_relations(2, 5)

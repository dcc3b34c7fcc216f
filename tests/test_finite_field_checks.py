from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from cyclotomic_oracle import (
    CyclotomicElement,
    _reduce_cyclotomic,
    classical_gram,
    classical_pairing,
    rational_det,
    twist_numerator,
)
from tautorder import finite_field_checks, verify
from tautorder.finite_field_checks import (
    ModPPolynomial,
    cyclotomic_chern_check,
    cyclotomic_chern_product,
    different_exponent,
    hurwitz_genus,
    symplectic_pairing_check,
)
from tautorder.finite_field_checks import (
    _convolve,
    _det,
    _pairing_gram,
    _zeta_power_trace,
)

CASES = [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3), (2, 4)]
LARGER_CASES = [(3, 3), (3, 4), (3, 5), (3, 6), (5, 3), (7, 2), (11, 2)]
PAIRING_CASES = [(3, 1), (5, 1), (7, 1), (3, 2)]


def test_modp_polynomial_basics() -> None:
    p = ModPPolynomial(5, [1, 2, 3])
    assert str(p) == "1 + 2*x + 3*x^2"
    assert p.coefficient(1) == 2
    assert p.coefficient(7) == 0
    assert ModPPolynomial(5, [0]).coeffs == ()
    assert ModPPolynomial(5, [6, 10]) == ModPPolynomial(5, [1, 0])


def test_modp_polynomial_is_a_record_without_arithmetic() -> None:
    # the closed forms are written down, not computed, so the record needs no ring
    for name in ("__mul__", "__pow__", "__add__", "_check"):
        assert not hasattr(ModPPolynomial, name)
    assert not hasattr(finite_field_checks, "_reduce_cyclotomic")


def test_hurwitz_genus_frozen_values() -> None:
    assert [hurwitz_genus(*lk) for lk in CASES] == [1, 3, 2, 3, 1, 2]


def test_hurwitz_genus_closed_forms() -> None:
    # odd l: twice the genus is l^{k-1}(l-1); l = 2: genus is 2^{k-3}
    for l, k in ((3, 1), (3, 2), (5, 1), (7, 1), (11, 1), (5, 2)):
        assert 2 * hurwitz_genus(l, k) == l ** (k - 1) * (l - 1)
    for k in (3, 4, 5, 6):
        assert hurwitz_genus(2, k) == 2 ** (k - 3)


def test_hurwitz_genus_rejects_low_two_power() -> None:
    for k in (1, 2):
        with pytest.raises(ValueError, match="k > 2 when l = 2"):
            hurwitz_genus(2, k)


def _unit_product(l: int, k: int) -> ModPPolynomial:
    # plain reimplementation: prod over units a mod l^k of (1 + a x), coefficients
    # mod l, one factor at a time with no product routine and no _convolve
    acc = [1]
    for a in range(1, l**k):
        if gcd(a, l) == 1:
            acc = [(c + a * prev) % l for c, prev in zip(acc + [0], [0] + acc)]
    return ModPPolynomial(l, acc)


def test_cyclotomic_product_against_plain_loop() -> None:
    # (3, 3), (3, 4) and (3, 5) are the benchmark's larger pairs, up to degree 162;
    # (3, 6), (5, 3), (7, 2) and (11, 2) give the product tree odd levels and long leaves
    for l, k in CASES + LARGER_CASES:
        assert cyclotomic_chern_product(l, k) == _unit_product(l, k)


def test_cyclotomic_product_frozen_strings() -> None:
    assert str(cyclotomic_chern_product(3, 1)) == "1 + 2*x^2"
    assert str(cyclotomic_chern_product(3, 2)) == "1 + 2*x^6"
    assert str(cyclotomic_chern_product(5, 1)) == "1 + 4*x^4"
    assert str(cyclotomic_chern_product(7, 1)) == "1 + 6*x^6"
    assert str(cyclotomic_chern_product(2, 3)) == "1 + x^4"
    assert str(cyclotomic_chern_product(2, 4)) == "1 + x^8"


def test_cyclotomic_report_flags() -> None:
    # the larger pairs check the written-down closed form against the tree to degree 486
    for l, k in CASES + LARGER_CASES:
        r = cyclotomic_chern_check(l, k)
        assert r.equal
        assert r.top_degree == l ** (k - 1) * (l - 1)
        assert r.top_coefficient_nonzero
        # the sign-free variant only survives at the even prime
        assert r.plus_sign_form_matches == (l == 2)
        assert r.product.coefficient(r.top_degree) == (l - 1) % l


def test_faulty_convolve_fails_every_cyclotomic_case(monkeypatch: pytest.MonkeyPatch) -> None:
    # the closed forms share no arithmetic with the product tree, so a fault in
    # _convolve cannot reach both sides of the comparison
    convolve = finite_field_checks._convolve
    monkeypatch.setattr(
        finite_field_checks, "_convolve", lambda a, b: [2 * c for c in convolve(a, b)]
    )
    results = verify.run_suite("cyclotomic")
    assert len(results) == len(CASES)
    assert not any(r.ok for r in results)
    for l, k in CASES:
        assert not cyclotomic_chern_check(l, k).equal


def test_cyclotomic_element_relations() -> None:
    for l, k in ((3, 1), (3, 2), (5, 1), (2, 3)):
        one = CyclotomicElement.zeta_power(l, k, 0)
        z = CyclotomicElement.zeta_power(l, k, 1)
        assert z ** (l**k) == one
        acc = CyclotomicElement.zeta_power(l, k, 0)
        for j in range(1, l):
            acc = acc + CyclotomicElement.zeta_power(l, k, j * l ** (k - 1))
        assert acc == z - z  # the minimal-polynomial sum vanishes
        for m in range(1, 5):
            assert CyclotomicElement.zeta_power(l, k, m).conj() == CyclotomicElement.zeta_power(
                l, k, -m
            )


def test_cyclotomic_inverse_round_trip() -> None:
    rng = random.Random(771101)
    for l, k in ((3, 1), (3, 2), (5, 1), (7, 1), (2, 3)):
        one = CyclotomicElement.zeta_power(l, k, 0)
        two = one + one
        for _ in range(6):
            u = CyclotomicElement.zeta_power(l, k, rng.randrange(l**k)) + two
            assert u * u.inverse() == one


def test_cyclotomic_inverse_has_fraction_coordinates() -> None:
    rng = random.Random(771104)
    for l, k in ((3, 1), (3, 2), (5, 1), (7, 1), (2, 3)):
        n = l ** (k - 1) * (l - 1)
        for _ in range(4):
            a = CyclotomicElement(l, k, [rng.randint(-6, 6) for _ in range(n)])
            if not any(a.coeffs):
                continue
            inv = a.inverse()
            assert all(type(c) is Fraction for c in inv.coeffs)
            assert a * inv == CyclotomicElement.zeta_power(l, k, 0)
        with pytest.raises(ZeroDivisionError):
            CyclotomicElement(l, k, [0]).inverse()


def test_galois_action_is_a_ring_map() -> None:
    rng = random.Random(771105)
    for l, k in ((3, 2), (5, 1), (2, 3)):
        n, level = l ** (k - 1) * (l - 1), l**k
        for _ in range(4):
            a = CyclotomicElement(l, k, [rng.randint(-4, 4) for _ in range(n)])
            b = CyclotomicElement(l, k, [Fraction(rng.randint(-4, 4), 3) for _ in range(n)])
            for s in (u for u in range(1, level) if u % l):
                assert (a * b)._galois(s) == a._galois(s) * b._galois(s)
                assert (a + b)._galois(s) == a._galois(s) + b._galois(s)
            assert a.conj().conj() == a


def test_cyclotomic_traces() -> None:
    assert CyclotomicElement.zeta_power(3, 1, 0).trace() == 2
    assert CyclotomicElement.zeta_power(3, 1, 1).trace() == -1
    assert CyclotomicElement.zeta_power(3, 2, 1).trace() == 0
    assert (CyclotomicElement.zeta_power(3, 2, 1) ** 3).trace() == -3
    assert CyclotomicElement.zeta_power(5, 1, 0).trace() == 4


def test_cyclotomic_trace_is_additive() -> None:
    rng = random.Random(771102)
    for _ in range(10):
        a = CyclotomicElement.zeta_power(5, 1, rng.randrange(5))
        b = CyclotomicElement.zeta_power(5, 1, rng.randrange(5))
        assert (a + b).trace() == a.trace() + b.trace()


def test_different_exponent_values() -> None:
    assert different_exponent(3, 1) == 1
    assert different_exponent(3, 2) == 9
    assert different_exponent(5, 1) == 3
    assert different_exponent(7, 1) == 5
    assert different_exponent(2, 3) == 8


def test_different_exponent_input_validation() -> None:
    # an unchecked k < 1 used to leak a float: (3, 0) gave -1/3 as a float
    for l, k in [(3, 0), (3, -2), (2, 0)]:
        with pytest.raises(ValueError, match="k must be positive"):
            different_exponent(l, k)
    for l, k in [(4, 1), (1, 1), (9, 2)]:
        with pytest.raises(ValueError, match="not prime"):
            different_exponent(l, k)
    for l, k, d in [(2, 1, 0), (2, 3, 8), (3, 3, 45)]:
        assert different_exponent(l, k) == d
        assert type(different_exponent(l, k)) is int


def test_pairing_gram_rank_two_matrix() -> None:
    # at (3, 1) the classical twist (zeta - zeta^{-1})^{-1} is -w0
    assert classical_gram(3, 1, different_exponent(3, 1)) == [
        [Fraction(0), Fraction(-1)],
        [Fraction(1), Fraction(0)],
    ]
    assert _pairing_gram(3, 1) == ([[0, 1], [-1, 0]], True)


# every odd (l, k) of rank <= 12, of rank <= 16, and of rank <= 22
ODD_PAIRS_TO_RANK_12 = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]
ODD_PAIRS_TO_RANK_16 = ODD_PAIRS_TO_RANK_12 + [(17, 1)]
ODD_PAIRS_TO_RANK_22 = ODD_PAIRS_TO_RANK_16 + [(3, 3), (19, 1), (5, 2), (23, 1)]
# every pair the old rank cap of 16 refused that the tests reach, up to rank 162
PAIRS_PAST_RANK_16 = [(3, 3), (19, 1), (5, 2), (23, 1), (7, 2), (3, 4), (5, 3), (11, 2), (3, 5)]


def _small_twist(l: int, k: int) -> CyclotomicElement:
    # w0 = (zeta^s - zeta^{-s}) / l^k, s = l^{k-1}
    s = l ** (k - 1)
    diff = CyclotomicElement.zeta_power(l, k, s) - CyclotomicElement.zeta_power(l, k, -s)
    return CyclotomicElement(l, k, [c / l**k for c in diff.coeffs])


def _traces_to_gram(n: int, twist: CyclotomicElement) -> list[list[Fraction]]:
    l, k = twist.l, twist.k
    traces = {
        m: (CyclotomicElement.zeta_power(l, k, m) * twist).trace()
        for m in range(-(n - 1), n)
    }
    return [[traces[i - j] for j in range(n)] for i in range(n)]


def _pairing_gram_by_matrix_traces(l: int, k: int, exponent: int) -> list[list[Fraction]]:
    # the route the closed form replaced: each trace from CyclotomicElement.trace()
    zeta = CyclotomicElement.zeta_power(l, k, 1)
    twist = ((zeta - zeta.conj()) ** exponent).inverse()
    return _traces_to_gram(l ** (k - 1) * (l - 1), twist)


def _det_by_fraction_elimination(matrix: list[list[Fraction]]) -> Fraction:
    # Gaussian elimination over Q, the route Bareiss replaced
    m = [[Fraction(c) for c in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def test_zeta_power_trace_against_matrix_trace() -> None:
    for l, k in ((3, 1), (5, 1), (3, 2), (3, 3)):
        level = l**k
        for m in range(-level, 2 * level):
            assert _zeta_power_trace(l, k, m) == CyclotomicElement.zeta_power(l, k, m).trace()


def test_pairing_gram_against_matrix_traces() -> None:
    for l, k in ODD_PAIRS_TO_RANK_16:
        quoted = l**k - l ** (k - 1) - 1
        for exponent in (different_exponent(l, k), quoted):
            got = classical_gram(l, k, exponent)
            assert got == _pairing_gram_by_matrix_traces(l, k, exponent)
            assert all(type(c) is Fraction for row in got for c in row)
        gram, integral = _pairing_gram(l, k)
        assert integral
        assert gram == _traces_to_gram(l ** (k - 1) * (l - 1), _small_twist(l, k))


def _poly_strip(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(a: list, b: list) -> list[Fraction]:
    # remainder of a modulo b over Q by long division, the route
    # _reduce_cyclotomic replaced
    a = _poly_strip([Fraction(c) for c in a])
    b = _poly_strip([Fraction(c) for c in b])
    while len(a) >= len(b):
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[i + shift] -= factor * c
        _poly_strip(a)
    return a


def test_reduce_cyclotomic_against_long_division() -> None:
    rng = random.Random(771106)
    for l, k in ((3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (2, 3)):
        step, level = l ** (k - 1), l**k
        n = step * (l - 1)
        phi = [1 if i % step == 0 else 0 for i in range(n + 1)]  # sum_{j<l} x^{j step}
        for trial in range(40):
            length = rng.randint(0, 3 * level + 1)  # degree up to 3 l^k
            if trial % 2:
                coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(length)]
            else:
                coeffs = [rng.randint(-50, 50) for _ in range(length)]
            expected = _poly_rem(coeffs, phi)
            expected += [Fraction(0)] * (n - len(expected))
            assert _reduce_cyclotomic(coeffs, l, k) == expected


def test_convolve_against_coefficient_formula() -> None:
    rng = random.Random(771107)
    assert _convolve([], [1, 2]) == _convolve([3], []) == []
    for _ in range(50):
        a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
        b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 8))]
        expected = [
            sum(a[i] * b[m - i] for i in range(len(a)) if 0 <= m - i < len(b))
            for m in range(len(a) + len(b) - 1)
        ]
        assert _convolve(a, b) == expected


def test_twist_numerator_inverts_zeta_difference() -> None:
    # u (zeta - zeta^{-1}) = l^k with u = sum_{j<l^k} j zeta^{2j+1}
    for l, k in ODD_PAIRS_TO_RANK_16:
        u = CyclotomicElement(l, k, twist_numerator(l, k, 1))
        zeta = CyclotomicElement.zeta_power(l, k, 1)
        assert u * (zeta - zeta.conj()) == CyclotomicElement(l, k, [l**k])
        assert all(type(c) is int for c in twist_numerator(l, k, 3))
        assert CyclotomicElement(l, k, twist_numerator(l, k, 3)) == u**3


def test_pairing_gram_uses_no_field_inverse_or_power() -> None:
    # the field arithmetic lives in the test oracle only; the Gram is built on ints
    assert not hasattr(finite_field_checks, "CyclotomicElement")
    for l, k in ODD_PAIRS_TO_RANK_22:
        gram, _ = _pairing_gram(l, k)
        assert all(type(c) is int for row in gram for c in row)
    r = symplectic_pairing_check(3, 2)
    assert (r.gram_determinant, r.quoted_exponent_determinant) == (1, 81)


def _random_matrix(rng: random.Random, n: int, rational: bool) -> list[list[Fraction]]:
    def entry() -> Fraction:
        den = rng.randint(1, 12) if rational else 1
        return Fraction(rng.randint(-9, 9), den)

    return [[entry() for _ in range(n)] for _ in range(n)]


def test_bareiss_determinant_against_fraction_elimination() -> None:
    # the package's integer Bareiss on integer matrices, the oracle's scaled
    # Bareiss on rational ones, both against elimination over Q
    rng = random.Random(771103)
    for trial in range(300):
        n = rng.randint(1, 7)
        rational = trial % 2 == 1
        m = _random_matrix(rng, n, rational)
        if trial % 3 == 0 and n > 1:
            # singular: one row a rational combination of two others, or an
            # integer one for an integer matrix
            a, b = rng.sample(range(n), 2)
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 4) if rational else 1)
            t = Fraction(rng.randint(-3, 3))
            m[rng.randrange(n)] = [s * x + t * y for x, y in zip(m[a], m[b])]
        if trial % 5 == 0:
            # a zero first pivot forces a row swap
            m[0][0] = Fraction(0)
        expected = _det_by_fraction_elimination(m)
        if rational:
            got = rational_det(m)
            assert type(got) is Fraction
        else:
            got = _det([[c.numerator for c in row] for row in m])
            assert type(got) is int
        assert got == expected


def test_bareiss_determinant_edge_cases() -> None:
    assert rational_det([[Fraction(-7, 3)]]) == Fraction(-7, 3)
    assert rational_det([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]) == (
        Fraction(1, 210)
    )
    assert _det([]) == 1
    assert _det([[-7]]) == -7
    assert _det([[0]]) == 0
    assert _det([[0, 1], [1, 0]]) == -1
    swap_then_zero = [[0, 1, 2], [0, 3, 4], [5, 6, 7]]
    assert _det(swap_then_zero) == -10
    assert rational_det([[Fraction(c) for c in row] for row in swap_then_zero]) == -10
    singular = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert _det(singular) == 0
    assert rational_det([[Fraction(c) for c in row] for row in singular]) == 0
    zero_column = [[0, 1, 2], [0, 3, 4], [0, 6, 7]]
    assert _det(zero_column) == 0
    matrix = [[2, 3], [4, 5]]
    _det(matrix)
    assert matrix == [[2, 3], [4, 5]]  # the input is left as it was


def test_pairing_determinants_against_fraction_elimination() -> None:
    for l, k in ODD_PAIRS_TO_RANK_12:
        quoted = l**k - l ** (k - 1) - 1
        for exponent in (different_exponent(l, k), quoted):
            gram = classical_gram(l, k, exponent)
            assert rational_det(gram) == _det_by_fraction_elimination(gram)
    for l, k in ODD_PAIRS_TO_RANK_22:
        gram, _ = _pairing_gram(l, k)
        assert _det(gram) == _det_by_fraction_elimination(gram) == 1
    assert rational_det(classical_gram(3, 2, 5)) == 81


def test_pairing_reports_unimodular() -> None:
    for l, k in PAIRING_CASES:
        r = symplectic_pairing_check(l, k)
        assert r.rank == l ** (k - 1) * (l - 1)
        assert r.integral
        assert r.skew
        assert r.invariant
        assert abs(r.gram_determinant) == 1


def test_pairing_quoted_exponent_comparison() -> None:
    for l, k in ((3, 1), (5, 1), (7, 1)):
        r = symplectic_pairing_check(l, k)
        assert r.exponent_matches_quoted
        assert r.quoted_exponent_determinant is None
    r = symplectic_pairing_check(3, 2)
    assert r.exponent == 9
    assert r.quoted_exponent == 5
    assert not r.exponent_matches_quoted
    assert r.quoted_exponent_determinant == 81


def test_quoted_determinant_closed_form_against_bareiss() -> None:
    # l^(d - quoted) * det against a second elimination on the quoted Gram
    # matrix: at every pair under the rank cap, and at (3, 3), rank 18, past it
    for l, k in ODD_PAIRS_TO_RANK_16:
        r = symplectic_pairing_check(l, k)
        if r.exponent_matches_quoted:
            assert r.quoted_exponent_determinant is None
        else:
            assert r.quoted_exponent_determinant == rational_det(
                classical_gram(l, k, r.quoted_exponent)
            )
    d, quoted = different_exponent(3, 3), 3**3 - 3**2 - 1
    closed = 3 ** (d - quoted) * rational_det(classical_gram(3, 3, d))
    assert closed == rational_det(classical_gram(3, 3, quoted)) == 3**28
    assert symplectic_pairing_check(3, 3).quoted_exponent_determinant == 3**28


def test_pairing_input_validation() -> None:
    with pytest.raises(ValueError, match="odd l"):
        symplectic_pairing_check(2, 3)
    with pytest.raises(ValueError, match="not prime"):
        symplectic_pairing_check(9, 1)
    with pytest.raises(ValueError, match="k must be positive"):
        symplectic_pairing_check(3, 0)


def test_pairing_check_builds_no_cyclotomic_element() -> None:
    # the zeta rows are the companion matrix of Phi_{l^k} and the checks run on ints
    assert "CyclotomicElement" not in vars(finite_field_checks)
    assert "CyclotomicElement" not in finite_field_checks.__all__
    for l, k in PAIRING_CASES + [(17, 1)]:
        gram, _ = _pairing_gram(l, k)
        assert all(type(c) is int for row in gram for c in row)
        r = symplectic_pairing_check(l, k)
        assert r.integral and r.skew and r.invariant
        assert abs(r.gram_determinant) == 1


def test_classical_and_small_twist_agree() -> None:
    # (zeta - zeta^{-1})^{-d} and w0 differ by a real unit of norm 1, so the
    # determinant, the flags and the quoted determinant agree
    for l, k in ODD_PAIRS_TO_RANK_22:
        r = symplectic_pairing_check(l, k)
        expected = classical_pairing(l, k)
        assert {name: getattr(r, name) for name in expected} == expected
        assert r.quoted_exponent_determinant == (
            None if r.exponent_matches_quoted else l ** (r.exponent - r.quoted_exponent)
        )


def test_twist_ratio_is_a_real_unit() -> None:
    # eps = w / w0 has integer coordinates, is fixed by conjugation, and so is
    # its inverse: a unit of Z[zeta + zeta^{-1}]
    for l, k in ODD_PAIRS_TO_RANK_12 + [(3, 3)]:
        d = different_exponent(l, k)
        w = CyclotomicElement(l, k, [Fraction(c, l ** (k * d)) for c in twist_numerator(l, k, d)])
        eps = w * _small_twist(l, k).inverse()
        inv = eps.inverse()
        for x in (eps, inv):
            assert all(c.denominator == 1 for c in x.coeffs)
            assert x.conj() == x
        assert eps * inv == CyclotomicElement.zeta_power(l, k, 0)


@pytest.mark.parametrize("l,k", PAIRS_PAST_RANK_16)
def test_pairing_past_the_old_rank_cap(l: int, k: int) -> None:
    r = symplectic_pairing_check(l, k)
    assert r.rank == l ** (k - 1) * (l - 1) > 16
    assert r.integral and r.skew and r.invariant
    assert r.gram_determinant == 1
    gram, _ = _pairing_gram(l, k)
    assert all(type(c) is int and c in (-1, 0, 1) for row in gram for c in row)
    assert r.quoted_exponent_determinant == (
        None if k == 1 else l ** (r.exponent - r.quoted_exponent)
    )
    if (l, k) == (3, 3):
        assert r.quoted_exponent_determinant == 3**28


def test_non_integral_entry_raises(monkeypatch: pytest.MonkeyPatch) -> None:
    trace = finite_field_checks._zeta_power_trace

    def off_by_one(l: int, k: int, m: int) -> int:
        return trace(l, k, m) + (m == 1)

    monkeypatch.setattr(finite_field_checks, "_zeta_power_trace", off_by_one)
    assert finite_field_checks._pairing_gram(3, 2)[1] is False
    with pytest.raises(ArithmeticError, match="integral"):
        symplectic_pairing_check(3, 2)

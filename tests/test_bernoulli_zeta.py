from __future__ import annotations

import os
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, factorial

import pytest

from tautorder import bernoulli_zeta, exact_arith
from tautorder.bernoulli_zeta import (
    bernoulli,
    bernoulli_table,
    proportionality,
    von_staudt_denominator,
    zeta_neg,
)
from tautorder.chern_symbolics import todd_class
from tautorder.exact_arith import primes_upto

# classical table values, fixed independently of any code here
KNOWN_EVEN = {
    0: Fraction(1),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


def _bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    # independent route; produces the B_1 = +1/2 convention
    row = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def _bernoulli_convolution(max_index: int) -> list[Fraction]:
    # the defining recurrence sum_{j<=n} C(n+1, j) B_j = 0, the slow route the
    # tangent numbers replaced; it gives B_1 = -1/2 and exact zeros at odd n >= 3
    values = [Fraction(1)]
    for n in range(1, max_index + 1):
        values.append(-sum(comb(n + 1, j) * values[j] for j in range(n)) / (n + 1))
    return values


ORACLE_TOP = 300
ORACLE = _bernoulli_convolution(ORACLE_TOP)


@pytest.fixture
def empty_cache(monkeypatch: pytest.MonkeyPatch) -> exact_arith._Grown:
    cache = exact_arith._Grown(bernoulli_zeta._extend_bernoulli)
    monkeypatch.setattr(bernoulli_zeta, "_cache", cache)
    return cache


def test_bernoulli_against_convolution_oracle(empty_cache) -> None:
    # a sequential fill from an empty cache, then one cold call from an empty cache
    assert [bernoulli(m) for m in range(ORACLE_TOP + 1)] == ORACLE
    assert empty_cache.table[0] == 512  # grown by doubling: 0, 1, 2, 4, ..., 512
    empty_cache.table = (-1, [])
    assert bernoulli(ORACLE_TOP) == ORACLE[-1]
    assert empty_cache.table == (ORACLE_TOP, ORACLE)  # one cold call fills exactly to its index


def test_bernoulli_cache_hands_out_the_same_objects(empty_cache) -> None:
    bernoulli(250)
    assert empty_cache.table[0] == 250
    before = [bernoulli(m) for m in range(251)]
    bernoulli(251)
    assert empty_cache.table[0] == 500  # a miss grows to twice the top index
    bernoulli(600)
    assert empty_cache.table[0] == 1000
    assert all(bernoulli(m) is value for m, value in enumerate(before))
    assert empty_cache.table[1][: ORACLE_TOP + 1] == ORACLE


def test_bernoulli_concurrent_misses_get_oracle_values(empty_cache) -> None:
    indices = [300, 7, 120, 1, 250, 64, 299, 2]
    results: dict[int, Fraction] = {}
    start = threading.Barrier(len(indices))

    def ask(m: int) -> None:
        start.wait(timeout=10)
        results[m] = bernoulli(m)

    threads = [threading.Thread(target=ask, args=(m,)) for m in indices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {m: ORACLE[m] for m in indices}
    assert empty_cache.table[1][: ORACLE_TOP + 1] == ORACLE


def test_bernoulli_against_independent_algorithm() -> None:
    for m in range(41):
        expected = _bernoulli_akiyama_tanigawa(m)
        if m == 1:
            expected = -expected
        assert bernoulli(m) == expected


def test_bernoulli_classical_values() -> None:
    assert bernoulli(1) == Fraction(-1, 2)
    for m, value in KNOWN_EVEN.items():
        assert bernoulli(m) == value


def test_bernoulli_odd_vanish() -> None:
    for m in range(3, 61, 2):
        assert bernoulli(m) == 0


def test_bernoulli_rejects_negative_index() -> None:
    with pytest.raises(ValueError, match="^m must be nonnegative$"):
        bernoulli(-1)
    with pytest.raises(ValueError, match="^max_index must be nonnegative$"):
        bernoulli_table(-1)


def test_bernoulli_table_lists_nonzero_indices() -> None:
    # odd indices above 1 vanish and are left out
    table = bernoulli_table(12)
    assert table.max_index == 12
    assert sorted(table.values) == [0, 1, 2, 4, 6, 8, 10, 12]
    for m, value in table.values.items():
        assert value == bernoulli(m)
    assert sorted(bernoulli_table(0).values) == [0]
    assert sorted(bernoulli_table(1).values) == [0, 1]


def test_von_staudt_denominator_from_prime_definition() -> None:
    for m in range(2, 61, 2):
        direct = 1
        for p in primes_upto(m + 1):
            if m % (p - 1) == 0:
                direct *= p
        assert von_staudt_denominator(m) == direct
        assert bernoulli(m).denominator == direct


def test_zeta_neg_classical_values() -> None:
    assert zeta_neg(1) == Fraction(-1, 12)
    assert zeta_neg(2) == Fraction(1, 120)
    assert zeta_neg(3) == Fraction(-1, 252)
    assert zeta_neg(4) == Fraction(1, 240)
    assert zeta_neg(5) == Fraction(-1, 132)
    assert zeta_neg(6) == Fraction(691, 32760)


def test_zeta_neg_is_bernoulli_over_minus_2g() -> None:
    for g in range(1, 26):
        assert -2 * g * zeta_neg(g) == bernoulli(2 * g)


def test_zeta_neg_sign_alternates() -> None:
    for g in range(1, 26):
        assert (zeta_neg(g) < 0) == (g % 2 == 1)


def test_proportionality_first_values() -> None:
    assert proportionality(1).signed_value == Fraction(1, 24)
    assert proportionality(2).signed_value == Fraction(-1, 5760)
    assert proportionality(3).signed_value == Fraction(-1, 2903040)
    assert proportionality(4).signed_value == Fraction(1, 1393459200)


def test_a_cold_cache_seeds_b0_without_fractions_loaded() -> None:
    # the cache starts empty and the first miss appends B_0 = 1, so importing the
    # module does not load fractions; the first values come out as before
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys\n"
        "from tautorder.bernoulli_zeta import _cache, bernoulli, proportionality\n"
        "assert 'fractions' not in sys.modules and _cache.table == (-1, [])\n"
        "print(repr([bernoulli(0), bernoulli(1), proportionality(1).signed_value]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout == "[Fraction(1, 1), Fraction(-1, 2), Fraction(1, 24)]\n"


def test_proportionality_recurrence() -> None:
    # consecutive values differ by -zeta_neg(g)/2
    for g in range(2, 16):
        ratio = proportionality(g).signed_value / proportionality(g - 1).signed_value
        assert ratio == -zeta_neg(g) / 2


def test_proportionality_against_the_term_by_term_product() -> None:
    # the route proportionality replaced: (-1)^g prod zeta_neg(j)/2, one Fraction per factor
    signed = Fraction(1)
    for g in range(1, 61):
        signed *= -zeta_neg(g) / 2
        r = proportionality(g)
        assert r.signed_value == signed
        assert (r.absolute_value, r.denominator) == (abs(signed), abs(signed).denominator)
        assert (r.signed_value < 0) == (g % 4 in (2, 3))


def test_proportionality_sign_pattern() -> None:
    for g in range(1, 20):
        r = proportionality(g)
        assert r.absolute_value == abs(r.signed_value)
        assert r.denominator == r.absolute_value.denominator
        assert (r.signed_value < 0) == (g % 4 in (2, 3))


def _todd_series(depth: int) -> list[Fraction]:
    # the coefficients of t/(e^t - 1), read off the one-root Todd class
    terms = todd_class(1, depth).terms
    return [terms.get((k,), Fraction(0)) for k in range(depth + 1)]


def test_todd_inverse_series_first_terms() -> None:
    coeffs = _todd_series(6)
    assert coeffs == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(1, 12),
        Fraction(0),
        Fraction(-1, 720),
        Fraction(0),
        Fraction(1, 30240),
    ]


def test_todd_inverse_series_inverts_exponential_quotient() -> None:
    # convolution with (e^t - 1)/t must give 1
    depth = 12
    coeffs = _todd_series(depth)
    for k in range(depth + 1):
        acc = sum(coeffs[j] / factorial(k - j + 1) for j in range(k + 1))
        assert acc == (1 if k == 0 else 0)

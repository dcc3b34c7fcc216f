"""Reference values computed apart from tautorder.

Nothing here imports the package under test.  Each routine takes a different
route from the program's own code, so that an agreement means something:

* Bernoulli numbers by the Akiyama-Tanigawa algorithm (the program uses the
  convolution recurrence);
* primality by deterministic Miller-Rabin (the program uses trial division);
* n_g as the denominator of B_{2g}/(4g) for small g, and as the gcd of
  p^{2g} - 1 over primes p > 2g+1 for large g (the program assembles n_g
  prime by prime);
* #Sp(2g, Z/n) from the closed form n^{g(2g+1)} prod_{p | n} prod_i (1 - p^{-2i});
* power sums in the elementary basis by Newton's recurrence, on plain dicts;
* the cyclotomic Chern product mod l by a binomial expansion.

Polynomials are dicts {exponent tuple: coefficient}.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases; exact below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor(n: int) -> dict[int, int]:
    """Prime factorization by division over the Miller-Rabin primes."""
    out: dict[int, int] = {}
    p = 2
    while n > 1 and p * p <= n:
        if is_prime(p):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def bernoulli_numbers(max_index: int) -> list[Fraction]:
    """B_0..B_max_index by Akiyama-Tanigawa, returned with B_1 = -1/2."""
    a = [Fraction(0)] * (max_index + 1)
    out = []
    for m in range(max_index + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    if max_index >= 1:
        out[1] = -out[1]  # the algorithm yields B_1 = +1/2
    return out


def von_staudt_clausen_ok(m: int, value: Fraction) -> bool:
    """For even m >= 2: B_m + sum_{(p-1) | m} 1/p is an integer and the sign is (-1)^{m/2+1}."""
    total = value + sum(Fraction(1, p) for p in range(2, m + 2) if m % (p - 1) == 0 and is_prime(p))
    sign_ok = (value > 0) == (m // 2 % 2 == 1)
    return total.denominator == 1 and sign_ok


def von_staudt_denominator(m: int) -> int:
    out = 1
    for p in range(2, m + 2):
        if m % (p - 1) == 0 and is_prime(p):
            out *= p
    return out


def ng_by_gcd(g: int, prime_count: int = 24) -> int:
    """gcd of p^{2g} - 1 over the first `prime_count` primes p > 2g+1."""
    running = 0
    p = 2 * g + 2
    seen = 0
    while seen < prime_count:
        if is_prime(p):
            if running == 0:
                running = p ** (2 * g) - 1
            else:
                running = gcd(running, pow(p, 2 * g, running) - 1)
            seen += 1
        p += 1
    return running


def ng_table(max_g: int, bern: list[Fraction]) -> list[int]:
    """[n_1, ..., n_max_g]: Bernoulli denominators while B_{2g} is known, gcd route beyond."""
    out = []
    for g in range(1, max_g + 1):
        if 2 * g < len(bern):
            out.append((bern[2 * g] / (4 * g)).denominator)
        else:
            out.append(ng_by_gcd(g))
    return out


def zeta_neg(g: int, bern: list[Fraction]) -> Fraction:
    return -bern[2 * g] / (2 * g)


def proportionality(g: int, bern: list[Fraction]) -> Fraction:
    """(-1)^g prod_{j<=g} zeta(1-2j)/2."""
    acc = Fraction((-1) ** g)
    for j in range(1, g + 1):
        acc *= zeta_neg(j, bern) / 2
    return acc


def sp_local_order(g: int, p: int, k: int) -> int:
    """#Sp(2g, Z/p^k) = p^{k g(2g+1)} prod_{i<=g} (1 - p^{-2i})."""
    order = Fraction(p ** (k * g * (2 * g + 1)))
    for i in range(1, g + 1):
        order *= 1 - Fraction(1, p ** (2 * i))
    if order.denominator != 1:
        raise ArithmeticError("group order must be an integer")
    return order.numerator


def sp_order(g: int, factors: dict[int, int]) -> tuple[int, dict[int, int]]:
    local = {p: sp_local_order(g, p, k) for p, k in factors.items()}
    order = 1
    for v in local.values():
        order *= v
    return order, local


def koblitz(g: int, p: int) -> int:
    out = 1
    for i in range(1, g + 1):
        out *= p**i - 1
    return out


def hurwitz_genus(l: int, k: int) -> int:
    if l == 2:
        return 2 ** (k - 3)
    return l ** (k - 1) * (l - 1) // 2


def cyclotomic_closed_form(l: int, k: int) -> list[int]:
    """Coefficients of (1 - x^{l-1})^{l^{k-1}} mod l, by the binomial theorem."""
    n = l ** (k - 1)
    coeffs = [0] * (n * (l - 1) + 1)
    for j in range(n + 1):
        coeffs[j * (l - 1)] = (coeffs[j * (l - 1)] + comb(n, j) * (-1) ** j) % l
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def different_exponent(l: int, k: int) -> int:
    return l ** (k - 1) * (k * (l - 1) - 1)


# -- polynomials as dicts ----------------------------------------------------


def poly_mul(a: dict, b: dict, weights: tuple, limit: int) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mon = tuple(x + y for x, y in zip(ma, mb))
            if sum(e * w for e, w in zip(mon, weights)) > limit:
                continue
            out[mon] = out.get(mon, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def poly_add(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + scale * c
    return {m: c for m, c in out.items() if c}


def newton_power_sums(g: int, kmax: int) -> list[dict]:
    """p_1..p_kmax in the class variables c1..cg (weights 1..g), by Newton's recurrence

    p_k = sum_{i=1}^{k-1} (-1)^{i-1} c_i p_{k-i} + (-1)^{k-1} k c_k, with c_i = 0 for i > g.
    Index 0 of the returned list is unused.
    """
    weights = tuple(range(1, g + 1))

    def c(i: int) -> dict:
        return {tuple(1 if j == i - 1 else 0 for j in range(g)): 1} if i <= g else {}

    sums: list[dict] = [{}]
    for k in range(1, kmax + 1):
        acc: dict = {}
        for i in range(1, k):
            acc = poly_add(acc, poly_mul(c(i), sums[k - i], weights, kmax), (-1) ** (i - 1))
        acc = poly_add(acc, c(k), (-1) ** (k - 1) * k)
        sums.append(acc)
    return sums


def chern_character_in_classes(g: int, depth: int) -> dict:
    """g + sum_{k=1}^{depth} p_k / k! in c1..cg."""
    sums = newton_power_sums(g, depth)
    acc: dict = {(0,) * g: g}
    for k in range(1, depth + 1):
        acc = poly_add(acc, sums[k], Fraction(1, factorial(k)))
    return acc


def todd_terms(g: int, depth: int, bern: list[Fraction]) -> dict:
    """prod_i sum_k (B_k/k!) x_i^k in the root ring, truncated at total degree `depth`."""
    series = [bern[k] / factorial(k) for k in range(depth + 1)]
    weights = (1,) * g
    acc: dict = {(0,) * g: 1}
    for i in range(g):
        factor_i = {
            tuple(k if j == i else 0 for j in range(g)): c for k, c in enumerate(series) if c
        }
        acc = poly_mul(acc, factor_i, weights, depth)
    return acc


def fundamental_product(g: int) -> dict:
    """(1 + l1 + ... + lg)(1 - l1 + l2 - ...) - 1 in l1..lg (weights 1..g), untruncated."""
    weights = tuple(range(1, g + 1))
    zero = (0,) * g
    plus = {zero: 1}
    minus = {zero: 1}
    for i in range(1, g + 1):
        mon = tuple(1 if j == i - 1 else 0 for j in range(g))
        plus[mon] = 1
        minus[mon] = (-1) ** i
    return poly_add(poly_mul(plus, minus, weights, 2 * g), {zero: 1}, -1)


def weighted_degree(mon: tuple, weights: tuple) -> int:
    return sum(e * w for e, w in zip(mon, weights))

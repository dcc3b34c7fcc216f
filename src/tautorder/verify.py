"""Named verification suites: each runs a family of identity checks and
reports one pass/fail line per case.  A suite is pure computation; rendering
and exit codes live in the CLI.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .bernoulli_zeta import bernoulli, von_staudt_denominator
from .chern_symbolics import (
    borel_serre_check,
    class_variables,
    fundamental_relations,
    lambda_star_class,
    newton_special_case,
)
from .finite_field_checks import (
    cyclotomic_chern_check,
    hurwitz_genus,
    symplectic_pairing_check,
)
from .group_orders import degree_integrality
from .torsion_orders import (
    NG_CROSS_CHECK,
    denominator_corollary_check,
    grr_chain_check,
    ng_local,
    ng_oracle,
    product_identity_check,
    product_identity_tail_is_trivial,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _suite_chern_lemma(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for g in range(1, max_g + 1):
        cls = lambda_star_class(g, g)
        low_ok = all(
            cls.homogeneous_component(d).is_zero() for d in range(1, g)
        )
        cs = class_variables(g, g)
        expected = (-factorial(g - 1)) * cs[g - 1]
        top_ok = cls.homogeneous_component(g) == expected
        const_ok = cls.homogeneous_component(0) == cs[0].ring_constant(1)
        ok = low_ok and top_ok and const_ok
        out.append(
            CheckResult(
                f"chern-lemma g={g}",
                ok,
                f"degrees 1..{g - 1} vanish: {low_ok}; degree-{g} term is "
                f"-{factorial(g - 1)}*c{g}: {top_ok}",
            )
        )
    return out


def _suite_borel_serre(max_g: int, _prime_count: int) -> list[CheckResult]:
    return [
        CheckResult(
            f"borel-serre g={g}",
            borel_serre_check(g, 2 * g),
            f"checked through degree {2 * g}",
        )
        for g in range(1, max_g + 1)
    ]


def _suite_newton(max_g: int, _prime_count: int) -> list[CheckResult]:
    return [
        CheckResult(
            f"newton g={g}",
            newton_special_case(g),
            f"s_{g} with lower classes killed is {(-1) ** (g - 1) * g}*c{g}",
        )
        for g in range(1, max_g + 1)
    ]


def _suite_fundamental_relations(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for g in range(1, max_g + 1):
        comps = fundamental_relations(g, 2 * g)
        odd_ok = all(comps[d - 1].is_zero() for d in range(1, 2 * g + 1, 2))
        if g >= 2:
            ls = class_variables(g, 2 * g, symbol="l")
            expected = 2 * ls[1] - ls[0] ** 2
            deg2_ok = comps[1] == expected
            detail = f"odd components vanish: {odd_ok}; degree 2 is 2*l2 - l1^2: {deg2_ok}"
            ok = odd_ok and deg2_ok
        else:
            detail = f"odd components vanish: {odd_ok}"
            ok = odd_ok
        out.append(CheckResult(f"fundamental-relations g={g}", ok, detail))
    return out


def _suite_product_lemma(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for g in range(1, max_g + 1):
        rep = product_identity_check(g)
        tail = product_identity_tail_is_trivial(g)
        out.append(
            CheckResult(
                f"product-lemma g={g}",
                rep.equal and tail,
                f"lhs {rep.lhs} rhs {rep.rhs}; factors beyond 2g+1 trivial: {tail}",
            )
        )
    return out


def _suite_denominator(max_g: int, _prime_count: int) -> list[CheckResult]:
    return [
        CheckResult(
            f"denominator g={g}",
            denominator_corollary_check(g),
            "denominator of |proportionality| divides prod n_i",
        )
        for g in range(1, max_g + 1)
    ]


def _suite_integrality(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for g in range(1, max_g + 1):
        for n in range(3, 8):
            rep = degree_integrality(g, n)
            out.append(
                CheckResult(
                    f"integrality g={g} n={n}",
                    rep.integral,
                    f"degree {rep.degree}",
                )
            )
    return out


def _suite_grr_chain(max_g: int, _prime_count: int) -> list[CheckResult]:
    return [
        CheckResult(
            f"grr-chain g={g}",
            grr_chain_check(g),
            "|B_2g (2g-1) (2g-2)!/(2g)!| = |zeta(1-2g)|",
        )
        for g in range(1, max_g + 1)
    ]


_CYCLOTOMIC_PAIRS = [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3), (2, 4)]


def _suite_cyclotomic(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for l, k in _CYCLOTOMIC_PAIRS:
        genus = hurwitz_genus(l, k)
        if genus > max_g:
            continue
        rep = cyclotomic_chern_check(l, k)
        ok = rep.equal and rep.top_coefficient_nonzero
        detail = (
            f"product {rep.product}; closed form {rep.closed_form}; "
            f"top degree {rep.top_degree}; genus {genus}"
        )
        if l != 2:
            ok = ok and rep.top_degree == 2 * genus
        out.append(CheckResult(f"cyclotomic l={l} k={k}", ok, detail))
    return out


_SYMPLECTIC_PAIRS = [(3, 1), (5, 1), (7, 1), (3, 2)]


def _suite_symplectic(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for l, k in _SYMPLECTIC_PAIRS:
        if hurwitz_genus(l, k) > max_g:
            continue
        rep = symplectic_pairing_check(l, k)
        ok = (
            rep.integral
            and rep.skew
            and rep.invariant
            and abs(rep.gram_determinant) == 1
        )
        out.append(
            CheckResult(
                f"symplectic l={l} k={k}",
                ok,
                f"rank {rep.rank}; det {rep.gram_determinant}; integral {rep.integral}; "
                f"skew {rep.skew}; invariant {rep.invariant}",
            )
        )
    return out


_VON_STAUDT_TOP = 60


def _suite_von_staudt(max_g: int, _prime_count: int) -> list[CheckResult]:
    out = []
    for m in range(2, min(_VON_STAUDT_TOP, 2 * max_g) + 1, 2):
        expected = von_staudt_denominator(m)
        got = bernoulli(m).denominator
        out.append(
            CheckResult(
                f"von-staudt m={m}",
                got == expected,
                f"denominator {got}, prime product {expected}",
            )
        )
    return out


def _suite_oracle_agreement(max_g: int, prime_count: int) -> list[CheckResult]:
    out = []
    for g in range(1, max_g + 1):
        local = ng_local(g).value
        oracle = ng_oracle(g, prime_count)
        out.append(
            CheckResult(
                f"oracle-agreement g={g}",
                local == oracle,
                f"local {local}, gcd oracle {oracle}",
            )
        )
    for g in sorted(NG_CROSS_CHECK):
        if g > max_g:
            continue
        local = ng_local(g).value
        out.append(
            CheckResult(
                f"table-anchor g={g}",
                local == NG_CROSS_CHECK[g],
                f"local {local}, table {NG_CROSS_CHECK[g]}",
            )
        )
    return out


# suite -> (function, default bound); every suite is called as function(bound,
# prime_count), and only oracle-agreement samples primes.  The cyclotomic and
# symplectic suites run their listed pairs of genus <= bound, von-staudt its
# listed m <= 2*bound; their defaults keep every listed case.
_SUITES = {
    "chern-lemma": (_suite_chern_lemma, 8),
    "borel-serre": (_suite_borel_serre, 6),
    "newton": (_suite_newton, 8),
    "fundamental-relations": (_suite_fundamental_relations, 6),
    "product-lemma": (_suite_product_lemma, 16),
    "denominator": (_suite_denominator, 12),
    "integrality": (_suite_integrality, 5),
    "grr-chain": (_suite_grr_chain, 10),
    "cyclotomic": (_suite_cyclotomic, max(hurwitz_genus(*lk) for lk in _CYCLOTOMIC_PAIRS)),
    "symplectic": (_suite_symplectic, max(hurwitz_genus(*lk) for lk in _SYMPLECTIC_PAIRS)),
    "von-staudt": (_suite_von_staudt, _VON_STAUDT_TOP // 2),
    "oracle-agreement": (_suite_oracle_agreement, 8),
}

SUITE_NAMES = list(_SUITES) + ["all"]


def run_suite(
    name: str, max_g: "int | None" = None, prime_count: int = 100
) -> list[CheckResult]:
    """Run one suite (or 'all'); max_g overrides the per-suite default bound.

    An override below 1 is refused: it would select no case and pass vacuously.
    """
    if max_g is not None and max_g < 1:
        raise ValueError(f"max_g must be at least 1, got {max_g}")
    if name == "all":
        # one call per suite, so a caller tracing run_suite sees each suite
        return [c for sub in _SUITES for c in run_suite(sub, max_g, prime_count)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name}")
    func, default = _SUITES[name]
    return func(default if max_g is None else max_g, prime_count)

"""Named verification suites: each runs a family of identity checks and
reports one pass/fail line per case.  A suite is pure computation; rendering
and exit codes live in the CLI.

Each suite is one row of `_SUITES`: a case builder and a default bound.  The
builder lists the suite's cases in order, each a name, a check that returns
`(ok, detail)` and the check's arguments; `run_suite` alone runs the checks and
collects the results.  A new suite is one row plus a case in
`tests/test_golden_cli.py` and a fault in `tests/test_verify_mutants.py` that it fails.
"""
from __future__ import annotations

from math import factorial

from .bernoulli_zeta import bernoulli, von_staudt_denominator
from .chern_symbolics import (
    _log_derivative_scaled, borel_serre_check, fundamental_relations, lambda_star_class,
    newton_special_case,
)
from .exact_arith import _Record, _check_positive
from .finite_field_checks import cyclotomic_chern_check, hurwitz_genus, symplectic_pairing_check
from .group_orders import degree_integrality
from .torsion_orders import (
    NG_CROSS_CHECK,
    boundary_coefficient,
    denominator_corollary_check,
    ng_local,
    ng_oracle,
    product_identity_check,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite"]


class CheckResult(_Record):
    name: str
    ok: bool
    detail: str


def _chern_lemma(g: int) -> tuple[bool, str]:
    # truncated at degree g, the class is 1 - (g-1)! c_g exactly; literal terms,
    # so no fault of the ring arithmetic shows on both sides
    ok = lambda_star_class(g, g).terms == {(0,) * g: 1, (0,) * (g - 1) + (1,): -factorial(g - 1)}
    return ok, f"class through degree {g} is 1 - {factorial(g - 1)}*c{g}: {ok}"


def _borel_serre(g: int) -> tuple[bool, str]:
    return borel_serre_check(g, 2 * g), f"checked through degree {2 * g}"


def _newton(g: int) -> tuple[bool, str]:
    return newton_special_case(g), f"s_{g} with lower classes killed is {(-1) ** (g - 1) * g}*c{g}"


def _fundamental_relations(g: int) -> tuple[bool, str]:
    comps = fundamental_relations(g, 2 * g)
    odd_ok = not any(comps[d - 1].terms for d in range(1, 2 * g + 1, 2))
    detail = f"odd components vanish: {odd_ok}"
    if g < 2:
        return odd_ok, detail
    zeros = (0,) * (g - 2)
    deg2_ok = comps[1].terms == {(2, 0) + zeros: -1, (0, 1) + zeros: 2}
    return odd_ok and deg2_ok, f"{detail}; degree 2 is 2*l2 - l1^2: {deg2_ok}"


def _product_lemma(g: int) -> tuple[bool, str]:
    rep = product_identity_check(g)
    return rep.equal, f"lhs {rep.lhs} rhs {rep.rhs}"


def _denominator(g: int) -> tuple[bool, str]:
    return denominator_corollary_check(g), "denominator of |proportionality| divides prod n_i"


def _grr_chain(g: int) -> tuple[bool, str]:
    coefficient, half_ng = boundary_coefficient(g), ng_local(g).value // 2
    return coefficient.numerator == half_ng, f"(-1)^g/zeta(1-2g) = {coefficient}; n_g/2 = {half_ng}"


def _cyclotomic(l: int, k: int) -> tuple[bool, str]:
    genus = hurwitz_genus(l, k)
    rep = cyclotomic_chern_check(l, k)
    ok = rep.equal and rep.top_coefficient_nonzero and (l == 2 or rep.top_degree == 2 * genus)
    return ok, (
        f"product {rep.product}; closed form {rep.closed_form}; "
        f"top degree {rep.top_degree}; genus {genus}"
    )


def _symplectic(l: int, k: int) -> tuple[bool, str]:
    rep = symplectic_pairing_check(l, k)
    ok = rep.integral and rep.skew and rep.invariant and abs(rep.gram_determinant) == 1
    return ok, (
        f"rank {rep.rank}; det {rep.gram_determinant}; integral {rep.integral}; "
        f"skew {rep.skew}; invariant {rep.invariant}"
    )


def _per_g(check):
    """Builder of the cases `<suite> g=1..bound`, each running check(g)."""
    return lambda suite, bound: [(f"{suite} g={g}", check, (g,)) for g in range(1, bound + 1)]


def _covers(pairs, check):
    """Row for the listed (l, k) covers: genus <= bound runs; the default runs all."""
    return lambda suite, bound: [
        (f"{suite} l={l} k={k}", check, (l, k))
        for l, k in pairs if hurwitz_genus(l, k) <= bound
    ], max(hurwitz_genus(l, k) for l, k in pairs)


def _integrality(suite: str, bound: int):
    def check(g: int, n: int) -> tuple[bool, str]:
        rep = degree_integrality(g, n)
        return rep.integral, f"degree {rep.degree}"

    gns = [(g, n) for g in range(1, bound + 1) for n in range(3, 8)]
    return [(f"{suite} g={g} n={n}", check, (g, n)) for g, n in gns]


def _von_staudt(suite: str, bound: int):
    from fractions import Fraction
    top = min(_VON_STAUDT_TOP, 2 * bound)
    d, r = _log_derivative_scaled(top)

    def check(m: int) -> tuple[bool, str]:
        b, expected = bernoulli(m), von_staudt_denominator(m)
        detail = f"denominator {b.denominator}, prime product {expected}"
        if b.numerator * d == r[m] * b.denominator:
            return b.denominator == expected, detail
        return False, f"{detail}; B_m {b}, recurrence {Fraction(r[m], d)}"

    return [(f"{suite} m={m}", check, (m,)) for m in range(2, top + 1, 2)]


def _oracle_agreement(suite: str, bound: int):
    def agree(g: int) -> tuple[bool, str]:
        local = ng_local(g).value
        oracle = ng_oracle(g)
        return local == oracle, f"local {local}, gcd oracle {oracle}"

    def anchor(g: int) -> tuple[bool, str]:  # reads NG_CROSS_CHECK when the suite runs
        local = ng_local(g).value
        return local == NG_CROSS_CHECK[g], f"local {local}, table {NG_CROSS_CHECK[g]}"

    anchors = [g for g in sorted(NG_CROSS_CHECK) if g <= bound]
    return _per_g(agree)(suite, bound) + [(f"table-anchor g={g}", anchor, (g,)) for g in anchors]


_CYCLOTOMIC_PAIRS = [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3), (2, 4)]
_SYMPLECTIC_PAIRS = [(3, 1), (5, 1), (7, 1), (3, 2)]
_VON_STAUDT_TOP = 60

# suite -> (case builder, default bound).  builder(suite, bound) returns the suite's
# (name, check, arguments) triples in order.  von-staudt runs its listed m <= 2*bound,
# so its default runs every listed m; oracle-agreement runs ng_oracle at its one sample.
_SUITES = {
    "chern-lemma": (_per_g(_chern_lemma), 8),
    "borel-serre": (_per_g(_borel_serre), 6),
    "newton": (_per_g(_newton), 8),
    "fundamental-relations": (_per_g(_fundamental_relations), 6),
    "product-lemma": (_per_g(_product_lemma), 16),
    "denominator": (_per_g(_denominator), 12),
    "integrality": (_integrality, 5),
    "grr-chain": (_per_g(_grr_chain), 10),
    "cyclotomic": _covers(_CYCLOTOMIC_PAIRS, _cyclotomic),
    "symplectic": _covers(_SYMPLECTIC_PAIRS, _symplectic),
    "von-staudt": (_von_staudt, _VON_STAUDT_TOP // 2),
    "oracle-agreement": (_oracle_agreement, 8),
}

SUITE_NAMES = list(_SUITES) + ["all"]


def run_suite(name: str, max_g: "int | None" = None) -> list[CheckResult]:
    """Run one suite (or 'all'); max_g overrides the per-suite default bound.

    An override below 1 is refused: it would select no case and pass vacuously.
    """
    if not isinstance(name, str):
        raise TypeError(f"name must be a str, not {type(name).__name__}")
    if max_g is not None:
        _check_positive("max_g", max_g)
    if name == "all":
        # one call per suite, so a caller tracing run_suite sees each suite
        return [c for sub in _SUITES for c in run_suite(sub, max_g)]
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name}")
    cases, default = _SUITES[name]
    bound = default if max_g is None else max_g
    return [CheckResult(case, *check(*args)) for case, check, args in cases(name, bound)]

"""Output checks.  Each one compares what tautorder returned with a value from
`oracle`, or with a fact that holds whatever the program computes, and raises
CheckError on a mismatch.  A crash or a refusal is not a wrong value: the
CLI checks raise OpFailed for those, and the benchmark counts them as failed
operations.

The checks read results through their public attributes only (`.terms`,
`.value`, report fields, CLI output), so the tests can hand them fakes.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from math import factorial

import oracle


class CheckError(Exception):
    """An operation returned a value that disagrees with the reference."""


class OpFailed(Exception):
    """An operation crashed or refused an input it should have answered."""


class Reference:
    """Reference tables shared by the checks, filled on first use."""

    def __init__(self, max_bernoulli: int = 250):
        self.bern = oracle.bernoulli_numbers(max_bernoulli)
        self._ng: list[int] = []

    def ng(self, g: int) -> int:
        if g > len(self._ng):
            self._ng = oracle.ng_table(g, self.bern)
        return self._ng[g - 1]

    def ng_product(self, g: int) -> int:
        self.ng(g)
        out = 1
        for v in self._ng[:g]:
            out *= v
        return out

    def bernoulli(self, m: int) -> Fraction:
        if m >= len(self.bern):
            self.bern = oracle.bernoulli_numbers(m)
        return self.bern[m]


# -- class ring --------------------------------------------------------------


def check_lambda_star(poly, g: int) -> None:
    """Degrees 1..g-1 vanish, degree g is -(g-1)! c_g, the constant is 1."""
    if tuple(poly.weights) != tuple(range(1, g + 1)):
        raise CheckError("not in the class ring c1..cg")
    zero = (0,) * g
    top = tuple(1 if i == g - 1 else 0 for i in range(g))
    if poly.terms.get(zero) != 1:
        raise CheckError(f"constant term {poly.terms.get(zero)!r}, expected 1")
    for mon, coeff in poly.terms.items():
        d = oracle.weighted_degree(mon, poly.weights)
        if 1 <= d < g:
            raise CheckError(f"nonzero term {coeff}*{mon} in degree {d} < {g}")
        if d == g:
            if mon != top:
                raise CheckError(f"degree-{g} term {coeff}*{mon} is not a multiple of c{g}")
    if poly.terms.get(top) != -factorial(g - 1):
        raise CheckError(f"c{g} coefficient {poly.terms.get(top)!r}, expected {-factorial(g - 1)}")


def check_terms(poly, expected: dict, what: str) -> None:
    got = dict(poly.terms)
    if got != expected:
        wrong = sorted(set(got) ^ set(expected) | {m for m in got if got[m] != expected.get(m)})
        raise CheckError(f"{what}: {len(wrong)} monomials differ, first {wrong[:1]}")


def check_symmetric_reduce(reduction, expected: dict, what: str) -> None:
    check_terms(reduction.output, expected, what)


def check_todd(poly, g: int, depth: int, ref: Reference) -> None:
    """Every coefficient is a product of B_k/k! (Akiyama-Tanigawa B_k)."""
    check_terms(poly, oracle.todd_terms(g, depth, ref.bern), f"todd_class({g}, {depth})")


def check_true(value, what: str) -> None:
    if value is not True:
        raise CheckError(f"{what} returned {value!r}, expected True")


def check_fundamental(components, g: int, max_degree: int) -> None:
    product = oracle.fundamental_product(g)
    weights = tuple(range(1, g + 1))
    if len(components) != max_degree:
        raise CheckError(f"{len(components)} components, expected {max_degree}")
    for d, comp in enumerate(components, start=1):
        want = {m: c for m, c in product.items() if oracle.weighted_degree(m, weights) == d}
        check_terms(comp, want, f"fundamental_relations({g}) degree {d}")


_SUITE_BOUNDS = {
    "chern-lemma": 8,
    "borel-serre": 6,
    "newton": 8,
    "fundamental-relations": 6,
    "product-lemma": 16,
    "denominator": 12,
    "integrality": 5,
    "grr-chain": 10,
    "oracle-agreement": 8,
}


# the fixed-list suites ignore their bound and always run these cases
_FIXED_SUITES = {
    "cyclotomic": [f"cyclotomic l={l} k={k}" for l, k in [(3, 1), (3, 2), (5, 1), (7, 1), (2, 3), (2, 4)]],
    "symplectic": [f"symplectic l={l} k={k}" for l, k in [(3, 1), (5, 1), (7, 1), (3, 2)]],
    "von-staudt": [f"von-staudt m={m}" for m in range(2, 61, 2)],
}


def suite_names(suite: str, max_g: "int | None" = None) -> list[str]:
    """Check names a suite must produce, in order."""
    if suite in _FIXED_SUITES:
        return _FIXED_SUITES[suite]
    bound = _SUITE_BOUNDS[suite] if max_g is None else max_g
    if suite == "integrality":
        return [f"integrality g={g} n={n}" for g in range(1, bound + 1) for n in range(3, 8)]
    names = [f"{suite} g={g}" for g in range(1, bound + 1)]
    if suite == "oracle-agreement":
        names += [f"table-anchor g={g}" for g in range(1, min(bound, 4) + 1)]
    return names


def check_suite_names(suite: str, names: list, oks: list, max_g: "int | None") -> None:
    if not names:
        raise CheckError(f"suite {suite} ran no checks")
    if not all(oks):
        raise CheckError(f"suite {suite}: failing checks {[n for n, ok in zip(names, oks) if not ok]}")
    want = suite_names(suite, max_g)
    if list(names) != want:
        raise CheckError(f"suite {suite}: checks {names[:3]}..., expected {want[:3]}...")


def check_suite(results, suite: str, max_g: "int | None") -> None:
    check_suite_names(suite, [r.name for r in results], [r.ok is True for r in results], max_g)


# -- arithmetic tables -------------------------------------------------------


def check_ng_value(value, g: int, ref: Reference) -> None:
    if value != ref.ng(g):
        raise CheckError(f"n_{g} = {value}, expected {ref.ng(g)}")


def check_ng_local(dec, g: int, ref: Reference) -> None:
    check_ng_value(dec.value, g, ref)
    factors = {f.prime: f.exponent for f in dec.factors if f.exponent}
    if factors != oracle.factor(ref.ng(g)):
        raise CheckError(f"n_{g} factors {factors}")


def check_torsion_report(rep, g: int, ref: Reference) -> None:
    n_g = ref.ng(g)
    if rep.n_g != n_g:
        raise CheckError(f"torsion_report({g}).n_g = {rep.n_g}, expected {n_g}")
    if rep.lower_bound_lambda != n_g // 2:
        raise CheckError(f"torsion_report({g}) lower bound is not n_g/2")
    if rep.scheme_upper_bound != factorial(g - 1) * n_g:
        raise CheckError(f"torsion_report({g}) scheme bound is not (g-1)! n_g")
    if rep.stack_upper_bound != factorial(g - 1) * ref.ng_product(g):
        raise CheckError(f"torsion_report({g}) stack bound is not (g-1)! prod n_i")
    want = {i: ref.ng(i) // 2 for i in range(1, g + 1)}
    if dict(rep.r_orders) != want:
        raise CheckError(f"torsion_report({g}) r_orders differ from n_i/2")


def check_product_identity(rep, g: int, ref: Reference) -> None:
    prod = ref.ng_product(g)
    if rep.lhs != prod:
        raise CheckError(f"product identity lhs {rep.lhs}, expected prod n_i = {prod}")
    if not (rep.rhs == prod and rep.equal is True):
        raise CheckError(f"product identity rhs {rep.rhs}, equal {rep.equal}")


def check_denominator(value, g: int, ref: Reference) -> None:
    den = abs(oracle.proportionality(g, ref.bern)).denominator
    want = ref.ng_product(g) % den == 0
    if value is not want:
        raise CheckError(f"denominator_corollary_check({g}) = {value!r}, expected {want}")


def check_sp_order(rep, g: int, n: int, factors: dict) -> None:
    order, local = oracle.sp_order(g, factors)
    if rep.order != order:
        raise CheckError(f"#Sp({2 * g}, Z/{n}) differs from n^(g(2g+1)) prod (1 - p^-2i)")
    if dict(rep.local_factors) != local:
        raise CheckError(f"#Sp({2 * g}, Z/{n}) local factors differ")


def check_degree(rep, g: int, n: int, factors: dict, ref: Reference) -> None:
    degree = oracle.sp_order(g, factors)[0] * abs(oracle.proportionality(g, ref.bern))
    if rep.degree != degree:
        raise CheckError(f"degree_integrality({g}, {n}) degree {rep.degree}, expected {degree}")
    if rep.integral is not (degree.denominator == 1):
        raise CheckError(f"degree_integrality({g}, {n}) integral flag")


def check_von_staudt(value, m: int) -> None:
    want = oracle.von_staudt_denominator(m)
    if value != want:
        raise CheckError(f"von_staudt_denominator({m}) = {value}, expected {want}")


def check_bernoulli(value, m: int, ref: Reference) -> None:
    """Equal to the Akiyama-Tanigawa value; von Staudt-Clausen and sign for even m >= 2."""
    if value != ref.bernoulli(m):
        raise CheckError(f"B_{m} = {value}, expected {ref.bernoulli(m)}")
    if m >= 2 and m % 2 == 0:
        if not oracle.von_staudt_clausen_ok(m, Fraction(value)):
            raise CheckError(f"B_{m} fails von Staudt-Clausen or sign")


def check_bernoulli_table(table, max_index: int, ref: Reference) -> None:
    keys = [0, 1] + list(range(2, max_index + 1, 2))
    if sorted(table.values) != keys:
        raise CheckError(f"bernoulli_table({max_index}) has indices {sorted(table.values)[:4]}...")
    for m in keys:
        check_bernoulli(table.values[m], m, ref)


def check_proportionality(rep, g: int, ref: Reference) -> None:
    want = oracle.proportionality(g, ref.bern)
    if rep.signed_value != want:
        raise CheckError(f"proportionality({g}) = {rep.signed_value}, expected {want}")
    if rep.absolute_value != abs(want):
        raise CheckError(f"proportionality({g}) absolute value")
    if rep.denominator != abs(want).denominator:
        raise CheckError(f"proportionality({g}) denominator")


def check_cyclotomic(rep, l: int, k: int) -> None:
    """The unit product mod l equals the binomial expansion of (1 - x^{l-1})^{l^{k-1}}."""
    want = oracle.cyclotomic_closed_form(l, k)
    if list(rep.product.coeffs) != want:
        raise CheckError(f"cyclotomic product ({l}, {k}) differs from the binomial expansion")
    top = l ** (k - 1) * (l - 1)
    if rep.equal is not True:
        raise CheckError(f"cyclotomic ({l}, {k}) does not report equality")
    if not (rep.top_degree == top and rep.top_coefficient_nonzero is True):
        raise CheckError(f"cyclotomic ({l}, {k}) top degree")


def check_pairing(rep, l: int, k: int) -> None:
    """Integral, skew, zeta-invariant, |det| = 1; the quoted exponent gives 81 at (3, 2)."""
    if rep.rank != l ** (k - 1) * (l - 1):
        raise CheckError(f"pairing ({l}, {k}) rank {rep.rank}")
    if not (rep.integral is True and rep.skew is True and rep.invariant is True):
        raise CheckError(f"pairing ({l}, {k}) integral {rep.integral}, skew {rep.skew}, invariant {rep.invariant}")
    if abs(rep.gram_determinant) != 1:
        raise CheckError(f"pairing ({l}, {k}) determinant {rep.gram_determinant}")
    if rep.exponent != oracle.different_exponent(l, k):
        raise CheckError(f"pairing ({l}, {k}) exponent {rep.exponent}")
    quoted = l**k - l ** (k - 1) - 1
    if rep.quoted_exponent != quoted:
        raise CheckError(f"pairing ({l}, {k}) quoted exponent {rep.quoted_exponent}")
    if (l, k) == (3, 2):
        if rep.quoted_exponent_determinant != 81:
            raise CheckError(f"pairing (3, 2) quoted-exponent determinant {rep.quoted_exponent_determinant}, not 81")


# -- command line ------------------------------------------------------------


def frac_text(value) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def flatten(payload, prefix: str = "") -> dict:
    """JSON result -> the `key = value` pairs the text and csv formats print."""
    if isinstance(payload, dict) and set(payload) == {"num", "den"}:
        return {prefix or "value": f"{payload['num']}/{payload['den']}"}
    if isinstance(payload, dict):
        out: dict = {}
        for key, value in payload.items():
            out.update(flatten(value, f"{prefix}.{key}" if prefix else str(key)))
        return out
    if isinstance(payload, list):
        out = {}
        for i, value in enumerate(payload):
            out.update(flatten(value, f"{prefix}[{i}]"))
        return out
    if isinstance(payload, bool):
        text = "true" if payload else "false"
    elif payload is None:
        text = "none"
    else:
        text = str(payload)
    return {prefix or "value": text}


def parse_cli_output(command: str, fmt: str, stdout: str) -> dict:
    """Flat {key: text} view of one CLI result in any of the three formats."""
    if fmt == "json":
        try:
            envelope = json.loads(stdout)
        except json.JSONDecodeError as exc:
            raise CheckError(f"json output does not parse: {exc}") from None
        if not isinstance(envelope, dict):
            raise CheckError("json output is not an object")
        if not (envelope.get("command") == command and envelope.get("format") == "json"):
            raise CheckError(f"json envelope names {envelope.get('command')!r}/{envelope.get('format')!r}")
        return flatten(envelope.get("result"))
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        if not all(len(r) == 2 for r in rows):
            raise CheckError("csv rows are not key,value pairs")
        pairs = [(r[0], r[1]) for r in rows]
    else:
        pairs = []
        for line in stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if not sep:
                raise CheckError(f"text line {line[:60]!r} is not key = value")
            pairs.append((key, value))
    out = dict(pairs)
    if len(out) != len(pairs):
        raise CheckError("repeated keys in the output")
    return out


def _raise_if_crashed(proc) -> None:
    if "Traceback" in proc.stderr:
        last = proc.stderr.strip().splitlines()[-1]
        raise OpFailed(f"traceback, exit {proc.returncode}: {last[:120]}")


def classify_exit(proc, expected_code: int) -> None:
    """A traceback or an unexpected refusal is a failure, not a wrong value."""
    _raise_if_crashed(proc)
    if proc.returncode == 1 and expected_code != 1:
        raise OpFailed(f"refused with exit 1: {proc.stderr.strip()[:120]}")
    if proc.returncode != expected_code:
        raise CheckError(f"exit {proc.returncode}, expected {expected_code}")


def check_cli_value(argv: list, fmt: str, proc, want: dict) -> None:
    classify_exit(proc, 0)
    got = parse_cli_output(argv[0], fmt, proc.stdout)
    if got != want:
        diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        first = diff[0]
        raise CheckError(f"{' '.join(argv)}: keys {diff[:3]} differ, e.g. {got.get(first)!r} vs {want.get(first)!r}")


def check_cli_verify(argv: list, fmt: str, proc, suite: str, max_g: "int | None") -> None:
    classify_exit(proc, 0)
    if fmt == "text":
        lines = proc.stdout.splitlines()
        if not lines:
            raise CheckError("verify printed nothing")
        body, summary = lines[:-1], lines[-1]
        if not all(line.startswith(("PASS ", "FAIL ")) for line in body):
            raise CheckError("verify lines are not PASS/FAIL")
        names = [line[5:] for line in body]
        oks = [line.startswith("PASS ") for line in body]
        if summary != f"{sum(oks)} passed, {len(oks) - sum(oks)} failed":
            raise CheckError(f"summary {summary!r}")
    else:
        flat = parse_cli_output("verify", fmt, proc.stdout)
        count = sum(1 for k in flat if k.endswith("].name"))
        names = [flat.get(f"checks[{i}].name") for i in range(count)]
        oks = [flat.get(f"checks[{i}].ok") == "true" for i in range(count)]
        if flat.get("suite") != suite:
            raise CheckError(f"verify reports suite {flat.get('suite')!r}")
        if not (flat.get("passed") == str(sum(oks)) and flat.get("failed") == str(count - sum(oks))):
            raise CheckError(f"verify counts passed={flat.get('passed')} failed={flat.get('failed')}")
    check_suite_names(suite, names, oks, max_g)


def check_cli_error(proc) -> None:
    """Exit 1, exactly one line on stderr, nothing on stdout, no traceback."""
    _raise_if_crashed(proc)
    if proc.returncode != 1:
        raise CheckError(f"invalid input exited {proc.returncode}, expected 1")
    if len(proc.stderr.splitlines()) != 1:
        raise CheckError(f"{len(proc.stderr.splitlines())} stderr lines, expected 1")
    if proc.stdout:
        raise CheckError("invalid input printed a result")

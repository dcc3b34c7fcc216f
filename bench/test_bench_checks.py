"""The benchmark's own tests: every output check accepts the program's real
answer and rejects a deliberately wrong one, and the reference routes agree
with each other where both apply.

    PYTHONPATH=src python -m pytest -q bench
"""
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
for path in (BENCH, SRC):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import oracle  # noqa: E402
import pools  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from checks import CheckError, OpFailed  # noqa: E402
from tautorder import bernoulli_zeta, chern_symbolics, finite_field_checks, group_orders  # noqa: E402
from tautorder import torsion_orders, verify  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return checks.Reference(max_bernoulli=60)


def poly_like(poly, **changes):
    """A stand-in with the same public attributes as `poly`, some replaced."""
    fields = {"names": poly.names, "weights": poly.weights, "truncation": poly.truncation, "terms": dict(poly.terms)}
    fields.update(changes)
    return SimpleNamespace(**fields)


def bumped(terms: dict, mon) -> dict:
    out = dict(terms)
    out[mon] = out.get(mon, 0) + 1
    return out


# -- reference routes ----------------------------------------------------------


def test_reference_bernoulli_known_values():
    b = oracle.bernoulli_numbers(12)
    assert b[:3] == [1, Fraction(-1, 2), Fraction(1, 6)]
    assert b[12] == Fraction(-691, 2730) and b[11] == 0


def test_reference_ng_routes_agree():
    bern = oracle.bernoulli_numbers(80)
    assert [(bern[2 * g] / (4 * g)).denominator for g in range(1, 41)] == [oracle.ng_by_gcd(g) for g in range(1, 41)]
    assert oracle.ng_table(6, bern) == [24, 240, 504, 480, 264, 65520]


def test_reference_primality_against_sieve():
    sieve = [p for p in range(2, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))]
    assert [n for n in range(3000) if oracle.is_prime(n)] == sieve


def test_reference_sp_order_counts_sl2():
    # Sp(2, Z/n) = SL(2, Z/n): count the matrices outright
    for n in (4, 6, 9):
        count = sum(1 for a, b, c, d in product(range(n), repeat=4) if (a * d - b * c) % n == 1)
        assert oracle.sp_order(1, oracle.factor(n))[0] == count


def test_reference_cyclotomic_against_direct_product():
    for l, k in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        coeffs = [1]
        for i in range(1, l**k + 1):
            if i % l:
                coeffs = [(a + i * b) % l for a, b in zip(coeffs + [0], [0] + coeffs)]
        while coeffs[-1] == 0:
            coeffs.pop()
        assert oracle.cyclotomic_closed_form(l, k) == coeffs


# -- class ring ----------------------------------------------------------------


def test_lambda_star_check():
    for g in (3, 4):
        good = chern_symbolics.lambda_star_class(g, g + 1)
        checks.check_lambda_star(good, g)
        low = tuple(1 if i == 0 else 0 for i in range(g))
        top = tuple(1 if i == g - 1 else 0 for i in range(g))
        for wrong in (bumped(good.terms, low), bumped(good.terms, top), bumped(good.terms, (0,) * g)):
            with pytest.raises(CheckError):
                checks.check_lambda_star(poly_like(good, terms=wrong), g)


def test_borel_serre_check_wants_true():
    checks.check_true(chern_symbolics.borel_serre_check(3, 6), "borel_serre_check")
    with pytest.raises(CheckError):
        checks.check_true(False, "borel_serre_check")


def test_symmetric_reduce_check_power_sums_and_chern_character():
    g, k = 4, 5
    (prepared,) = pools._power_sum_input(g, k)({"chern_symbolics": chern_symbolics})
    want = oracle.newton_power_sums(g, k)[k]
    out = chern_symbolics.symmetric_reduce(prepared)
    checks.check_symmetric_reduce(out, want, "p5")
    wrong = SimpleNamespace(output=poly_like(out.output, terms=bumped(out.output.terms, (1, 0, 0, 1))))
    with pytest.raises(CheckError):
        checks.check_symmetric_reduce(wrong, want, "p5")
    ch = chern_symbolics.symmetric_reduce(chern_symbolics.chern_character(3, 5))
    checks.check_symmetric_reduce(ch, oracle.chern_character_in_classes(3, 5), "ch")


def test_todd_check(ref):
    good = chern_symbolics.todd_class(3, 6)
    checks.check_todd(good, 3, 6, ref)
    with pytest.raises(CheckError):
        checks.check_todd(poly_like(good, terms=bumped(good.terms, (2, 0, 0))), 3, 6, ref)
    with pytest.raises(CheckError):  # the other normalization flips the odd coefficients
        checks.check_todd(chern_symbolics.todd_class(3, 6, dual=False), 3, 6, ref)


def test_fundamental_relations_check():
    good = chern_symbolics.fundamental_relations(4, 8)
    checks.check_fundamental(good, 4, 8)
    wrong = list(good)
    wrong[1] = poly_like(good[1], terms=bumped(good[1].terms, (2, 0, 0, 0)))
    with pytest.raises(CheckError):
        checks.check_fundamental(wrong, 4, 8)


def test_suite_check():
    good = verify.run_suite("newton", 4)
    checks.check_suite(good, "newton", 4)
    failing = [SimpleNamespace(name=r.name, ok=r.ok) for r in good]
    failing[2].ok = False
    with pytest.raises(CheckError):
        checks.check_suite(failing, "newton", 4)
    with pytest.raises(CheckError):  # a suite that silently ran fewer cases
        checks.check_suite(good[:3], "newton", 4)
    with pytest.raises(CheckError):  # "0 passed, 0 failed" is not a pass
        checks.check_suite([], "cyclotomic", None)
    fixed = verify.run_suite("symplectic")
    checks.check_suite(fixed, "symplectic", None)
    with pytest.raises(CheckError):  # a fixed-list suite that dropped a case
        checks.check_suite(fixed[:-1], "symplectic", None)


# -- arithmetic tables -----------------------------------------------------------


def test_ng_checks(ref):
    checks.check_ng_local(torsion_orders.ng_local(6), 6, ref)
    checks.check_ng_value(torsion_orders.ng_oracle(6), 6, ref)
    with pytest.raises(CheckError):
        checks.check_ng_value(65520 * 2, 6, ref)
    fake = SimpleNamespace(value=65520, factors=[SimpleNamespace(prime=65520, exponent=1)])
    with pytest.raises(CheckError):
        checks.check_ng_local(fake, 6, ref)


def test_torsion_report_check(ref):
    good = torsion_orders.torsion_report(9)
    checks.check_torsion_report(good, 9, ref)
    for field, value in [("lower_bound_lambda", good.n_g), ("scheme_upper_bound", good.scheme_upper_bound + 1),
                         ("stack_upper_bound", good.scheme_upper_bound), ("r_orders", {**good.r_orders, 3: 1})]:
        with pytest.raises(CheckError):
            checks.check_torsion_report(SimpleNamespace(**{**vars(good), field: value}), 9, ref)


def test_product_identity_and_denominator_checks(ref):
    good = torsion_orders.product_identity_check(8)
    checks.check_product_identity(good, 8, ref)
    with pytest.raises(CheckError):
        checks.check_product_identity(SimpleNamespace(lhs=good.lhs * 2, rhs=good.lhs * 2, equal=True), 8, ref)
    checks.check_denominator(torsion_orders.denominator_corollary_check(8), 8, ref)
    with pytest.raises(CheckError):
        checks.check_denominator(False, 8, ref)


def test_sp_order_and_degree_checks(ref):
    n = 2 * 3 * 200003
    factors = {2: 1, 3: 1, 200003: 1}
    good = group_orders.sp_order(2, n)
    checks.check_sp_order(good, 2, n, factors)
    with pytest.raises(CheckError):
        checks.check_sp_order(SimpleNamespace(order=good.order * 2, local_factors=good.local_factors), 2, n, factors)
    with pytest.raises(CheckError):  # the factors must multiply out too
        checks.check_sp_order(SimpleNamespace(order=good.order, local_factors={2: 1}), 2, n, factors)
    deg = group_orders.degree_integrality(3, 5)
    checks.check_degree(deg, 3, 5, {5: 1}, ref)
    with pytest.raises(CheckError):
        checks.check_degree(SimpleNamespace(degree=deg.degree, integral=False), 3, 5, {5: 1}, ref)
    with pytest.raises(CheckError):
        checks.check_degree(SimpleNamespace(degree=deg.degree + 1, integral=True), 3, 5, {5: 1}, ref)


def test_bernoulli_checks(ref):
    checks.check_bernoulli(bernoulli_zeta.bernoulli(40), 40, ref)
    checks.check_bernoulli_table(bernoulli_zeta.bernoulli_table(40), 40, ref)
    checks.check_von_staudt(bernoulli_zeta.von_staudt_denominator(40), 40)
    with pytest.raises(CheckError):
        checks.check_bernoulli(-bernoulli_zeta.bernoulli(40), 40, ref)
    with pytest.raises(CheckError):
        checks.check_von_staudt(bernoulli_zeta.von_staudt_denominator(40) * 7, 40)
    table = bernoulli_zeta.bernoulli_table(40)
    with pytest.raises(CheckError):
        checks.check_bernoulli_table(SimpleNamespace(values={k: v for k, v in table.values.items() if k != 20}),
                                     40, ref)
    assert oracle.von_staudt_clausen_ok(40, ref.bern[40])
    assert not oracle.von_staudt_clausen_ok(40, -ref.bern[40])
    assert not oracle.von_staudt_clausen_ok(40, ref.bern[40] + Fraction(1, 11))


def test_proportionality_check(ref):
    good = bernoulli_zeta.proportionality(6)
    checks.check_proportionality(good, 6, ref)
    with pytest.raises(CheckError):
        checks.check_proportionality(SimpleNamespace(**{**vars(good), "signed_value": good.absolute_value}), 6, ref)


def test_cyclotomic_check():
    good = finite_field_checks.cyclotomic_chern_check(3, 2)
    checks.check_cyclotomic(good, 3, 2)
    # the +1 variant is a different polynomial mod 3
    wrong = SimpleNamespace(**{**vars(good), "product": good.plus_sign_form})
    with pytest.raises(CheckError):
        checks.check_cyclotomic(wrong, 3, 2)


def test_pairing_check():
    good = finite_field_checks.symplectic_pairing_check(3, 2)
    checks.check_pairing(good, 3, 2)
    for field, value in [("gram_determinant", 81), ("skew", False), ("invariant", False),
                         ("quoted_exponent_determinant", 1), ("exponent", good.quoted_exponent)]:
        with pytest.raises(CheckError):
            checks.check_pairing(SimpleNamespace(**{**vars(good), field: value}), 3, 2)


# -- command line ----------------------------------------------------------------


def proc(returncode=0, stdout="", stderr=""):
    return SimpleNamespace(returncode=returncode, stdout=stdout, stderr=stderr)


DEGREE_OUT = {
    "text": "degree = 9\ng = 2\nintegral = true\nn = 3\n",
    "csv": "degree,9\ng,2\nintegral,true\nn,3\n",
    "json": json.dumps({"command": "degree", "format": "json", "parameters": {"g": "2", "n": "3"},
                        "result": {"degree": "9", "g": "2", "integral": True, "n": "3"}}),
}


def test_cli_formats_parse_to_the_same_values(ref):
    want = pools._expected_cli(["degree", "2", "3"], ref)
    for fmt, out in DEGREE_OUT.items():
        checks.check_cli_value(["degree", "2", "3"], fmt, proc(stdout=out), want)
        with pytest.raises(CheckError):
            checks.check_cli_value(["degree", "2", "3"], fmt, proc(stdout=out.replace("9", "8")), want)
    result = {"g": "2", "value": {"num": "1", "den": "120"}}
    rational = json.dumps({"command": "zeta", "format": "json", "result": result})
    checks.check_cli_value(["zeta", "2"], "json", proc(stdout=rational), pools._expected_cli(["zeta", "2"], ref))


def test_cli_crash_is_a_failure_not_a_wrong_value(ref):
    want = pools._expected_cli(["degree", "2", "3"], ref)
    crash = proc(1, stderr="Traceback (most recent call last):\n  ...\nValueError: Exceeds the limit\n")
    with pytest.raises(OpFailed):
        checks.check_cli_value(["degree", "2", "3"], "text", crash, want)
    with pytest.raises(OpFailed):
        checks.check_cli_error(crash)


def test_cli_error_check():
    checks.check_cli_error(proc(1, stderr="tautorder: error: g must be positive\n"))
    for wrong in (proc(0, stdout="value = 1\n"), proc(1, stderr="usage: ...\nerror: ...\n"),
                  proc(1, stdout="x", stderr="tautorder: error: bad\n"), proc(2, stderr="tautorder: error: bad\n")):
        with pytest.raises(CheckError):
            checks.check_cli_error(wrong)


def test_cli_verify_check():
    text = "PASS newton g=1\nPASS newton g=2\n2 passed, 0 failed\n"
    checks.check_cli_verify(["verify", "newton"], "text", proc(stdout=text), "newton", 2)
    with pytest.raises(CheckError):
        failing = text.replace("PASS newton g=2", "FAIL newton g=2")
        checks.check_cli_verify(["verify", "newton"], "text", proc(stdout=failing), "newton", 2)
    with pytest.raises(CheckError):
        checks.check_cli_verify(["verify", "newton"], "text", proc(stdout="0 passed, 0 failed\n"), "newton", 2)


def test_cli_expected_values_match_the_program(ref):
    """Every value-returning pool entry, run in-process through cli.run, agrees with its reference."""
    import io

    from tautorder import cli

    for op in pools.cli_pool(seed=5):
        if op.kind != "value" or list(op.argv[:3]) == pools.KNOWN_FAULT:
            continue
        out = io.StringIO()
        code = cli.run(list(op.argv), out=out)
        pools.check_cli(op, proc(code, out.getvalue()), ref)


# -- tracing ---------------------------------------------------------------------


def test_layer_metrics_self_time_and_nesting():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, 1, 0, "cli.run", None, 0, 10_000_000),
        (1, 2, 1, "bernoulli_zeta.bernoulli", None, 1_000_000, 5_000_000),
        (1, 3, 2, "bernoulli_zeta.bernoulli", None, 2_000_000, 3_000_000),  # nested: not counted twice
        (1, 4, 1, "verify.run_suite", "newton", 6_000_000, 8_000_000),
    ]
    tracer.counts = {"bernoulli_zeta.bernoulli": 2}
    m = tracing.layer_metrics(tracer, rounds=2)
    assert m["cli.run_self_ms"]["value"] == pytest.approx(2.0)  # (10 - 4 - 2) ms over 2 rounds
    assert m["bernoulli_zeta.bernoulli_ms"]["value"] == pytest.approx(2.0)
    assert m["bernoulli_zeta.bernoulli_calls"]["value"] == 1
    assert m["verify.run_suite_ms.newton"]["value"] == pytest.approx(1.0)
    assert [name for name, _ in tracing.metric_names()] == list(m)


def test_cli_trace_shim_records_spans(tmp_path):
    span_file = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, BENCH])}
    done = subprocess.run([sys.executable, "-S", os.path.join(BENCH, "cli_trace.py"), str(span_file), "7", "0",
                           "ng", "6"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and "value = 65520" in done.stdout
    dump = json.loads(span_file.read_text())
    names = {s[3] for s in dump["spans"]}
    assert {"cli.import", "cli.run", "torsion_orders.ng_local", "exact_arith.primes_upto"} <= names
    assert all(s[0] == 7 for s in dump["spans"]) and dump["counts"]["exact_arith.is_prime"] > 0


# -- estimators ------------------------------------------------------------------


def test_metrics_scale_attempts_to_the_quiet_speed():
    """An attempt made while the speed probe reads twice its quiet value counts
    at half its seconds, and each operation's median attempt is used."""
    quiet = worker.PROBE_QUIET_MS
    run = worker.Run(SimpleNamespace(workload="class-ring", seed=1, seconds=1, trace=0))
    for label, seconds in [("a", 0.010), ("b", 0.030)]:
        run.record(label, seconds, quiet, None)
        run.record(label, 2 * seconds, 2 * quiet, None)
        run.record(label, 5 * seconds, quiet, None)  # a slow outlier
    run.setups = [1.0, 3.0, 2.0]
    m = run.metrics(peak_rss_kb=2048)
    assert m["throughput_ops_per_s"]["value"] == pytest.approx(2 / 0.040)
    assert m["op_p50_ms"]["value"] == pytest.approx(10.0)
    assert m["op_tail_ms"]["value"] == pytest.approx(30.0)
    assert m["setup_s"]["value"] == 2.0
    assert m["peak_rss_mb"]["value"] == 2.0

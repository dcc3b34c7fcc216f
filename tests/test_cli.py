from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautorder.cli import _csv, _json, run
from tautorder.torsion_orders import NG_CROSS_CHECK
from tautorder.verify import run_suite

SUBCOMMAND_SAMPLES = [
    ["ng", "3"],
    ["ng", "2", "--oracle"],
    ["bernoulli", "12"],
    ["zeta", "4"],
    ["prop", "2"],
    ["bounds", "3"],
    ["sp-order", "1", "3"],
    ["degree", "2", "3"],
    ["koblitz", "3", "3"],
    ["boundary", "6"],
    ["hurwitz", "3", "2"],
    ["verify", "von-staudt"],
]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def _assert_no_numeric_leaves(node: object) -> None:
    if isinstance(node, dict):
        for v in node.values():
            _assert_no_numeric_leaves(v)
    elif isinstance(node, list):
        for v in node:
            _assert_no_numeric_leaves(v)
    elif not isinstance(node, (str, bool)) and node is not None:
        raise AssertionError(f"non-string leaf {node!r}")


def test_text_output_golden() -> None:
    code, text = _run(["ng", "3"])
    assert code == 0
    assert text == (
        "factors.2 = 3\nfactors.3 = 2\nfactors.7 = 1\ng = 3\nroute = local\nvalue = 504\n"
    )


def test_text_rational_rendering() -> None:
    code, text = _run(["boundary", "6"])
    assert code == 0
    assert text == "g = 6\nvalue = 32760/691\n"


def test_csv_output_golden() -> None:
    code, text = _run(["zeta", "1", "--format", "csv"])
    assert code == 0
    assert text == "g,1\nvalue,-1/12\n"
    code, text = _run(["hurwitz", "3", "2", "--format", "csv"])
    assert code == 0
    assert text == "genus,3\nk,2\nl,3\n"


def test_json_envelope_shape() -> None:
    code, text = _run(["ng", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert sorted(payload) == ["command", "format", "parameters", "result"]
    assert payload["command"] == "ng"
    assert payload["result"]["value"] == "504"
    assert payload["result"]["factors"] == {"2": "3", "3": "2", "7": "1"}


def test_json_rationals_are_num_den_objects() -> None:
    code, text = _run(["prop", "2", "--format", "json"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["signed_value"] == {"num": "-1", "den": "5760"}
    assert result["absolute_value"] == {"num": "1", "den": "5760"}
    assert result["denominator"] == "5760"


def test_json_is_byte_deterministic_and_float_free() -> None:
    for argv in SUBCOMMAND_SAMPLES:
        first = _run(argv + ["--format", "json"])
        second = _run(argv + ["--format", "json"])
        assert first == second
        code, text = first
        assert code == 0
        _assert_no_numeric_leaves(json.loads(text))


def test_text_and_csv_runs_are_deterministic() -> None:
    for argv in SUBCOMMAND_SAMPLES[:6]:
        for fmt in ("text", "csv"):
            assert _run(argv + ["--format", fmt]) == _run(argv + ["--format", fmt])


def test_usage_errors_exit_one() -> None:
    assert _run([])[0] == 1
    assert _run(["no-such-command"])[0] == 1
    assert _run(["ng"])[0] == 1
    assert _run(["ng", "3", "--format", "yaml"])[0] == 1


def test_domain_errors_exit_one_with_message(capsys: pytest.CaptureFixture) -> None:
    code, text = _run(["ng", "0"])
    assert code == 1
    assert text == ""
    assert "g must be positive" in capsys.readouterr().err
    code, _ = _run(["degree", "1", "2"])
    assert code == 1
    assert "n >= 3" in capsys.readouterr().err
    code, text = _run(["ng", "0", "--oracle"])
    assert (code, text) == (1, "")
    assert capsys.readouterr().err == "tautorder: error: g must be positive\n"
    # an OverflowError (an ArithmeticError) from an index past sys.maxsize ends in one line
    huge = str(10**20)
    for argv in (["ng", huge, "--oracle"], ["bernoulli", huge], ["zeta", huge], ["boundary", huge]):
        code, text = _run(argv)
        assert (code, text) == (1, ""), argv
        err = capsys.readouterr().err
        assert err.startswith("tautorder: error: ") and err.count("\n") == 1 and err.endswith("\n"), argv


def test_memory_error_exits_one_with_one_line(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    # a huge index asks _tangent_numbers for a list of m/2 ints; its MemoryError has
    # an empty message, so the line names the error instead
    import tautorder.bernoulli_zeta as bernoulli_zeta

    def refuse(n: int) -> list[int]:
        raise MemoryError

    monkeypatch.setattr(bernoulli_zeta, "_tangent_numbers", refuse)
    for argv in (["bernoulli", "1000000000000"], ["zeta", "500000000000"]):
        assert _run(argv) == (1, ""), argv
        assert capsys.readouterr().err == "tautorder: error: MemoryError\n", argv


def test_oracle_route_reports_parameters() -> None:
    code, text = _run(["ng", "2", "--oracle", "--format", "json"])
    assert code == 0
    result = json.loads(text)["result"]
    assert result["route"] == "oracle"
    assert result["value"] == "240"
    assert result["prime_count"] == "100"


def test_the_environment_does_not_change_the_oracle_sample(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # the sample is fixed, never a variable of the environment
    monkeypatch.setenv("TAUTORDER_PRIME_COUNT", "abc")
    code, text = _run(["ng", "1", "--oracle", "--format", "json"])
    assert code == 0
    assert json.loads(text)["result"]["prime_count"] == "100"
    code, text = _run(["verify", "oracle-agreement", "--max-g", "2"])
    assert code == 0
    assert text.splitlines()[-1] == "4 passed, 0 failed"


def test_verify_text_lines() -> None:
    code, text = _run(["verify", "von-staudt"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "PASS von-staudt m=2"
    assert lines[-1] == "30 passed, 0 failed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_unknown_suite_rejected() -> None:
    assert _run(["verify", "no-such-suite"])[0] == 1


def test_verify_failure_exits_two(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setitem(NG_CROSS_CHECK, 2, 999)
    code, text = _run(["verify", "oracle-agreement", "--max-g", "3"])
    assert code == 2
    assert "FAIL table-anchor g=2" in text
    assert text.splitlines()[-1].endswith("1 failed")


def test_spot_values_across_subcommands() -> None:
    assert json.loads(_run(["bernoulli", "12", "--format", "json"])[1])["result"]["value"] == {
        "num": "-691",
        "den": "2730",
    }
    assert json.loads(_run(["sp-order", "1", "3", "--format", "json"])[1])["result"]["order"] == "24"
    assert json.loads(_run(["degree", "2", "3", "--format", "json"])[1])["result"]["degree"] == "9"
    assert json.loads(_run(["koblitz", "3", "3", "--format", "json"])[1])["result"]["value"] == "416"
    bounds = json.loads(_run(["bounds", "2", "--format", "json"])[1])["result"]
    assert bounds["stack_upper_bound"] == "5760"


def test_sp_order_beyond_the_int_str_digit_limit() -> None:
    # the order has about 30000 digits, past Python's default 4300-digit limit
    limit = sys.get_int_max_str_digits()
    code, text = _run(["sp-order", "50", "1000003"])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit  # lifted only while rendering
    p = 1000003
    order = p ** (50 * 50)
    for i in range(1, 51):
        order *= p ** (2 * i) - 1
    lines = dict(line.split(" = ") for line in text.splitlines())
    assert len(lines["order"]) > 30000
    sys.set_int_max_str_digits(0)
    try:
        assert lines["order"] == str(order)
    finally:
        sys.set_int_max_str_digits(limit)


def test_verify_max_g_below_one_is_a_usage_error(capsys: pytest.CaptureFixture) -> None:
    for bound in ("-3", "0"):
        for suite in ("chern-lemma", "von-staudt", "all"):
            code, text = _run(["verify", suite, "--max-g", bound])
            assert code == 1
            assert text == ""
            err = capsys.readouterr().err
            assert err == "tautorder: error: max_g must be positive\n"
    # without an override the listed-case suites run every listed case
    assert all(c.ok for c in run_suite("cyclotomic"))
    assert _run(["verify", "symplectic"])[0] == 0


def test_verify_max_g_bounds_the_listed_cases() -> None:
    # listed pairs of genus <= N and von-Staudt indices m <= 2N, in list order
    expected = {
        ("cyclotomic", "1"): ["cyclotomic l=3 k=1", "cyclotomic l=2 k=3"],
        ("cyclotomic", "2"): [
            "cyclotomic l=3 k=1",
            "cyclotomic l=5 k=1",
            "cyclotomic l=2 k=3",
            "cyclotomic l=2 k=4",
        ],
        ("symplectic", "1"): ["symplectic l=3 k=1"],
        ("symplectic", "2"): ["symplectic l=3 k=1", "symplectic l=5 k=1"],
        ("von-staudt", "1"): ["von-staudt m=2"],
        ("von-staudt", "2"): ["von-staudt m=2", "von-staudt m=4"],
    }
    for (suite, bound), names in expected.items():
        code, text = _run(["verify", suite, "--max-g", bound])
        assert code == 0
        lines = text.splitlines()
        assert lines[:-1] == [f"PASS {name}" for name in names]
        assert lines[-1] == f"{len(names)} passed, 0 failed"
    unbounded = {"cyclotomic": 6, "symplectic": 4, "von-staudt": 30}
    for suite, count in unbounded.items():
        assert len(run_suite(suite)) == count
        assert len(run_suite(suite, max_g=100)) == count


def test_rendering_failure_exits_one_with_one_line(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    monkeypatch.setattr("tautorder.cli.hurwitz_genus", lambda l, k: 0.5)
    code, text = _run(["hurwitz", "3", "2"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == "tautorder: error: floats are forbidden in output\n"


def test_unknown_output_type_exits_one_with_one_line(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    # a value the writer does not know is refused by its type, not written with str()
    monkeypatch.setattr("tautorder.cli.hurwitz_genus", lambda l, k: 1.5j)
    code, text = _run(["hurwitz", "3", "2"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == "tautorder: error: cannot write a value of type complex\n"


def test_large_prime_moduli_answer_at_once() -> None:
    # both trial-divided up to 10^9 before the primality test stopped them
    p = 10**18 + 3
    start = time.perf_counter()
    code, text = _run(["koblitz", "2", str(p)])
    assert code == 0
    assert text == f"g = 2\np = {p}\nvalue = {(p - 1) * (p * p - 1)}\n"
    code, text = _run(["sp-order", "2", str(p), "--format", "json"])
    assert code == 0
    order = p**4 * (p**2 - 1) * (p**4 - 1)
    assert json.loads(text)["result"]["local_factors"] == {str(p): str(order)}
    assert time.perf_counter() - start < 1.0


def test_product_of_two_primes_near_a_billion_answers_at_once() -> None:
    # 999999937 * 1000000007: about 5 * 10^8 trial divisions, a few 10^4 rho steps
    p, q = 999999937, 1000000007
    start = time.perf_counter()
    code, text = _run(["sp-order", "1", str(p * q)])
    assert time.perf_counter() - start < 1.0
    assert code == 0
    local = {r: r * (r * r - 1) for r in (p, q)}
    assert text == (
        f"g = 1\nn = 999999943999999559\norder = {local[p] * local[q]}\n"
        f"local_factors.{p} = {local[p]}\nlocal_factors.{q} = {local[q]}\n"
    )


# verify all overflows the stdout buffer while writing; ng 3 reaches the pipe
# only when flushed
@pytest.mark.parametrize("argv", [["verify", "all"], ["ng", "3"]], ids=" ".join)
def test_closed_stdout_exits_one_without_traceback(argv: list[str], tmp_path) -> None:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as a shell pipe has it
    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tautorder.cli", *argv],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
        proc.stdout.close()  # the reader is gone before the first write
        code = proc.wait(timeout=60)
        err.seek(0)
        stderr = err.read()
    assert code == 1
    assert "Traceback" not in stderr
    assert stderr == ""


# the stdlib writers are the oracle of cli's layout and plain-text fast paths: json
# and csv are imported only here
_encoder_settings = settings(max_examples=150, derandomize=True, database=None, deadline=None)

# every kind of character an encoder tells apart: the short json escapes, other
# control characters, U+007F, non-ASCII and astral characters, lone surrogates,
# and the four that csv may quote for ("\r" only from Python 3.13 on)
_TRICKY = '"\\\b\f\n\r\t\x00\x1f\x7f\x80\xe9\u2028\ud800\udfff\uffff\U0001f600\U0010ffff,az ~'
_text = st.lists(st.one_of(st.sampled_from(_TRICKY), st.characters()), max_size=6).map("".join)
_trees = st.recursive(
    st.one_of(st.none(), st.booleans(), _text),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(_text, kids, max_size=4)),
    max_leaves=12,
)


@_encoder_settings
@given(tree=_trees)
@example(tree={"": [], "b": {}, '"\\': ["\x00\x1f\x7f", "\xe9\U0001f600", "\ud800", True, None]})
def test_json_encoder_matches_the_stdlib(tree) -> None:
    assert _json(tree) == json.dumps(tree, sort_keys=True, indent=2)


def test_json_encoder_matches_the_stdlib_on_a_large_envelope() -> None:
    code, text = _run(["prop", "300", "--format", "json"])
    assert code == 0 and len(text) > 200000
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@_encoder_settings
@given(rows=st.lists(st.tuples(_text, _text), max_size=5))
@example(rows=[("", ""), ("a,b", 'say "x"'), ("two\nlines", "cr\r")])
def test_csv_encoder_matches_the_stdlib(rows: list[tuple[str, str]]) -> None:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert _csv(rows) == out.getvalue()


@pytest.mark.parametrize("field", ["local 24, gcd oracle 24", "cr\r"])
def test_a_csv_field_that_may_need_a_quote_goes_to_the_c_writer(field: str) -> None:
    # the fast path joins plain rows itself; a "," or a "\r" (which Python 3.13
    # quotes and earlier versions leave bare) hands every row to csv.writer's _csv
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    rows = [("checks[0].detail", field), ("checks[0].ok", "true")]
    probe = (
        "import sys, tautorder.cli\n"
        "loaded = '_csv' in sys.modules\n"
        f"text = tautorder.cli._csv({rows!r})\n"
        "print(repr((loaded, '_csv' in sys.modules, text)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    assert proc.stdout == repr((False, True, out.getvalue())) + "\n"


def test_cold_import_loads_only_what_a_call_uses() -> None:
    # module names, not timings, so this cannot flake on a busy machine:
    # dataclasses brings inspect, ast and dis; the cache and sieve locks come from
    # _thread, not threading; run lifts the digit limit in its own try/finally, not
    # through contextlib; no lru_cache brings functools and collections, and only a
    # closed stdout brings os.  fractions (with decimal, numbers and re) loads only where
    # a Fraction is built; the one argv parser needs no argparse (with gettext and
    # re), not even for help or a usage error; cli lays json and csv out itself, so
    # no call loads those modules, nor the re and enum they bring, and a call that
    # builds no Fraction loads no re in any format; plain text needs no escape and
    # no quote, so these calls load neither C encoder, _json nor _csv
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import io, sys, tautorder.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "calls = [['ng', '12'], ['hurwitz', '3', '2'], ['sp-order', '2', '3'],\n"
        "         ['verify', 'newton']]\n"
        "calls += [argv + ['--format', fmt] for argv in calls for fmt in ('json', 'csv')]\n"
        "for argv in calls + [['-h'], ['ng', '--help']]:\n"
        "    assert tautorder.cli.run(argv, out=io.StringIO()) == 0\n"
        "for argv in ([], ['ng'], ['ng', '+3'], ['ng', '3', '--form', 'json']):\n"
        "    assert tautorder.cli.run(argv, out=io.StringIO()) == 1\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    imported, after_calls = (set(line.split()) for line in proc.stdout.splitlines())
    # every engine module stays in the import, so a tracer installed after it sees them all
    engine = {f"tautorder.{path.stem}" for path in Path(src, "tautorder").glob("*.py")}
    engine.discard("tautorder.__init__")
    assert len(engine) == 8 and engine <= imported, sorted(engine - imported)
    unused = {"dataclasses", "inspect", "ast", "dis", "threading", "contextlib"}
    unused |= {"json", "csv", "enum", "functools", "collections", "os", "_json", "_csv"}
    lazy = {"fractions", "decimal", "numbers", "argparse", "gettext", "re"}
    assert imported.isdisjoint(unused | lazy), sorted(imported & (unused | lazy))
    assert after_calls.isdisjoint(unused | lazy), sorted(after_calls & (unused | lazy))

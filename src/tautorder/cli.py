"""Command-line front end.

Every command accepts --format text|json|csv.  All output is exact: integers
are rendered as decimal strings, rationals as num/den (text, csv) or
{"num": ..., "den": ...} objects (json), and no float is ever produced.
JSON output is byte-deterministic (sorted keys, fixed separators).

Exit codes: 0 success, 1 usage or invalid input, 2 a verify suite found a
violated identity.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from fractions import Fraction

from .bernoulli_zeta import bernoulli, proportionality, zeta_neg
from .finite_field_checks import hurwitz_genus
from .group_orders import degree_integrality, koblitz_coefficient, sp_order
from .torsion_orders import (
    boundary_coefficient,
    ng_local,
    ng_oracle,
    torsion_report,
)
from .verify import SUITE_NAMES, run_suite

__all__ = ["build_parser", "run", "main"]

PRIME_COUNT_ENV = "TAUTORDER_PRIME_COUNT"
_DEFAULT_PRIME_COUNT = 100
_DEFAULT_WINDOW = 50


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_prime_count() -> int:
    raw = os.environ.get(PRIME_COUNT_ENV)
    if raw is None:
        return _DEFAULT_PRIME_COUNT
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{PRIME_COUNT_ENV} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{PRIME_COUNT_ENV} must be at least 2")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tautorder", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--format",
            choices=["text", "json", "csv"],
            default="text",
            help="output format (default text)",
        )
        return p

    p = add("ng", "torsion invariant n_g with its prime factorization")
    p.add_argument("g", type=int)
    p.add_argument("--oracle", action="store_true", help="use the gcd oracle route")
    p.add_argument("--prime-count", type=int, default=None)
    p.add_argument("--window", type=int, default=_DEFAULT_WINDOW)

    p = add("bernoulli", "Bernoulli number B_m")
    p.add_argument("m", type=int)

    p = add("zeta", "zeta value at 1-2g")
    p.add_argument("g", type=int)

    p = add("prop", "proportionality constant for index g")
    p.add_argument("g", type=int)

    p = add("bounds", "torsion order bounds for index g")
    p.add_argument("g", type=int)

    p = add("sp-order", "order of Sp(2g, Z/n)")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)

    p = add("degree", "integrality of #Sp(2g, Z/n) times |proportionality|")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)

    p = add("koblitz", "supersingular multiplicity prod (p^i - 1)")
    p.add_argument("g", type=int)
    p.add_argument("p", type=int)

    p = add("boundary", "boundary coefficient (-1)^g / zeta(1-2g)")
    p.add_argument("g", type=int)

    p = add("hurwitz", "genus of the l^k cyclic cover")
    p.add_argument("l", type=int)
    p.add_argument("k", type=int)

    p = add("verify", "run an identity verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--max-g", type=int, default=None, dest="max_g")

    return parser


# -- payload shaping -------------------------------------------------------


@contextmanager
def _unlimited_int_str():
    """Lift Python's int-to-str digit limit (4300 by default) while rendering,
    so every integer is printed in full as promised."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Pythons without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _payload(value):
    """Exact, json-ready structure: ints as decimal strings, rationals as
    {num, den}, never a float."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if value is None:
        return None
    if is_dataclass(value):
        return {f.name: _payload(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _payload(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_payload(v) for v in value]
    if isinstance(value, float):
        raise TypeError("floats are forbidden in output")
    return str(value)


def _scalar_text(value) -> str:
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return f"{value['num']}/{value['den']}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


def _flatten(payload, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(payload, dict) and set(payload) == {"num", "den"}:
        return [(prefix or "value", _scalar_text(payload))]
    if isinstance(payload, dict):
        rows = []
        for key, value in payload.items():
            rows.extend(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
        return rows
    if isinstance(payload, list):
        rows = []
        for i, value in enumerate(payload):
            rows.extend(_flatten(value, f"{prefix}[{i}]"))
        return rows
    return [(prefix or "value", _scalar_text(payload))]


def _emit(envelope: dict, fmt: str, out) -> None:
    if fmt == "json":
        print(json.dumps(envelope, sort_keys=True, indent=2), file=out)
        return
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in _flatten(envelope["result"]):
            writer.writerow([key, value])
        out.write(buf.getvalue())
        return
    for key, value in _flatten(envelope["result"]):
        print(f"{key} = {value}", file=out)


# -- command handlers ------------------------------------------------------


def _cmd_ng(args) -> dict:
    if args.oracle:
        prime_count = (
            args.prime_count if args.prime_count is not None else _default_prime_count()
        )
        value = ng_oracle(args.g, prime_count, args.window)
        return {
            "route": "oracle",
            "g": args.g,
            "value": value,
            "prime_count": prime_count,
            "stabilization_window": args.window,
        }
    dec = ng_local(args.g)
    return {
        "route": "local",
        "g": args.g,
        "value": dec.value,
        "factors": {f.prime: f.exponent for f in dec.factors},
    }


def _cmd_verify(args, fmt: str, out) -> int:
    checks = run_suite(args.suite, args.max_g, _default_prime_count(), _DEFAULT_WINDOW)
    failed = [c for c in checks if not c.ok]
    result = {
        "suite": args.suite,
        "checks": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
        ],
        "passed": len(checks) - len(failed),
        "failed": len(failed),
    }
    envelope = {
        "command": "verify",
        "format": fmt,
        "parameters": {"suite": args.suite, "max_g": args.max_g},
        "result": result,
    }
    if fmt == "text":
        for c in checks:
            status = "PASS" if c.ok else "FAIL"
            line = f"{status} {c.name}"
            if not c.ok:
                line += f" ({c.detail})"
            print(line, file=out)
        print(f"{len(checks) - len(failed)} passed, {len(failed)} failed", file=out)
    else:
        envelope["parameters"] = _payload(envelope["parameters"])
        envelope["result"] = _payload(result)
        _emit(envelope, fmt, out)
    return 2 if failed else 0


def run(argv=None, out=None) -> int:
    """Parse and execute; returns the exit code instead of raising SystemExit."""
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0

    try:
        if args.command == "verify":
            return _cmd_verify(args, args.format, out)

        if args.command == "ng":
            params = {
                "g": args.g,
                "oracle": args.oracle,
                "prime_count": args.prime_count,
                "window": args.window,
            }
            result = _cmd_ng(args)
        elif args.command == "bernoulli":
            params = {"m": args.m}
            result = {"m": args.m, "value": bernoulli(args.m)}
        elif args.command == "zeta":
            params = {"g": args.g}
            result = {"g": args.g, "value": zeta_neg(args.g)}
        elif args.command == "prop":
            params = {"g": args.g}
            result = proportionality(args.g)
        elif args.command == "bounds":
            params = {"g": args.g}
            result = torsion_report(args.g)
        elif args.command == "sp-order":
            params = {"g": args.g, "n": args.n}
            result = sp_order(args.g, args.n)
        elif args.command == "degree":
            params = {"g": args.g, "n": args.n}
            result = degree_integrality(args.g, args.n)
        elif args.command == "koblitz":
            params = {"g": args.g, "p": args.p}
            result = {"g": args.g, "p": args.p, "value": koblitz_coefficient(args.g, args.p)}
        elif args.command == "boundary":
            params = {"g": args.g}
            result = {"g": args.g, "value": boundary_coefficient(args.g)}
        elif args.command == "hurwitz":
            params = {"l": args.l, "k": args.k}
            result = {"l": args.l, "k": args.k, "genus": hurwitz_genus(args.l, args.k)}
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        with _unlimited_int_str():
            envelope = {
                "command": args.command,
                "format": args.format,
                "parameters": _payload(params),
                "result": _payload(result),
            }
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"tautorder: error: {exc}", file=sys.stderr)
        return 1
    _emit(envelope, args.format, out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

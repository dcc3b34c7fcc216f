"""Command-line front end.

Every command accepts --format text|json|csv.  All output is exact: integers
are rendered as decimal strings, rationals as num/den (text, csv) or
{"num": ..., "den": ...} objects (json), and no float is ever produced.
JSON output is byte-deterministic: byte for byte json.dumps(envelope,
sort_keys=True, indent=2) plus a newline; CSV output is byte for byte what
csv.writer writes with a "\n" line terminator.  The CLI writes plain text itself
and leaves every escape and quote to the running Python's json and csv C encoders.

Arguments follow the command in any order: options by their full names,
integers as ASCII digits with an optional leading "-".  -h or --help prints help.

Exit codes: 0 success, 1 usage or invalid input (or a closed stdout), 2 a
verify suite found a violated identity.
"""
from __future__ import annotations

import sys

from .bernoulli_zeta import bernoulli, proportionality, zeta_neg
from .exact_arith import _Record, _is_rational
from .finite_field_checks import hurwitz_genus
from .group_orders import degree_integrality, koblitz_coefficient, sp_order
from .torsion_orders import (
    _ORACLE_PRIME_COUNT,
    _ORACLE_WINDOW,
    boundary_coefficient,
    ng_local,
    ng_oracle,
    torsion_report,
)
from .verify import SUITE_NAMES, run_suite

__all__ = ["run", "main"]


def _ng(g: int, oracle: bool) -> dict:
    if not oracle:
        dec = ng_local(g)
        factors = {f.prime: f.exponent for f in dec.factors}
        return {"route": "local", "g": g, "value": dec.value, "factors": factors}
    return {"route": "oracle", "g": g, "value": ng_oracle(g), "prime_count": _ORACLE_PRIME_COUNT,
            "stabilization_window": _ORACLE_WINDOW}


def _verify(suite: str, max_g: "int | None") -> dict:
    checks = run_suite(suite, max_g)
    failed = sum(not c.ok for c in checks)
    return {
        "suite": suite,
        # dicts, not CheckResult: _payload sorts dict keys, the csv order relies on it
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks],
        "passed": len(checks) - failed,
        "failed": failed,
    }


# subcommand -> (help, arguments, compute): arguments maps every argument but --format,
# positionals first, to (default, kind), kind a tuple of choices, int, or bool for a flag;
# compute takes them as keywords, and the lambdas look library names up when called.
_INT = (None, int)
_COMMANDS = {
    "ng": ("torsion invariant n_g with its prime factorization",
           {"g": _INT, "--oracle": (False, bool)}, _ng),
    "bernoulli": ("Bernoulli number B_m", {"m": _INT}, lambda m: {"m": m, "value": bernoulli(m)}),
    "zeta": ("zeta value at 1-2g", {"g": _INT}, lambda g: {"g": g, "value": zeta_neg(g)}),
    "prop": ("proportionality constant for index g", {"g": _INT}, lambda g: proportionality(g)),
    "bounds": ("torsion order bounds for index g", {"g": _INT}, lambda g: torsion_report(g)),
    "sp-order": ("order of Sp(2g, Z/n)", {"g": _INT, "n": _INT}, lambda g, n: sp_order(g, n)),
    "degree": ("integrality of #Sp(2g, Z/n) times |proportionality|", {"g": _INT, "n": _INT},
               lambda g, n: degree_integrality(g, n)),
    "koblitz": ("supersingular multiplicity prod (p^i - 1)", {"g": _INT, "p": _INT},
                lambda g, p: {"g": g, "p": p, "value": koblitz_coefficient(g, p)}),
    "boundary": ("boundary coefficient (-1)^g / zeta(1-2g)", {"g": _INT},
                 lambda g: {"g": g, "value": boundary_coefficient(g)}),
    "hurwitz": ("genus of the l^k cyclic cover", {"l": _INT, "k": _INT},
                lambda l, k: {"l": l, "k": k, "genus": hurwitz_genus(l, k)}),
    "verify": ("run an identity verification suite",
               {"suite": (None, tuple(SUITE_NAMES)), "--max-g": _INT}, _verify),
}


def _arguments(command: str) -> dict:
    """name -> (default, kind) of every argument `command` takes, positionals first."""
    return _COMMANDS[command][1] | {"--format": ("text", ("text", "json", "csv"))}


def _help(command: str) -> str:
    """The module docstring, then the usage and help lines of `command`, else of all."""
    lines = [__doc__] if __doc__ else []  # python -OO drops the docstring
    for name in [c for c in _COMMANDS if c == command] or _COMMANDS:
        words = [f"usage: tautorder {name}"]
        for arg, (_, kind) in _arguments(name).items():
            value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else "N"
            option = f"[{arg}]" if kind is bool else f"[{arg} {value}]"
            words.append(option if arg[0] == "-" else arg if kind is int else value)
        lines += [" ".join(words), f"  {_COMMANDS[name][0]}"]
    return "\n".join(lines) + "\n"


def _fast_parse(argv) -> dict:
    """The one argv grammar: a command, then its arguments in any order, options by
    exact name, integers as ASCII digits with an optional leading "-".  Any other argv
    raises a one-line ValueError, or TypeError for a token not a str, naming the token."""
    if wrong := [token for token in argv if not isinstance(token, str)]:
        raise TypeError(f"argument {wrong[0]!r} must be a str, not {type(wrong[0]).__name__}")
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "no command given")
    command, tokens, arguments = argv[0], iter(argv[1:]), _arguments(argv[0])
    positionals = [arg for arg in arguments if arg[0] != "-"]
    params = {"command": command} | {a: d for a, (d, _) in arguments.items() if a[0] == "-"}
    for token in tokens:
        if token.startswith("--"):  # every option name does, and no integer or choice
            if token not in arguments:
                raise ValueError(f"{command} has no option {token!r}")
            arg, value = token, True if arguments[token][1] is bool else next(tokens, None)
            if value is None:
                raise ValueError(f"{arg} needs a value")
        elif positionals:
            arg, value = positionals.pop(0), token
        else:
            raise ValueError(f"unexpected argument {token!r}")
        kind = arguments[arg][1]
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{arg} must be one of {', '.join(kind)}; got {value!r}")
        if kind is int and not (value.isascii() and value.removeprefix("-").isdigit()):
            raise ValueError(f"{arg} must be an integer; got {value!r}")
        try:
            params[arg] = int(value) if kind is int else value
        except ValueError:  # past the int-to-str digit limit, 4300 by default
            limit, digits = sys.get_int_max_str_digits(), len(value.removeprefix("-"))
            raise ValueError(f"{arg} must have at most {limit} digits; got {digits}") from None
    if positionals:
        raise ValueError(f"{command} needs {positionals[0]}")
    return {a.lstrip("-").replace("-", "_"): v for a, v in params.items()}


# -- payload shaping -------------------------------------------------------


def _decimal(n: int, digits: dict) -> str:
    # int-to-str is quadratic, and a result can repeat a magnitude (prop's signed and
    # absolute values): `digits` keeps each magnitude's decimal string for one call
    if abs(n) not in digits:
        digits[abs(n)] = str(abs(n))
    return "-" * (n < 0) + digits[abs(n)]


def _payload(value, digits: dict):
    """Exact, json-ready structure: ints as decimal strings, rationals as
    {num, den}, never a float: a value of any other type is refused with TypeError."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if _is_rational(value):
        num, den = _decimal(value.numerator, digits), _decimal(value.denominator, digits)
        return num if den == "1" else {"num": num, "den": den}
    if isinstance(value, _Record):
        return {name: _payload(getattr(value, name), digits) for name in value._fields}
    if isinstance(value, dict):
        return {str(k): _payload(v, digits) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_payload(v, digits) for v in value]
    if isinstance(value, float):
        raise TypeError("floats are forbidden in output")
    raise TypeError(f"cannot write a value of type {type(value).__name__}")


def _scalar_text(value) -> str:
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return f"{value['num']}/{value['den']}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _flatten(payload, prefix: str = "") -> list[tuple[str, str]]:
    if isinstance(payload, dict) and set(payload) != {"num", "den"}:
        items = ((f"{prefix}.{k}" if prefix else str(k), v) for k, v in payload.items())
    elif isinstance(payload, list):
        items = ((f"{prefix}[{i}]", v) for i, v in enumerate(payload))
    else:
        return [(prefix or "value", _scalar_text(payload))]
    return [row for key, value in items for row in _flatten(value, key)]


# json and csv load re and enum; so plain text is written here, and only a string that
# needs an escape or a quote loads _json or _csv, the C encoder json.dumps or csv.writer calls
def _json_string(s: str) -> str:
    """s quoted as json.dumps quotes it with ensure_ascii."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    from _json import encode_basestring_ascii
    return encode_basestring_ascii(s)


def _json(value, newline: str = "\n") -> str:
    """A payload (dicts with str keys, lists, str, bool, None) as
    json.dumps(value, sort_keys=True, indent=2) writes it."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    inner = newline + "  "
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{_json_string(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
    else:
        brackets, items = "[]", [_json(v, inner) for v in value]
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _csv(pairs) -> str:
    """(key, value) rows of text as csv.writer(out, lineterminator="\n") writes them."""
    text = "".join(f"{key},{value}\n" for key, value in pairs)
    # rows of plain fields hold one "," and one "\n" each, and no '"' or "\r"
    if text.count(",") == text.count("\n") == len(pairs) and '"' not in text and "\r" not in text:
        return text
    from _csv import writer
    from io import StringIO  # loaded at start-up, for sys.stdout
    out = StringIO()
    writer(out, lineterminator="\n").writerows(pairs)
    return out.getvalue()


def _render(envelope: dict) -> str:
    fmt, result = envelope["format"], envelope["result"]
    if fmt == "json":
        return _json(envelope) + "\n"
    if fmt == "csv":
        return _csv(_flatten(result))
    if envelope["command"] == "verify":
        lines = [
            f"PASS {c['name']}" if c["ok"] else f"FAIL {c['name']} ({c['detail']})"
            for c in result["checks"]
        ]
        lines.append(f"{result['passed']} passed, {result['failed']} failed")
    else:
        lines = [f"{key} = {value}" for key, value in _flatten(result)]
    return "".join(line + "\n" for line in lines)


def run(argv=None, out=None) -> int:
    """Parse and execute; returns the exit code instead of raising SystemExit."""
    out = sys.stdout if out is None else out
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        out.write(_help(argv[0]))
        out.flush()
        return 0
    try:
        params = _fast_parse(argv)
        command, fmt = params.pop("command"), params.pop("format")
        result = _COMMANDS[command][2](**params)
        envelope = {"command": command, "format": fmt}
        # lift the int-to-str digit limit (4300 by default) so every integer prints in full
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 where there is no limit
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            digits: dict = {}  # lives for this call only
            envelope.update(parameters=_payload(params, digits), result=_payload(result, digits))
            out.write(_render(envelope))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        out.flush()
    except (ValueError, TypeError, ArithmeticError, MemoryError) as exc:
        print(f"tautorder: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 2 if command == "verify" and result["failed"] else 0


def main() -> None:
    try:
        code = run()
    except BrokenPipeError:
        # the reader closed stdout; send the interpreter's final flush to
        # devnull so it raises nothing either (the recipe in the signal docs)
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()

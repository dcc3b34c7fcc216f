"""The one argv grammar, `cli._fast_parse`: every well-formed argv of the
totality test reads and prints the same wherever its options stand, every
other spelling is a one-line usage error that names the token at fault, and
-h or --help anywhere prints the help built from the command table.  On any argv,
mangled or not, the grammar either refuses it in one line or reads exactly the
namespace that argparse, built from the same table, reads."""
from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_totality import _argv, _mangled

from tautorder import cli
from tautorder.cli import _COMMANDS, _arguments, _fast_parse, run
from tautorder.verify import SUITE_NAMES

_settings = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@st.composite
def _canonical_and_reordered(draw) -> tuple[list[str], list[str]]:
    # a well-formed argv, and the same with its options moved anywhere, each next to
    # its value; the positionals keep their order among themselves
    command, *rest = canonical = draw(_argv())
    units = []
    while rest:
        take = 2 if rest[0].startswith("--") and rest[0] != "--oracle" else 1
        units.append(rest[:take])
        rest = rest[take:]
    positionals = iter([unit for unit in units if not unit[0].startswith("--")])
    moved = [u if u[0].startswith("--") else next(positionals) for u in draw(st.permutations(units))]
    return canonical, [command] + [token for unit in moved for token in unit]


@_settings
@given(pair=_canonical_and_reordered())
def test_fast_path_reads_every_well_formed_argv(pair: tuple[list[str], list[str]]) -> None:
    canonical, reordered = pair
    assert _fast_parse(reordered) == _fast_parse(canonical), reordered
    assert _call(reordered) == _call(canonical), reordered


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_row_declares_its_arguments_in_the_one_shape(command: str) -> None:
    # (help, arguments, compute); arguments maps each name but --format, positionals
    # first, to (default, kind): kind is a tuple of str choices, int, or bool for a
    # flag, which is an option and off by default
    help_text, arguments, compute = _COMMANDS[command]
    assert isinstance(help_text, str) and isinstance(arguments, dict) and callable(compute)
    assert "--format" not in arguments
    options = [arg for arg in arguments if arg[0] == "-"]
    assert list(arguments)[len(arguments) - len(options):] == options, "positionals first"
    for arg, (default, kind) in arguments.items():
        assert arg.startswith("--") or arg[0] != "-", arg  # the grammar reads "--" names only
        if kind is bool:
            assert arg.startswith("--") and default is False, arg
        elif kind is not int:
            assert isinstance(kind, tuple) and kind, arg
            assert all(isinstance(choice, str) for choice in kind), arg


def _argparse_namespace(argv: list[str]) -> "dict | None":
    # an independent reading of the command table; None for help or a usage error
    import argparse
    parser = argparse.ArgumentParser(prog="tautorder")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for arg, (default, kind) in _arguments(name).items():
            if kind is bool:
                p.add_argument(arg, action="store_true", default=default)
            else:  # argparse requires a positional, so it never reads a positional's default
                keywords = dict(type=int) if kind is int else dict(choices=kind)
                p.add_argument(arg, default=default, **keywords)
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


_reordered = _canonical_and_reordered().map(lambda pair: pair[1])


@_settings
@given(argv=_mangled(_reordered, min_edits=1, largest=30))
def test_fast_path_declines_or_agrees_with_argparse(argv: list[str]) -> None:
    try:
        fast = _fast_parse(argv)
    except ValueError as refusal:
        assert str(refusal) and "\n" not in str(refusal), argv
    else:
        assert fast == _argparse_namespace(argv), argv


# spellings another grammar may read (an abbreviation, --opt=value, "+12", "1_2",
# " 12", Arabic-Indic digits, "--"), help, and usage errors: the grammar refuses
# each in one line, and a call without -h prints that line alone and exits 1
@pytest.mark.parametrize("argv", [
    [], ["-h"], ["ng", "-h"], ["frobnicate", "3"], ["ng"], ["ng", "3", "4"], ["sp-order", "3"],
    ["ng", "3", "--form", "json"], ["ng", "3", "--format=json"], ["ng", "3", "--orac"],
    ["ng", "1_2"], ["ng", "+12"], ["ng", " 12"], ["ng", "١٢"], ["ng", "9" * 5000],
    ["ng", "3", "--format", "yaml"], ["ng", "3", "--window"], ["ng", "3", "--window", "--oracle"],
    ["ng", "g", "3"], ["ng", "5", "g", "3"], ["verify", "all", "suite", "all"],
    ["verify", "no-such-suite"],
    ["--format", "json", "ng", "3"], ["bernoulli", "12", "--oracle"], ["ng", "--", "3"],
])
def test_fast_path_declines_every_other_spelling(argv: list[str]) -> None:
    with pytest.raises(ValueError) as refusal:
        _fast_parse(argv)
    message = str(refusal.value)
    assert message and "\n" not in message
    if "-h" not in argv:  # run reads help before the grammar
        assert _call(argv) == (1, "", f"tautorder: error: {message}\n")


_SUITES = ", ".join(SUITE_NAMES)


@pytest.mark.parametrize(("argv", "message"), [
    ([], "no command given"),
    (["frobnicate", "3"], "unknown command 'frobnicate'"),
    (["--format", "json", "ng", "3"], "unknown command '--format'"),
    (["ng"], "ng needs g"),
    (["sp-order", "3"], "sp-order needs n"),
    (["verify"], "verify needs suite"),
    (["ng", "3", "4"], "unexpected argument '4'"),
    (["ng", "3", "--form", "json"], "ng has no option '--form'"),
    (["ng", "3", "--format=json"], "ng has no option '--format=json'"),
    (["ng", "--", "3"], "ng has no option '--'"),
    (["bernoulli", "12", "--oracle"], "bernoulli has no option '--oracle'"),
    (["ng", "3", "--oracle", "--prime-count", "10"], "ng has no option '--prime-count'"),
    (["ng", "3", "--window", "50"], "ng has no option '--window'"),
    (["ng", "+12"], "g must be an integer; got '+12'"),
    (["ng", "1_2"], "g must be an integer; got '1_2'"),
    (["ng", " 12"], "g must be an integer; got ' 12'"),
    (["ng", "١٢"], "g must be an integer; got '١٢'"),
    (["hurwitz", "3", "-"], "k must be an integer; got '-'"),
    (["ng", "3", "--format", "yaml"], "--format must be one of text, json, csv; got 'yaml'"),
    (["ng", "3", "--format"], "--format needs a value"),
    (["verify", "all", "--max-g"], "--max-g needs a value"),
    (["verify", "all", "--max-g", "x"], "--max-g must be an integer; got 'x'"),
    (["verify", "no-such-suite"], f"suite must be one of {_SUITES}; got 'no-such-suite'"),
    # a value the library refuses, in the library's words
    (["bernoulli", "-1"], "m must be nonnegative"),
    # a token that is not a str, as a caller of run may pass
    (["ng", 3], "argument 3 must be a str, not int"),
    # past Python's int-to-str digit limit, 4300 by default
    pytest.param(["ng", "9" * 5000], "g must have at most 4300 digits; got 5000",
                 id="['ng', 5000 nines]"),
    pytest.param(["hurwitz", "3", "-" + "9" * 4301], "k must have at most 4300 digits; got 4301",
                 id="['hurwitz', '3', minus 4301 nines]"),
], ids=repr)
def test_each_usage_error_names_its_token(argv: list[str], message: str) -> None:
    assert _call(argv) == (1, "", f"tautorder: error: {message}\n")


_FORMAT = "[--format {text,json,csv}]"
# the usage line of each command, in table order, written out by hand
_USAGE = {
    "ng": f"ng g [--oracle] {_FORMAT}",
    "bernoulli": f"bernoulli m {_FORMAT}",
    "zeta": f"zeta g {_FORMAT}",
    "prop": f"prop g {_FORMAT}",
    "bounds": f"bounds g {_FORMAT}",
    "sp-order": f"sp-order g n {_FORMAT}",
    "degree": f"degree g n {_FORMAT}",
    "koblitz": f"koblitz g p {_FORMAT}",
    "boundary": f"boundary g {_FORMAT}",
    "hurwitz": f"hurwitz l k {_FORMAT}",
    "verify": "verify {" + ",".join(SUITE_NAMES) + "} [--max-g N] " + _FORMAT,
}


def _help_for(commands) -> str:
    lines = [f"usage: tautorder {_USAGE[c]}\n  {_COMMANDS[c][0]}\n" for c in commands]
    return (cli.__doc__ + "\n" if cli.__doc__ else "") + "".join(lines)


# a first token that is not a str, even an unhashable one, reads as no command
@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["frobnicate", "-h"], ["3", "--help"], [3, "-h"], [[1], "--help"],
])
def test_help_lists_every_command(argv: list[str]) -> None:
    assert list(_USAGE) == list(_COMMANDS)
    assert _call(argv) == (0, _help_for(_COMMANDS), "")


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_command_help_lists_its_arguments(command: str) -> None:
    assert _call([command, "-h"]) == (0, _help_for([command]), "")
    assert _call([command, "--help"]) == (0, _help_for([command]), "")


def test_help_without_the_docstring(monkeypatch: pytest.MonkeyPatch) -> None:
    # python -OO strips the module docstring; the help keeps its usage lines
    monkeypatch.setattr(cli, "__doc__", None)
    assert _call(["-h"]) == (0, _help_for(_COMMANDS), "")
    assert _call(["ng", "-h"]) == (0, _help_for(["ng"]), "")


@pytest.mark.parametrize("argv", [
    ["ng", "3", "--format", "json", "-h"], ["ng", "--help", "3"], ["ng", "+3", "--form", "-h"],
], ids=" ".join)
def test_help_anywhere_wins_over_the_rest(argv: list[str]) -> None:
    assert _call(argv) == (0, _help_for(["ng"]), "")

"""The argv fast path against argparse: `_fast_parse` reads every well-formed
argv of the totality test, in any order of its arguments, and on any argv it
accepts, mangled or not, its answer is exactly argparse's namespace.
Everything it declines goes to argparse, so help and usage errors keep
argparse's own text."""
from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli_totality import _argv

from tautorder.cli import _fast_parse, build_parser

# spellings argparse may read but the fast path leaves to it, unknown commands
# and options, and tokens that are well-formed only in another place
_ADVERSARIAL = [
    "--form", "--format=json", "--orac", "--window=3", "--max", "-h", "--help", "-", "--",
    "1_2", "+12", " 12", "12 ", "١٢", "1e3", "0x10", "", "-0", "007", "-1_0", "9" * 5000,
    "frobnicate", "NG", "text", "json", "yaml", "all", "chern-lemma", "g", "n", "suite",
    "--format", "--oracle", "--prime-count", "--window", "--max-g",
]
_settings = settings(max_examples=300, derandomize=True, database=None, deadline=None)


def _namespace(argv: list[str]) -> "dict | None":
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:  # help, or a usage error
        return None


@st.composite
def _reordered(draw) -> list[str]:
    # a well-formed argv with its arguments in any order, each option next to its value
    command, *rest = draw(_argv())
    units = []
    while rest:
        take = 2 if rest[0].startswith("--") and rest[0] != "--oracle" else 1
        units.append(rest[:take])
        rest = rest[take:]
    return [command] + [token for unit in draw(st.permutations(units)) for token in unit]


@st.composite
def _mangled(draw) -> list[str]:
    argv = draw(_reordered())
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["insert", "replace", "drop", "extra", "options first"]))
        at = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(_ADVERSARIAL))
        if edit == "insert":
            argv.insert(at, token)
        elif edit == "replace" and at < len(argv):
            argv[at] = token
        elif edit == "drop" and at < len(argv):
            del argv[at]
        elif edit == "extra":
            argv.insert(at, str(draw(st.integers(-3, 30))))
        elif edit == "options first":  # the last two tokens, often an option and its value
            argv = argv[-2:] + argv[:-2]
    return argv


@_settings
@given(argv=_reordered())
def test_fast_path_reads_every_well_formed_argv(argv: list[str]) -> None:
    fast = _fast_parse(argv)
    assert fast is not None, argv
    assert fast == _namespace(argv)


@_settings
@given(argv=_mangled())
def test_fast_path_declines_or_agrees_with_argparse(argv: list[str]) -> None:
    fast = _fast_parse(argv)
    assert fast is None or fast == _namespace(argv), argv


# argparse reads some of these (an abbreviation, --opt=value, "+12", "1_2", " 12",
# Arabic-Indic digits) and refuses the rest; the fast path declines them all
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
    assert _fast_parse(argv) is None

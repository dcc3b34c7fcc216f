"""Totality of the command line: random argv over every row of the command
table, well formed or mangled with adversarial tokens, ends in exit 0, 1 or 2
and never raises out of `run`.  Exit 1 comes with exactly one line on stderr
and nothing on stdout; exit 0 and 2 with nothing on stderr."""
from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from tautorder.cli import _COMMANDS, run
from tautorder.verify import SUITE_NAMES

_small = st.integers(-3, 30).map(str)

# spellings of other grammars (abbreviations, --opt=value, "+12", "1_2", " 12",
# Arabic-Indic digits, "--"), help, unknown commands and options, and tokens that
# are well formed only in another place
_ADVERSARIAL = [
    "--form", "--format=json", "--orac", "--window=3", "--max", "-h", "--help", "-", "--",
    "1_2", "+12", " 12", "12 ", "١٢", "1e3", "0x10", "", "-0", "007", "-1_0", "9" * 5000,
    "frobnicate", "NG", "text", "json", "yaml", "all", "chern-lemma", "g", "n", "suite",
    "--format", "--oracle", "--prime-count", "--window", "--max-g",
]


def _optional(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    # an integer for each integer positional; the suite and the options are drawn below
    arguments = _COMMANDS[command][1].items()
    integers = [arg for arg, (_, kind) in arguments if kind is int and arg[0] != "-"]
    argv = [command] + [draw(_small) for _ in integers]
    if command == "ng":
        argv += draw(st.one_of(st.just([]), st.just(["--oracle"])))
    elif command == "verify":
        argv.append(draw(st.sampled_from(SUITE_NAMES)))
        argv += draw(_optional("--max-g", st.integers(-2, 4)))
    argv += draw(_optional("--format", st.sampled_from(["text", "json", "csv"])))
    return argv


@st.composite
def _mangled(
    draw, base: st.SearchStrategy = _argv(), min_edits: int = 0, largest: int = 8
) -> list[str]:
    # an argv of `base`, well formed, with min_edits to three edits; an extra integer
    # is at most `largest`, so a verify bound it lands on here keeps the suite quick
    argv = draw(base)
    for _ in range(draw(st.integers(min_edits, 3))):
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
            argv.insert(at, str(draw(st.integers(-3, largest))))
        elif edit == "options first":  # the last two tokens, often an option and its value
            argv = argv[-2:] + argv[:-2]
    return argv


@settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(argv=_mangled())
def test_every_argv_ends_in_an_exit_code(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    assert code in (0, 1, 2), argv
    assert len(err.getvalue().splitlines()) == (code == 1), argv
    if code == 1:
        assert out.getvalue() == "", argv

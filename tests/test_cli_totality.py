"""Totality of the command line: random argv over every row of the command
table ends in exit 0, 1 or 2 and never raises out of `run`."""
from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from tautorder.cli import _COMMANDS, run
from tautorder.verify import SUITE_NAMES

_small = st.integers(-3, 30).map(str)


def _optional(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def _argv(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = [command] + [draw(_small) for _ in _COMMANDS[command][1]]
    if command == "ng":
        argv += draw(st.one_of(st.just([]), st.just(["--oracle"])))
        argv += draw(_optional("--prime-count", st.integers(-2, 120)))
        argv += draw(_optional("--window", st.integers(-2, 60)))
    elif command == "verify":
        argv.append(draw(st.sampled_from(SUITE_NAMES)))
        argv += draw(_optional("--max-g", st.integers(-2, 4)))
    argv += draw(_optional("--format", st.sampled_from(["text", "json", "csv"])))
    return argv


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
)
@given(argv=_argv())
def test_every_argv_ends_in_an_exit_code(argv: list[str]) -> None:
    with contextlib.redirect_stderr(io.StringIO()):
        code = run(argv, out=io.StringIO())
    assert code in (0, 1, 2), argv

"""Golden CLI corpus: the stdout of every subcommand, in every format, at a few
parameters, compared byte for byte with the files under tests/golden/.

The corpus pins behaviour across refactors.  To regenerate it on purpose, run
`PYTHONPATH=src python tests/test_golden_cli.py` and review the diff.
"""
from __future__ import annotations

import io
import re
import sys
from pathlib import Path

import pytest

from tautorder.cli import run

GOLDEN_DIR = Path(__file__).with_name("golden")
FORMATS = {"text": "txt", "json": "json", "csv": "csv"}

CASES = [
    ["ng", "3"],
    ["ng", "12"],
    ["ng", "2", "--oracle"],
    ["bernoulli", "12"],
    ["bernoulli", "30"],
    ["bernoulli", "250"],
    ["zeta", "1"],
    ["zeta", "4"],
    ["zeta", "125"],
    ["prop", "2"],
    ["prop", "5"],
    ["bounds", "3"],
    ["bounds", "10"],
    ["sp-order", "1", "3"],
    ["sp-order", "3", "12"],
    ["degree", "2", "3"],
    ["degree", "3", "10"],
    ["koblitz", "3", "3"],
    ["koblitz", "4", "5"],
    ["boundary", "2"],
    ["boundary", "6"],
    ["hurwitz", "3", "2"],
    ["hurwitz", "2", "5"],
    ["verify", "cyclotomic"],
    ["verify", "cyclotomic", "--max-g", "1"],
    ["verify", "symplectic"],
    ["verify", "symplectic", "--max-g", "2"],
    ["verify", "von-staudt", "--max-g", "3"],
    ["verify", "all"],
    ["verify", "all", "--max-g", "2"],
    ["verify", "borel-serre", "--max-g", "7"],
    ["verify", "newton", "--max-g", "10"],
]


def _golden_path(argv: list[str], fmt: str) -> Path:
    slug = re.sub(r"[^A-Za-z0-9]+", "_", "_".join(argv)).strip("_")
    return GOLDEN_DIR / f"{slug}.{FORMATS[fmt]}"


def _stdout(argv: list[str], fmt: str) -> str:
    out = io.StringIO()
    code = run(argv + ["--format", fmt], out=out)
    assert code == 0, f"{argv} --format {fmt} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("fmt", list(FORMATS))
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv: list[str], fmt: str) -> None:
    expected = _golden_path(argv, fmt).read_text(encoding="utf-8")
    assert _stdout(argv, fmt) == expected


def test_golden_corpus_has_no_stray_files() -> None:
    expected = {_golden_path(argv, fmt).name for argv in CASES for fmt in FORMATS}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for argv in CASES:
        for fmt in FORMATS:
            _golden_path(argv, fmt).write_text(_stdout(argv, fmt), encoding="utf-8")
    sys.exit(0)

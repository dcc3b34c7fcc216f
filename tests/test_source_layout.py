"""No line of the package source is longer than 100 characters, so the
line count of src/ cannot fall just by packing lines together; and the package
reads no environment variable, so a call's answer depends on its arguments alone."""
from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tautorder"


def test_no_source_line_exceeds_100_characters() -> None:
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > 100
    ]
    assert long_lines == []


def test_no_source_reads_the_environment() -> None:
    readers = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "os.environ" in line or "getenv" in line
    ]
    assert readers == []

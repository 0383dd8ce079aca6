"""Conventions of the package source that no runtime test would notice."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gbbmlab"

#: Longest line allowed in a module of the package.
MAX_LINE = 120


def test_no_source_line_over_120_characters():
    long_lines = [
        f"{path.name}:{i}: {len(line)} characters"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []

"""The package's source parses as the oldest Python that pyproject.toml
declares (requires-python).

ast.parse with feature_version checks syntax only, and Python's docs call
it best-effort: it rejects newer grammar such as except* (3.11) and type
aliases (3.12), but not every newer construct, and it says nothing of a
newer library call, such as tomllib.  Running the package on the oldest
interpreter is the full check.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def test_sources_parse_at_the_floor():
    floor = declared_floor()
    # the check has teeth on the interpreter that runs it
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=floor)
    sources = sorted((ROOT / "src" / "distcrit").glob("*.py"))
    assert len(sources) >= 12
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)

"""Every Python file of the project parses as Python 3.10.

pyproject.toml promises Python 3.10, so syntax from a later version
(``except*``, PEP 695 type parameters, ...) must not creep in.  This
checks the grammar only, not the standard-library API a file uses.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_every_directory_has_python_files():
    assert {p.relative_to(ROOT).parts[0] for p in FILES} == {"src", "tests", "perfbench"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

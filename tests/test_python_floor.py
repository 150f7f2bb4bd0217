"""pyproject.toml declares `requires-python >=3.10`, so every source file
must parse under the 3.10 grammar. This checks grammar only: it rejects
syntax newer than 3.10, such as `except*`, but it cannot tell whether a
stdlib API that the code calls exists on 3.10."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_source_parses_under_the_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))

"""Source rules that no unit test would catch."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "wfalab"


def test_no_assert_statements_in_the_package():
    """python -O strips assert, so a correctness check must raise instead."""
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found

"""Checks on the source tree itself."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fusionaudit"


def test_no_assert_statements_in_src():
    # `python -O` strips assert statements; checks must raise explicitly.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []

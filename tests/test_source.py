"""Source-level rules for the package itself."""

import ast
from pathlib import Path

import rpt

SRC = Path(rpt.__file__).parent


def test_no_bare_asserts():
    # `python -O` strips assert statements, so no guard may rely on one.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"bare asserts: {', '.join(found)}"

"""Package-wide checks on the source tree itself."""

import ast
from pathlib import Path

import ucx

SRC = Path(ucx.__file__).resolve().parent


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a runtime invariant written as one is not checked
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_all_names_resolve():
    missing = [name for name in ucx.__all__ if not hasattr(ucx, name)]
    assert missing == []
    assert len(set(ucx.__all__)) == len(ucx.__all__)

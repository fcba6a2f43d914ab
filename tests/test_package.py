"""Package-wide checks on the source tree itself."""

import ast
import builtins
import importlib
from functools import reduce
from pathlib import Path

import ucx
from ucx.errors import UcxError

SRC = Path(ucx.__file__).resolve().parent


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a runtime invariant written as one is not checked
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_raise_is_a_ucx_error():
    # a caller of the library catches UcxError alone, so no raise may name anything else
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"ucx.{path.stem}")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            named = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            head, *rest = ast.unparse(named).split(".")
            scope = module if hasattr(module, head) else builtins
            cls = reduce(getattr, rest, getattr(scope, head))
            if not (isinstance(cls, type) and issubclass(cls, UcxError)):
                found.append(f"{path.name}:{node.lineno} raises {ast.unparse(named)}")
    assert found == []


def test_all_names_resolve():
    missing = [name for name in ucx.__all__ if not hasattr(ucx, name)]
    assert missing == []
    assert len(set(ucx.__all__)) == len(ucx.__all__)

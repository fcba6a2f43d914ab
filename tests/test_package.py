"""Package-wide checks on the source tree itself."""

import ast
import builtins
import importlib
from functools import reduce
from pathlib import Path

import ucx
from ucx import errors
from ucx.errors import UcxError

SRC = Path(ucx.__file__).resolve().parent


def _modules():
    """(path, syntax tree) of each module of the package."""
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _raised_class(module, node):
    """The class a ``raise`` statement names, looked up in its module or the builtins."""
    named = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    head, *rest = ast.unparse(named).split(".")
    scope = module if hasattr(module, head) else builtins
    return reduce(getattr, rest, getattr(scope, head))


def test_no_assert_statements():
    # ``python -O`` strips asserts, so a runtime invariant written as one is not checked
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_raise_is_a_ucx_error():
    # a caller of the library catches UcxError alone, so no raise may name anything else
    found = []
    for path, tree in _modules():
        module = importlib.import_module(f"ucx.{path.stem}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:  # a bare raise re-raises
                continue
            cls = _raised_class(module, node)
            if not (isinstance(cls, type) and issubclass(cls, UcxError)):
                found.append(f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}")
    assert found == []


def test_every_error_class_is_raised():
    # a class no code raises tells a caller nothing its base class does not
    raised = set()
    for path, tree in _modules():
        module = importlib.import_module(f"ucx.{path.stem}")
        raised |= {_raised_class(module, node) for node in ast.walk(tree)
                   if isinstance(node, ast.Raise) and node.exc is not None}
    defined = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, UcxError) and cls is not UcxError]
    assert [cls.__name__ for cls in defined if cls not in raised] == []


def test_every_public_name_is_used_in_the_package():
    # a public name only the tests call belongs in the tests; a name's own
    # definition and the package's re-export of it do not count as uses
    used = set()
    for path, tree in _modules():
        if path.name == "__init__.py":
            continue
        for top in tree.body:
            names = {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
            used |= names - {getattr(top, "name", None)}
    assert [name for name in ucx.__all__ if name not in used] == []


def test_all_names_resolve():
    missing = [name for name in ucx.__all__ if not hasattr(ucx, name)]
    assert missing == []
    assert len(set(ucx.__all__)) == len(ucx.__all__)


def test_no_random_generator_in_the_package():
    # every result is deterministic: neither numpy's random module nor the
    # standard library's is imported or named anywhere in the package
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            named = (isinstance(node, ast.Attribute) and node.attr == "random") or (
                isinstance(node, ast.Name) and node.id == "random")
            imported = isinstance(node, (ast.Import, ast.ImportFrom)) and "random" in ast.unparse(node)
            if named or imported:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []

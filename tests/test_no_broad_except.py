"""No handler in the package catches every exception: a bug must surface as
an error, never as a quiet "mismatch" or a wrong value."""

import ast
import pathlib

import pytest

import polarnewton

BROAD = {"Exception", "BaseException"}
MODULES = sorted(pathlib.Path(polarnewton.__file__).parent.glob("*.py"))


def broad_handlers(source: str) -> list[int]:
    """Line numbers of the bare `except:` clauses and of the handlers that
    name `Exception` or `BaseException`, alone or in a tuple."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        names = {c.id if isinstance(c, ast.Name) else getattr(c, "attr", None) for c in caught if c}
        if node.type is None or names & BROAD:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,want", [
    ("try:\n    f()\nexcept:\n    pass\n", [3]),
    ("try:\n    f()\nexcept Exception:\n    pass\n", [3]),
    ("try:\n    f()\nexcept (KeyError, builtins.BaseException) as e:\n    pass\n", [3]),
    ("try:\n    f()\nexcept (KeyError, ValueError):\n    pass\n", []),
])
def test_broad_handlers_are_found(source, want):
    assert broad_handlers(source) == want


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_catches_every_exception(path):
    assert broad_handlers(path.read_text()) == []

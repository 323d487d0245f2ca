"""The reference computations in `_oracles.py` share no code with the package
they check: the module imports nothing from `polarnewton`."""

import ast
import pathlib

import pytest

ORACLES = pathlib.Path(__file__).parent / "_oracles.py"


def package_imports(source: str) -> list[int]:
    """Line numbers of the imports of `polarnewton` or any of its modules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name == "polarnewton" or name.startswith("polarnewton.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,want", [
    ("import polarnewton\n", [1]),
    ("import numpy as np, polarnewton.algebra as alg\n", [1]),
    ("from fractions import Fraction\nfrom polarnewton.curves import polar\n", [2]),
    ("def f():\n    from polarnewton import algebra\n", [2]),
    ("import numpy\nfrom fractions import Fraction\nimport polarnewtonish\n", []),
])
def test_package_imports_are_found(source, want):
    assert package_imports(source) == want


def test_oracles_import_nothing_from_the_package():
    assert package_imports(ORACLES.read_text()) == []

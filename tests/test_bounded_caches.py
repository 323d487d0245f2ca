"""Every cache that outlives a call is bounded: a function defined at module
level, or in a class at module level, takes `lru_cache` only with an integer
`maxsize`, and never the unbounded `functools.cache`.  A cache made inside a
call, such as `build_model`'s `cache(coeff_at)` or `lazy_at`'s dict, goes
with the call and is not checked."""

import ast
import pathlib

import pytest

import polarnewton

MODULES = sorted(pathlib.Path(polarnewton.__file__).parent.glob("*.py"))


def _name(node) -> str | None:
    """`lru_cache` for both `lru_cache` and `functools.lru_cache`."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _bounded(call: ast.Call) -> bool:
    sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
    return len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int


def unbounded_caches(source: str) -> list[int]:
    """Line numbers of the module- and class-level functions decorated with
    `cache`, a bare `lru_cache`, or an `lru_cache(...)` without an integer
    `maxsize`."""
    tree = ast.parse(source)
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    lines = []
    for body in scopes:
        for node in body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else None
                name = _name(call.func if call else dec)
                if name == "cache" or name == "lru_cache" and not (call and _bounded(call)):
                    lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source,want", [
    ("@lru_cache(maxsize=32)\ndef f():\n    pass\n", []),
    ("@functools.lru_cache(64)\ndef f():\n    pass\n", []),
    ("@lru_cache\ndef f():\n    pass\n", [2]),
    ("@lru_cache()\ndef f():\n    pass\n", [2]),
    ("@functools.lru_cache(maxsize=None)\ndef f():\n    pass\n", [2]),
    ("@lru_cache(maxsize=SIZE)\ndef f():\n    pass\n", [2]),
    ("@cache\ndef f():\n    pass\n", [2]),
    ("class C:\n    @functools.cache\n    def f(self):\n        pass\n", [3]),
    ("def f():\n    @cache\n    def g():\n        pass\n    return cache(g)\n", []),
])
def test_unbounded_caches_are_found(source, want):
    assert unbounded_caches(source) == want


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_global_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []

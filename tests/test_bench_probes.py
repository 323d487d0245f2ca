"""The bench harness wraps call sites by name; each named site must exist."""

import importlib
import pathlib
import sys

import polarnewton  # noqa: F401  (loads every module a probe names)

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# Call sites removed from the source before this check existed; the FOUND line
# of CHANGES.md about bench/tracing.py PROBES names them.  Nothing may join.
KNOWN_MISSING = {
    "verify.newton_polygon",
    "verify.associated_polynomial",
    "verify.squarefree_info",
    "verify.oka_report",
    "genus2.discriminant",
    "genus2.build_locus",
}


def _resolves(module: str, attr: str) -> bool:
    owner = sys.modules[f"polarnewton.{module}"]
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner is not None and hasattr(owner, leaf)


def test_every_probe_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    probes = importlib.import_module("tracing").PROBES
    targets = {f"{module}.{attr}": _resolves(module, attr) for module, attr, _name in probes}
    assert KNOWN_MISSING <= set(targets)
    assert sorted(t for t, ok in targets.items() if not ok) == sorted(KNOWN_MISSING)

"""The bench harness wraps call sites by name; each named site must exist."""

import importlib
import pathlib
import sys

import polarnewton  # noqa: F401  (loads every module a probe names)
from polarnewton import verify

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# Call sites removed from the source: the first six before this check existed
# (the FOUND line of CHANGES.md about bench/tracing.py PROBES names them), the
# next two with the multivariate gcd and the nested genus-one build, the last
# when the degenerate-power check took its polar from the generic member.  A
# name joins only in the change that deletes the call it wrapped, and
# CHANGES.md names it there.
KNOWN_MISSING = {
    "verify.newton_polygon",
    "verify.associated_polynomial",
    "verify.squarefree_info",
    "verify.oka_report",
    "genus2.discriminant",
    "genus2.build_locus",
    "genus1.squarefree_split",
    "genus2.polar_model_g1",
    "verify.substitute",
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


def test_each_trial_opens_with_one_draw_and_takes_one_polar(monkeypatch):
    # bench/run.py splits trials at the verify.sample_off_locus spans and
    # times each trial's polar under the verify.polar probe
    cfg = verify.SampleConfig(family=(5, 12, 1), seed=42, trials=3)
    verify._generic_verdict(cfg.family)  # cached, so the run takes no generic polar
    calls = {"sample_off_locus": 0, "polar": 0}
    for name in calls:
        real = getattr(verify, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    verify.run_verification(cfg)
    assert calls == {"sample_off_locus": 3, "polar": 3}

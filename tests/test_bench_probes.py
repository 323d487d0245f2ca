"""The bench harness wraps call sites by name; each named site must exist."""

import importlib
import pathlib
import sys

import polarnewton  # noqa: F401  (loads every module a probe names)
from polarnewton import verify

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# Call sites removed from the source: the first five before this check existed
# (the FOUND line of CHANGES.md about bench/tracing.py PROBES names them), the
# next two with the multivariate gcd and the nested genus-one build, the
# eighth when the genus-one model took its low points from the member's row
# starts instead of the continued fraction, the last when the locus kept
# `pencil_test` as its one point query.  A name joins only in the change that
# deletes the call it wrapped, and CHANGES.md names it there, and leaves when
# the call comes back: `verify.substitute`, gone while the degenerate-power
# check took its polar from the generic member, is the crosscheck's again,
# and `verify.newton_polygon` builds the polygon of each distinct lowest
# support of a run.
KNOWN_MISSING = {
    "verify.associated_polynomial",
    "verify.squarefree_info",
    "verify.oka_report",
    "genus2.discriminant",
    "genus2.build_locus",
    "genus1.squarefree_split",
    "genus2.polar_model_g1",
    "genus1.continued_fraction",
    "genus1.DegeneracyLocus.vanishes_at",
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
    # times a trial's polar under the verify.polar probe; a trial's checks
    # read only each row's lowest polar term, so the full polar is taken
    # only for the Puiseux crosscheck, once per trial; the generic verdict is
    # the model's, so no run takes a generic polar
    calls = {}
    for name in ("sample_off_locus", "lowest_polar_terms", "polar"):
        real = getattr(verify, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    for crosscheck, polars in ((False, 0), (True, 3)):
        calls.update(sample_off_locus=0, lowest_polar_terms=0, polar=0)
        verify.run_verification(verify.SampleConfig(family=(5, 12, 1), seed=42, trials=3,
                                                     puiseux_crosscheck=crosscheck))
        assert calls == {"sample_off_locus": 3, "lowest_polar_terms": 3, "polar": polars}

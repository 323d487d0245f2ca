"""The model-build ladder: every rung finishes and reproduces its recorded
sides, z-form side polynomials and topology.

`bench/ladder_expected.json` is read, never written, here.  (17,45) and
(11,29,1) are listed there; (19,50), (23,60) and (13,34,1) are not listed and
are checked only for finishing and for the degree of their deflated sides.
The q = -1 (mod p) families, whose sides do not deflate, build and verify
too, and no model build or verify trial expands a side discriminant.  A
genus-two build reads each tail coefficient a bounded number of times and
computes each side coefficient once; both are counted, not timed.
"""

import json
import pathlib

import pytest

from polarnewton import algebra, genus1, genus2
from polarnewton.algebra import deflate
from polarnewton.genus1 import polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.verify import SampleConfig, run_verification

from _support import model_of, name

EXPECTED = json.loads((pathlib.Path(__file__).resolve().parent.parent
                       / "bench" / "ladder_expected.json").read_text())

RUNGS = [(7, 19), (11, 29), (15, 41), (14, 37), (17, 45), (5, 12, 1), (8, 21, 1), (11, 30, 1),
         (11, 29, 1), (19, 50), (23, 60), (13, 34, 1)]
# each has a side that does not deflate, of degree p - 1
WALL = [(8, 15), (9, 17), (13, 25), (6, 11, 1), (7, 13, 1)]
BENCH_FAMILIES = [(7, 19), (5, 12, 1), (7, 19, 1)]
G2_RUNGS = [fam for fam in RUNGS[:9] if len(fam) == 3]


def summary(model) -> dict:
    return {
        "sides": [[list(pt) for pt in side] for side in model.sides],
        "side_polys": [F.render() for F in model.side_polys],
        "topology": {
            "branches": [[c.a0, c.a1, c.count] for c in model.topology.branches],
            "intersections": [list(row) for row in model.topology.intersections],
        },
    }


def test_every_recorded_rung_is_on_the_ladder():
    assert set(EXPECTED) <= {name(fam) for fam in RUNGS}
    assert {"g1_17_45", "g2_11_29_1"} <= set(EXPECTED)


@pytest.mark.parametrize("fam", RUNGS, ids=name)
def test_rung_builds_and_matches_its_record(fam):
    model = model_of(fam)
    if name(fam) in EXPECTED:
        assert summary(model) == EXPECTED[name(fam)]
    # the discriminants the locus takes are those of the deflated sides
    assert max(deflate(F).deg for F in model.side_polys) <= 5
    assert model.locus.groups


@pytest.mark.parametrize("fam", WALL, ids=name)
def test_wall_family_builds_and_verifies(fam):
    model = model_of(fam)
    assert max(deflate(F).deg for F in model.side_polys) == fam[0] - 1
    summary = run_verification(SampleConfig(family=fam, seed=42, trials=20))["summary"]
    assert summary == {"trials": 20, "polygon_match": 20, "points_present": 20,
                       "all_sides_squarefree": 20, "topology_match": 20}


def test_no_side_discriminant_is_expanded_until_the_locus_is_listed(monkeypatch):
    calls = []
    for module in (algebra, genus1):
        real = module.discriminant

        def counted(F, _real=real):
            calls.append(F)
            return _real(F)

        monkeypatch.setattr(module, "discriminant", counted)
    # fresh models, so each run reads its generic verdict afresh
    polar_model_g1.cache_clear()
    polar_model_g2.cache_clear()
    models = [model_of(fam) for fam in RUNGS[:9]]
    for fam in BENCH_FAMILIES:
        run_verification(SampleConfig(family=fam, seed=42, trials=50))
    assert calls == []
    assert models[0].locus.groups
    assert calls


def test_g2_builds_read_each_coefficient_once(monkeypatch):
    tail_calls, builds = [], []
    real_tail, real_build = genus2.coefficient_tail, genus1.build_model

    def counted_tail(*args):
        tail_calls.append(args)
        return real_tail(*args)

    def counted_build(low_points, coeff_at, nonvanishing=()):
        asked = []
        builds.append(asked)

        def counted(x, j):
            asked.append((x, j))
            return coeff_at(x, j)

        return real_build(low_points, counted, nonvanishing)

    monkeypatch.setattr(genus2, "coefficient_tail", counted_tail)
    for module in (genus1, genus2):
        monkeypatch.setattr(module, "build_model", counted_build)
    polar_model_g1.cache_clear()
    polar_model_g2.cache_clear()
    for fam in G2_RUNGS:
        tail_calls.clear()
        builds.clear()
        model = polar_model_g2(*fam)
        # two tail reads per polar coefficient, one coefficient per side point
        assert len(tail_calls) <= 2 * sum(len(side) for side in model.sides)
        assert len(builds) == 1  # no nested genus-one model
        for asked in builds:
            assert len(asked) == len(set(asked))

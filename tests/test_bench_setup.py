"""The benchmark reaches the library by name; its set-up must keep running."""

import importlib
import pathlib

import pytest

import polarnewton

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def cold(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("cold")


def test_build_models_runs(cold):
    cold.build_models(polarnewton)


@pytest.mark.parametrize("fam", [(7, 19), (5, 12, 1)])
def test_ladder_rung_builds(cold, fam):
    model = cold.polar_model(polarnewton, fam)(*fam)
    assert cold.model_summary(model)["sides"]

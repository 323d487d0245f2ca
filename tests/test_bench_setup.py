"""The benchmark reaches the library by name; its set-up must keep running."""

import importlib
import pathlib
import subprocess
import sys

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


def test_import_and_verify_leave_numpy_unloaded():
    # only the Puiseux expansion imports numpy, which would double verify's set-up time
    code = """
import sys
import polarnewton
assert "numpy" not in sys.modules, "import polarnewton loaded numpy"
polarnewton.run_verification(polarnewton.SampleConfig(family=(7, 19), seed=42, trials=3))
assert "numpy" not in sys.modules, "run_verification loaded numpy"
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

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
    # only the Puiseux expansion imports numpy, which would double verify's
    # set-up time, and nothing imports hashlib, which maps OpenSSL (about
    # 3.5 MB resident): verify's draw digest is the interpreter's built-in
    # SHA-256 where it has one, so a verify run, with or without the
    # crosscheck, maps no OpenSSL either; a fresh interpreter, because
    # pytest's own may already hold both
    code = """
import importlib.util
import sys
import polarnewton
assert "numpy" not in sys.modules, "import polarnewton loaded numpy"
assert "_hashlib" not in sys.modules, "import polarnewton loaded OpenSSL"
polarnewton.polar_model_g1(7, 19)
polarnewton.polar_model_g2(5, 12, 1)
polarnewton.generic_member_g2(5, 12, 1)
assert "numpy" not in sys.modules, "building a model loaded numpy"
assert "_hashlib" not in sys.modules, "building a model loaded OpenSSL"
built_in = importlib.util.find_spec("_sha2") or importlib.util.find_spec("_sha256")
plain = polarnewton.run_verification(polarnewton.SampleConfig(family=(7, 19), seed=42, trials=3))
assert "numpy" not in sys.modules, "run_verification loaded numpy"
assert not built_in or "_hashlib" not in sys.modules, "run_verification loaded OpenSSL"
crosscheck = polarnewton.run_verification(
    polarnewton.SampleConfig(family=(7, 19), seed=42, trials=2, puiseux_crosscheck=True))
assert "numpy" in sys.modules, "the crosscheck took no Puiseux root"
assert not built_in or "_hashlib" not in sys.modules, "the crosscheck loaded OpenSSL"
digests = [r["digest"] for rep in (plain, crosscheck) for r in rep["records"]]
assert len(digests) == 5, digests
assert all(len(d) == 16 and set(d) <= set("0123456789abcdef") for d in digests), digests
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

"""Smoke test for the benchmark: every workload at minimum size.

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Runs each workload untraced and traced with one trial per family, one
set-up probe and the smallest rung of each genus, then checks
that the printed metric names are exactly those BENCHMARK.json lists, that
every output passed its checks, and that the benchmark refuses to run without
src/.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())


def _result(workload: str, trace: bool, out_dir: Path) -> dict:
    saved = run.TRIALS, run.SETUP_PROBES, run.RUNGS, run.OUT
    run.TRIALS = dict.fromkeys(run.TRIALS, 1)
    run.SETUP_PROBES = 1
    run.RUNGS = ((7, 19), (5, 12, 1))
    run.OUT = out_dir
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            assert run.run_workload(workload, seed=7, seconds=0, trace=trace) == 0
    finally:
        run.TRIALS, run.SETUP_PROBES, run.RUNGS, run.OUT = saved
    return json.loads(buf.getvalue().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    want = {False: [m["name"] for m in SPEC["end_to_end"]],
            True: [m["name"] for m in SPEC["per_layer"]]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for workload in run.WORKLOADS:
            for trace in (False, True):
                res = _result(workload, trace, Path(tmp))
                assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
                assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
                assert list(res["metrics"]) == want[trace], (workload, trace)
                for name, m in res["metrics"].items():
                    assert m["unit"] == units[name]
                    assert isinstance(m["value"], (int, float))
                if not trace:
                    assert all(m["value"] > 0 for m in res["metrics"].values()), res


def test_refuses_to_run_without_sources():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.BENCH.parent / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    test_metric_names_match_benchmark_json()
    test_refuses_to_run_without_sources()
    print("smoke ok")

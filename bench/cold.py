"""Fresh-interpreter side of the benchmark: set-up probes and ladder rungs.

    python3 bench/cold.py setup                  import, then build the verify models
    python3 bench/cold.py rung 14 37 [--trace]   import, then one cold model build
                                                 (two numbers: g1; three: g2)

Both modes print "ready" once the interpreter is set up, so the parent can
time start-to-ready from outside, followed by the host speed sampled while
the package was imported (see speed.py), so the parent can scale that time
and leave the samples out of it.  A rung then prints one JSON line with its
build time (raw, and scaled by the host speed sampled during the build; see
speed.py), peak memory, the model's sides, side polynomials and topology,
and with --trace its spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import resource
import sys
from pathlib import Path

from speed import timed
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The fixed verify families of the roadmap: g1 (7,19), g2 (5,12,1), g2 (7,19,1).
FAMILIES = ((7, 19), (5, 12, 1), (7, 19, 1))


class SourceTreeMissing(RuntimeError):
    pass


def import_polarnewton():
    """Import polarnewton from this checkout's src/ and nowhere else."""
    if not (SRC / "polarnewton" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no polarnewton sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pn = importlib.import_module("polarnewton")
    if SRC.resolve() not in Path(pn.__file__).resolve().parents:
        raise SourceTreeMissing(f"polarnewton imported from {pn.__file__}, not from {SRC}")
    return pn


def polar_model(pn, fam, tracer=None):
    """polar_model_g1 or polar_model_g2 for the family, traced if asked."""
    genus = len(fam) - 1
    build = getattr(pn, f"polar_model_g{genus}")
    return tracer.wrap(build, f"genus{genus}.polar_model_g{genus}") if tracer else build


def build_models(pn, tracer=None) -> None:
    """What a verify call needs before its first trial: model and generic member."""
    for fam in FAMILIES:
        polar_model(pn, fam, tracer)(*fam)
        getattr(pn, f"generic_member_g{len(fam) - 1}")(*fam)


def family_name(fam) -> str:
    return ("g1_" if len(fam) == 2 else "g2_") + "_".join(map(str, fam))


def model_summary(model) -> dict:
    """The parts of a model the ladder pins: sides, z-form side polys, topology."""
    topo = model.topology
    return {
        "sides": [[list(pt) for pt in side] for side in model.sides],
        "side_polys": [F.render() for F in model.side_polys],
        "topology": {
            "branches": [[c.a0, c.a1, c.count] for c in topo.branches],
            "intersections": [list(row) for row in topo.intersections],
        },
    }


def peak_rss_mb() -> float:
    """This process's peak resident memory.  VmHWM, unlike ru_maxrss, does not
    inherit the high-water mark of the parent that spawned it."""
    with contextlib.suppress(OSError):
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Set-up takes a few tenths of a second, so it is sampled more often than
# timed work.
SETUP_INTERVAL_S = 0.02


def _ready(build: bool):
    """Import the package (and build the verify models), then say ready."""
    with timed(SETUP_INTERVAL_S) as t:
        pn = import_polarnewton()
        if build:
            build_models(pn)
    print("ready", json.dumps({"scale": t["scale"], "sampled_s": t["sampled_s"]}), flush=True)
    return pn


def _rung(fam, trace: bool) -> dict:
    pn = _ready(build=False)
    tracer = Tracer() if trace else None
    with tracer.installed() if trace else contextlib.nullcontext():
        build = polar_model(pn, fam, tracer)
        with timed() as t:
            model = build(*fam)
    out = {"build_s": t["work_s"], "norm_s": t["norm_s"], "sample_s": t["sample_s"],
           "peak_rss_mb": peak_rss_mb(), "model": model_summary(model)}
    if tracer is not None:
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
    return out


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        _ready(build=True)
    elif mode == "rung":
        trace = "--trace" in rest
        fam = tuple(int(v) for v in rest if v != "--trace")
        print(json.dumps(_rung(fam, trace)), flush=True)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

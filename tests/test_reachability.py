"""Every function of `src/polarnewton` is entered by a product command or by
the benchmark's calls, or is named in ALLOWED with the reason it stays.

A fresh interpreter runs COMMANDS through `cli.main`, then the bench's calls:
`bench/cold.py`'s model builds and ladder summary, and
`report_to_json(run_verification(...))` on the bench families with the
Puiseux crosscheck off and on.  It records, under `sys.setprofile`, the code
objects of `src/` that it enters.  The interpreter is fresh because in this
one the `lru_cache`d builders are already warm from other tests.  A function
is a `def` in the sources, named by its module and enclosing classes and
functions; lambdas and comprehensions are not counted.  A function that only
tests call belongs in `tests/_support.py`, so one added to `src/` fails here.
The run takes about 0.8 s on a 2-vCPU host.
"""

import ast
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

# Each command is cheap and enters something that the others and the bench's
# calls do not, in text or JSON: the continued fraction, a genus-two member, a
# rational pencil point (`_fraction`), a symbolic side whose discriminant is
# expanded with non-constant pivots (`MPoly.divexact`'s `_mono_div` and
# `neg_key`), a locus listing, a predicted topology, a rejected semigroup, an
# explicit `--tol` (`_tolerance`), a Puiseux side with a repeated root
# (`qpoly_yun`), the verify command with its crosscheck, and a parse error
# (`ParseError`, `_Parser.error`).
COMMANDS = [
    (["cf", "--q", "19", "--p", "7"], 0),
    (["family", "g2", "--p", "2", "--q", "3", "--d", "1", "--e1", "3"], 0),
    (["polar", "--expr", "y^2 - x^3", "--a", "3", "--b=-2/5"], 0),
    (["nondeg", "--expr", "(a*y - x)^2*(y - x)"], 0),
    (["locus", "g2", "--p", "3", "--q", "7", "--d", "1"], 0),
    (["topology", "g2", "--p", "5", "--q", "12", "--d", "1"], 0),
    (["classify", "--semigroup", "4,6,12"], 1),
    (["--format", "json", "puiseux", "--expr", "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y",
      "--tol", "1e-6"], 0),
    (["puiseux", "--expr", "(y^2 - x^3)*(y^2 - x^3 - x^4)", "--min-order", "8"], 0),
    (["--format", "json", "verify", "g1", "--p", "5", "--q", "7", "--trials", "2", "--puiseux-crosscheck"], 0),
    (["polygon", "--expr", "y^2 - x^3 +"], 1),
]

# Functions that no command and no bench call enters, each with its reason.
ALLOWED = {
    "algebra.MPoly.__repr__": "debugging aid; no output reads a repr",
    "algebra.UPoly.__repr__": "debugging aid; no output reads a repr",
    "algebra.Var.__repr__": "debugging aid; no output reads a repr",
    "curves._IntegerTerms.__repr__": "debugging aid; no output reads a repr",
    "algebra.MPoly.monomial": "kernel constructor; tests and tests/_support.py build terms with it",
    "algebra.MPoly.leading": "kernel query; tests compare polynomials up to a rational multiple "
                             "with it, and it reads the private _MONO_KEY",
    "algebra.MPoly.__rsub__": "ring operation; tests write `1 - p`",
    "algebra.UPoly.from_mpoly": "kernel constructor; tests build side polynomials from z-forms with it",
    "algebra.UPoly.__eq__": "value equality; tests compare side polynomials",
    "algebra.UPoly.__hash__": "kept with __eq__, so that equal polynomials hash equal",
}

SCRIPT = """
import contextlib, io, json, sys
src, bench, commands = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [src, bench]
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import cold
pn = cold.import_polarnewton()
from polarnewton import cli
from polarnewton.verify import SampleConfig, report_to_json, run_verification
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in commands:
        codes.append(cli.main(argv))
cold.build_models(pn)
for fam in cold.FAMILIES:
    cold.model_summary(cold.polar_model(pn, fam)(*fam))
    for crosscheck in (False, True):
        report_to_json(run_verification(SampleConfig(family=fam, seed=42, trials=1,
                                                     puiseux_crosscheck=crosscheck)))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def functions(src: pathlib.Path) -> dict[tuple[str, int], str]:
    """(file, first line) of each `def` under `src`, to its qualified name; a
    decorated function's code object starts at its first decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((src / "polarnewton").glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def never_entered(commands) -> tuple[list[int], set[str]]:
    """The exit code of each command, and the functions the run never entered."""
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(BENCH), json.dumps(commands)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    entered = {(str(pathlib.Path(f).resolve()), line) for f, line in out["entered"]}
    return out["codes"], {name for key, name in functions(SRC).items() if key not in entered}


def test_every_function_is_reached_or_allowed():
    codes, missed = never_entered([argv for argv, _code in COMMANDS])
    assert codes == [code for _argv, code in COMMANDS]
    assert sorted(missed) == sorted(ALLOWED)

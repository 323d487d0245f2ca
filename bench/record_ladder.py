"""Record the ladder's expected sides, z-form side polynomials and topology.

    python3 bench/record_ladder.py     # rewrites bench/ladder_expected.json

A rung that finishes within the box is recorded from a real cold build.  A
rung that does not is recorded with `discriminant` replaced by a constant:
sides, side polynomials and topology do not depend on it, and the locus,
which does, is not pinned.
"""

from __future__ import annotations

import json
import sys

import cold
import run


def main() -> int:
    expected = {}
    slow = []
    for fam in run.RUNGS:
        res = run.run_rung(fam, trace=False)
        if res["status"] == "ok":
            expected[cold.family_name(fam)] = res["model"]
        elif res["status"] == "timeout":
            slow.append(fam)
        else:
            print(f"{fam}: {res['error']}", file=sys.stderr)
            return 1
    pn = cold.import_polarnewton()
    for module in (pn.genus1, pn.genus2):
        module.discriminant = lambda F: pn.MPoly.const(1)
    for fam in slow:
        expected[cold.family_name(fam)] = cold.model_summary(cold.polar_model(pn, fam)(*fam))
    lines = [f'  "{cold.family_name(fam)}": {json.dumps(expected[cold.family_name(fam)])}'
             for fam in run.RUNGS]
    (run.BENCH / "ladder_expected.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"recorded {len(lines)} rungs; without discriminant: {slow}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every model of two boxes of families renders to a pinned sha256.

The boxes are genus one with p <= 13 and coprime p < q <= 4p + 2 (189
models), and genus two with p <= 7, coprime p < q <= 3p + 2 and odd
d <= 2q + 1 (541 models).  A model renders as its low points, sides, side
polynomials, side heights, edge terms, topology and raw conditions; the raw
conditions are rendered as the data a build keeps (the lowest terms, the
deflated sides and the nonvanishing variables), which expands no
discriminant.  `tests/golden/model_digests_sha256.json` is read, never
written, here; `python3 tests/test_model_digests.py` prints the digests of
the code on the path as that JSON.
"""

import hashlib
import json
import math
import pathlib

from polarnewton.genus1 import polar_model_g1
from polarnewton.genus2 import polar_model_g2

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "model_digests_sha256.json"

G1_BOX = [(p, q) for p in range(2, 14) for q in range(p + 1, 4 * p + 3) if math.gcd(p, q) == 1]
G2_BOX = [(p, q, d) for p in range(2, 8) for q in range(p + 1, 3 * p + 3) if math.gcd(p, q) == 1
          for d in range(1, 2 * q + 2, 2)]


def name(fam) -> str:
    return ("g1_" if len(fam) == 2 else "g2_") + "_".join(map(str, fam))


def render(model) -> str:
    c = model.locus
    lines = [
        f"low_points {model.low_points!r}",
        f"sides {model.sides!r}",
        *(f"side_poly {F.render()}" for F in model.side_polys),
        f"side_heights {model.side_heights!r}",
        *(f"edge_term {j} {t.render()}" for j, t in sorted(model.edge_terms.items())),
        f"topology {model.topology!r}",
        *(f"lowest {t.render()}" for t in c.lowest),
        *(f"deflated_side {G.render()}" for G in c.sides),
        f"nonvanishing {sorted(v.name for v in c.nonvanishing)!r}",
    ]
    return "\n".join(lines)


def digests() -> dict[str, str]:
    models = [polar_model_g1(*fam) for fam in G1_BOX] + [polar_model_g2(*fam) for fam in G2_BOX]
    return {name(fam): hashlib.sha256(render(m).encode()).hexdigest()
            for fam, m in zip(G1_BOX + G2_BOX, models)}


def test_the_boxes_have_their_sizes():
    assert (len(G1_BOX), len(G2_BOX)) == (189, 541)


def test_every_model_renders_to_its_pinned_digest():
    pinned = json.loads(GOLDEN.read_text())
    assert set(pinned) == {name(fam) for fam in G1_BOX + G2_BOX}
    got = digests()
    assert [k for k in pinned if got[k] != pinned[k]] == []


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2, sort_keys=True))

"""Every locus listing of two boxes of families hashes to a pinned sha256.

The boxes are genus one with p <= 7 and coprime p < q <= 4p + 2 (60
families), and genus two with p <= 4, coprime p < q <= 3p + 2 and odd
d <= 2q + 1 (119 families).  A listing is the `locus` command's payload
(`cli._locus_payload`), serialized as the CLI prints it; each listing
expands its side discriminants through `build_locus`.
`tests/golden/locus_digests_sha256.json` is read, never written, here;
`python3 tests/test_locus_digests.py` prints the digests of the code on the
path as that JSON.
"""

import hashlib
import json
import math
import pathlib

from polarnewton.cli import _locus_payload
from polarnewton.genus1 import polar_model_g1
from polarnewton.genus2 import polar_model_g2

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "locus_digests_sha256.json"

G1_BOX = [(p, q) for p in range(2, 8) for q in range(p + 1, 4 * p + 3) if math.gcd(p, q) == 1]
G2_BOX = [(p, q, d) for p in range(2, 5) for q in range(p + 1, 3 * p + 3) if math.gcd(p, q) == 1
          for d in range(1, 2 * q + 2, 2)]


def name(fam) -> str:
    return ("g1_" if len(fam) == 2 else "g2_") + "_".join(map(str, fam))


def digest(fam) -> str:
    model = polar_model_g1(*fam) if len(fam) == 2 else polar_model_g2(*fam)
    text = json.dumps(_locus_payload(model.locus), indent=2)
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_boxes_have_their_sizes():
    assert (len(G1_BOX), len(G2_BOX)) == (60, 119)


def test_every_listing_hashes_to_its_pinned_digest():
    pinned = json.loads(GOLDEN.read_text())
    assert set(pinned) == {name(fam) for fam in G1_BOX + G2_BOX}
    assert [name(fam) for fam in G1_BOX + G2_BOX if digest(fam) != pinned[name(fam)]] == []


if __name__ == "__main__":
    print(json.dumps({name(fam): digest(fam) for fam in G1_BOX + G2_BOX}, indent=2, sort_keys=True))

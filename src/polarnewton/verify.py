"""Seeded sampling harness: draw family coefficients off the degeneracy
locus, take the polar of the generic member at that draw and at a random
pencil point in general position, and check the polygon and squarefree
predictions against a from-scratch computation on the concrete polar, of
which a trial forms only the least term in each row: the rest of a row lies
inside the polygon, so the row minima fix the hull, the sides and their
numerators, and a predicted point, the generic polar's lowest in its row,
is present exactly when it is its row's least.  The hull and those two
checks depend on the support of the least terms alone, so a run builds them
once per distinct support.  The topology column is
`oka_decomposition` of the trial's polygon, the function that made the
prediction, so it adds only two cases: a `PolygonError`, and a different
polygon whose sides have the same shapes.  The optional Puiseux crosscheck,
which forms the whole polar of the member substituted at the draw, is the
one topology check that shares no code with the prediction.  The header's
`generic_member_verdict` is the model's `generic_verdict`; each passing
trial, a specialisation of the member's own generic polar on the same
polygon with every side squarefree, witnesses it.

Every draw of family coefficients follows one rule read from the
`curves.Family` record: a value for each of its `coeff_vars`, with its
`class_var` (if any) nonzero.

Determinism: each trial draws from a Mersenne-Twister generator seeded with
"<seed>:<trial>" (CPython `random.Random`); the algorithm name is pinned in
the report header, so identical configurations reproduce byte-identical
reports.  A drawn value is num/den, read from the generator's bits as
`rng.choice` over a range (and `randint` over the same bounds) reads them.
A draw is kept over integers once, as an `algebra.IntegerPoint`, which the
lowest terms and the locus read as it is; its locus parts are evaluated once,
into the point's pencil test, and `sample_off_locus` draws the point and its
pencil, so a trial's draw lives in one function.
Each value's digest text comes from one bounded memo on the integer pair, so
a trial builds no `Fraction` of the family values and formats no value that
an earlier draw already made.

Importing the package loads neither numpy nor OpenSSL, and a run loads no
OpenSSL either: numpy loads at the first Puiseux root, and the draw digest
is CPython's built-in SHA-256 (`_sha2`, or `_sha256` before 3.12), as
`random` takes its sha512; `hashlib` (OpenSSL) only on a build without it.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .algebra import IntegerPoint
from .curves import (Family, PlaneSeries, generic_member_g1, generic_member_g2, lowest_polar_terms,
                     polar, substitute)
from .genus1 import polar_model_g1
from .genus2 import polar_model_g2
from .newton import PolygonError, is_nondegenerate, newton_polygon, oka_decomposition
from .puiseux import InsufficientDepthError, PuiseuxError, intersection_numeric, puiseux_expand

PRNG_NAME = "mt19937 (CPython random.Random), per-trial seed '<seed>:<trial>'"
REJECT_LIMIT = 1000


class VerifyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SampleConfig:
    family: tuple[int, ...]  # (p, q) or (p, q, d)
    seed: int
    trials: int
    coeff_range: int = 10
    puiseux_crosscheck: bool = False

    def __post_init__(self):
        # a run draws at least once, from a range whose denominators can be drawn
        if self.trials < 1 or self.coeff_range < 2:
            raise VerifyError("need trials >= 1 and coeff_range >= 2")
        if len(self.family) not in (2, 3):
            raise VerifyError("family must be (p, q) or (p, q, d)")


@lru_cache(maxsize=1024)
def _drawn(num: int, den: int) -> tuple[Fraction, str]:
    """A drawn value and its digest text, memoised on the integer pair."""
    value = Fraction(num, den)
    return value, str(value)


def _rand_pairs(rng: random.Random, bound: int, nonzero) -> list[tuple[int, int]]:
    """Per flag of `nonzero`, a numerator in [-bound, bound], not 0 where the
    flag is set, and a denominator in [1, bound], read from the generator's
    bits as `rng.choice(range(...))` reads them: a k-bit word, k the bit
    length of the range's size, redrawn while out of range (or 0)."""
    getrandbits, n = rng.getrandbits, 2 * bound + 1
    k, kd = n.bit_length(), bound.bit_length()
    pairs = []
    for flag in nonzero:
        r = getrandbits(k)
        while r >= n or flag and r == bound:
            r = getrandbits(k)
        d = getrandbits(kd)
        while d >= bound:
            d = getrandbits(kd)
        pairs.append((r - bound, d + 1))
    return pairs


def _draw_assignment(family: Family, rng: random.Random, bound: int) -> tuple[IntegerPoint, list[str]]:
    """A value for every family variable, kept over integers in `coeff_vars`
    order (the numerators scaled to the lcm of the denominators), and their
    texts; the class coefficient stays nonzero."""
    pairs = _rand_pairs(rng, bound, family.class_flags)
    m = math.lcm(*[den for _, den in pairs])
    point = IntegerPoint(family.coeff_vars, tuple([num * (m // den) for num, den in pairs]), m)
    return point, [_drawn(num, den)[1] for num, den in pairs]


def sample_off_locus(family: Family, model, rng: random.Random, bound: int) -> tuple:
    """One trial's draw: family coefficients and their texts, redrawn while
    any locus condition vanishes at every pencil, then random (a, b), each
    with its text, that the point's pencil test passes; (0, 0) lies on every
    lowest term, so the test rejects it."""
    if not family.coeff_vars:
        raise VerifyError(f"family {family.key}: no coefficients to draw")
    for _ in range(REJECT_LIMIT):
        assignment, texts = _draw_assignment(family, rng, bound)
        test = model.locus.pencil_test(assignment)
        if test is not None:
            break
    else:
        raise VerifyError(f"family {family.key}: locus rejection exhausted {REJECT_LIMIT} draws; "
                          "the locus appears to cover the sample space")
    for _ in range(REJECT_LIMIT):
        (a, ad), (b, bd) = _rand_pairs(rng, bound, (False, False))
        if test(a * bd, b * ad):
            return assignment, texts, _drawn(a, ad), _drawn(b, bd)
    raise VerifyError(f"family {family.key}: pencil draw found no point in general position "
                      f"in {REJECT_LIMIT} draws")


def _assignment_digest(labels, texts, a_text, b_text) -> str:
    """Digest of the draw; `labels` are the "name=" prefixes of the family's
    `coeff_vars`, in their (sorted) order, and `texts` the drawn values.
    `sha256` is the interpreter's built-in constructor, else `hashlib`'s;
    both are SHA-256, so the digest does not depend on the route."""
    text = ";".join([label + value for label, value in zip(labels, texts)])
    text += f";a={a_text};b={b_text}"
    return sha256(text.encode()).hexdigest()[:16]


def _puiseux_crosscheck(polar_series: PlaneSeries, predicted) -> dict | None:
    """Compare branch classes and the full intersection table against the
    expansion-based computation; smooth classes match on their table rows.
    None when they match, else the record's `why` entry, whose stage names
    the exit: `class_keys`, `contact` (with the error) or `table`.

    Each branch is expanded only to its separating term.  That suffices:
    every characteristic exponent appears at or before separation (each later
    step has nbar = 1), and two distinct branches differ at or before either
    one's separating term, below the `reached` order one x-unit past it, so
    every contact resolves.  A contact left unresolved comes from a repeated
    branch, which no deeper expansion separates, so it fails the check.  A
    branch of genus >= 2 fails the key comparison: its key (v0, v1) has
    gcd e1 >= 2, and every predicted key is (1,) or a coprime pair.
    """
    keys = [(1,) if k[0] == 1 else k for k in predicted.expanded_keys()]
    want_keys = sorted(keys)
    want_triples = Counter((tuple(sorted((keys[r], keys[c]))), predicted.intersections[r][c])
                           for r in range(len(keys)) for c in range(r + 1, len(keys)))
    got = [br for br, mult in puiseux_expand(polar_series, depth=None) for _ in range(mult)]
    got_keys = sorted(br.class_key() for br in got)
    if got_keys != want_keys:
        return {"check": "puiseux_match", "stage": "class_keys"}
    got_triples = Counter()
    try:
        for r in range(len(got)):
            for c in range(r + 1, len(got)):
                val = intersection_numeric(got[r], got[c])
                pair = tuple(sorted((got[r].class_key(), got[c].class_key())))
                got_triples[(pair, val)] += 1
    except InsufficientDepthError as exc:
        return {"check": "puiseux_match", "stage": "contact", "error": f"{type(exc).__name__}: {exc}"}
    return None if got_triples == want_triples else {"check": "puiseux_match", "stage": "table"}


def _family(key: tuple[int, ...]) -> Family:
    return generic_member_g1(*key) if len(key) == 2 else generic_member_g2(*key)


def _topology_matches(polygon, topology) -> bool:
    """The branch classes read off `polygon` are `topology`."""
    try:
        return oka_decomposition(polygon) == topology
    except PolygonError:  # the polygon misses an axis
        return False


def run_verification(cfg: SampleConfig) -> dict:
    """Per-trial polygon/lattice/squarefree/topology comparison report.

    The polygon, its vertices, `polygon_match` and `points_present` are built
    once per distinct lowest support of the run, and the topology check once
    per distinct polygon; the side verdicts read each trial's own numerators.
    Both memos belong to the call."""
    family = _family(cfg.family)
    model = polar_model_g1(*cfg.family) if len(cfg.family) == 2 else polar_model_g2(*cfg.family)
    predicted_vertices = model.predicted_polygon().vertices()
    predicted_points = model.predicted_points()
    labels = [f"{v.name}=" for v in family.coeff_vars]
    supports: dict[tuple, tuple] = {}  # per lowest support of the run: polygon, vertices, two checks
    topology_matches: dict[tuple, bool] = {}  # per polygon vertex tuple of the run
    records = []
    for trial in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{trial}")
        assignment, texts, (a, a_text), (b, b_text) = sample_off_locus(family, model, rng, cfg.coeff_range)
        lowest = lowest_polar_terms(family.generic, a, b, assignment)
        support = tuple(lowest.terms.nums)  # one point per row, in row order
        if support not in supports:
            polygon = newton_polygon(lowest)
            supports[support] = (polygon, polygon.vertices(), polygon.vertices() == predicted_vertices,
                                 all(pt in lowest.terms for pt in predicted_points))
        polygon, vertices, polygon_match, points_present = supports[support]
        report = is_nondegenerate(lowest, polygon)
        if report.nondegenerate and vertices not in topology_matches:
            topology_matches[vertices] = _topology_matches(polygon, model.topology)
        topology_match = report.nondegenerate and topology_matches[vertices]
        rec = {
            "trial": trial,
            "digest": _assignment_digest(labels, texts, a_text, b_text),
            "polygon_match": bool(polygon_match),
            "points_present": bool(points_present),
            "sides_squarefree": [v.squarefree for v in report.sides],
            "topology_match": bool(topology_match),
        }
        if cfg.puiseux_crosscheck:
            pol = polar(substitute(family.generic, assignment), a, b)
            try:
                why = _puiseux_crosscheck(pol, model.topology)
            except PuiseuxError as exc:  # an expander failure, not a mismatch
                raise VerifyError(f"family {family.key} trial {trial}: puiseux crosscheck: "
                                  f"{type(exc).__name__}: {exc}") from exc
            rec["puiseux_match"] = why is None
            if why is not None:
                rec["why"] = [why]
        records.append(rec)
    summary = {
        "trials": cfg.trials,
        "polygon_match": sum(r["polygon_match"] for r in records),
        "points_present": sum(r["points_present"] for r in records),
        "all_sides_squarefree": sum(all(r["sides_squarefree"]) for r in records),
        "topology_match": sum(r["topology_match"] for r in records),
    }
    if cfg.puiseux_crosscheck:
        summary["puiseux_match"] = sum(r["puiseux_match"] for r in records)
    return {
        "family": list(cfg.family),
        "seed": cfg.seed,
        "coeff_range": cfg.coeff_range,
        "prng": PRNG_NAME,
        "generic_member_verdict": model.generic_verdict,
        "records": records,
        "summary": summary,
    }


def report_to_json(report: dict) -> str:
    """The report's text, which the bench's gate and the tests' sha pins hash."""
    return json.dumps(report, indent=2, sort_keys=False, default=str)

"""Seeded sampling harness: draw family coefficients off the degeneracy
locus, take the polar of the generic member at that draw and at a random
pencil point in general position, and check the polygon and squarefree
predictions against a from-scratch computation on the concrete polar.  The
topology column is `oka_decomposition` of the trial's polygon, the function
that made the prediction, so it adds only two cases: a `PolygonError`, and a
different polygon whose sides have the same shapes.  The optional Puiseux
crosscheck is the one topology check that shares no code with the prediction.

Every draw of family coefficients, here and in the degenerate-power check,
follows one rule read from the `curves.Family` record: a value for each of
its `coeff_vars`, with its `class_var` (if any) nonzero.

Determinism: each trial draws from a Mersenne-Twister generator seeded with
"<seed>:<trial>" (CPython `random.Random`); the algorithm name is pinned in
the report header, so identical configurations reproduce byte-identical
reports.  A drawn value is num/den, read from the generator's bits as
`rng.choice` over a range (and `randint` over the same bounds) reads them.
A draw is kept over integers once, as an `algebra.IntegerPoint`, which the
polar, the locus test and the pencil check read as it is; its locus parts
are evaluated once, and the accepted draw's pencil checks reuse them.  Each
value's digest text comes from one bounded memo on the integer pair, so a
trial builds no `Fraction` of the family values and formats no value that
an earlier draw already made.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import IntegerPoint, MPoly, UPoly, Z
from .curves import Family, PlaneSeries, PolarParams, generic_member_g1, generic_member_g2, polar
from .genus1 import polar_model_g1
from .genus2 import lpq_side_points, polar_model_g2
from .newton import PolygonError, is_nondegenerate, oka_decomposition
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
    point = IntegerPoint(family.coeff_vars, [num * (m // den) for num, den in pairs], m)
    return point, [_drawn(num, den)[1] for num, den in pairs]


def sample_off_locus(family: Family, model, rng: random.Random,
                     bound: int) -> tuple[IntegerPoint, list[str]]:
    """Draw family coefficients and their texts, rejecting while any locus
    condition vanishes."""
    if not family.coeff_vars:
        raise VerifyError(f"family {family.key}: no coefficients to draw")
    for _ in range(REJECT_LIMIT):
        assignment, texts = _draw_assignment(family, rng, bound)
        if not model.locus.vanishes_at(assignment):
            return assignment, texts
    raise VerifyError(f"family {family.key}: locus rejection exhausted {REJECT_LIMIT} draws; "
                      "the locus appears to cover the sample space")


def _draw_general_pencil(family: Family, model, rng, bound, assignment) -> tuple[tuple[Fraction, str], ...]:
    """Random (a, b), each with its text, avoiding the zero set of every raw
    condition; (0, 0) lies on every lowest term, so `nonzero_at` rejects it."""
    for _ in range(REJECT_LIMIT):
        a, b = [_drawn(*pair) for pair in _rand_pairs(rng, bound, (False, False))]
        if model.locus.nonzero_at(assignment, a[0], b[0]):
            return a, b
    raise VerifyError(f"family {family.key}: pencil draw found no point in general position "
                      f"in {REJECT_LIMIT} draws")


def _assignment_digest(labels, texts, a_text, b_text) -> str:
    """Digest of the draw; `labels` are the "name=" prefixes of the family's
    `coeff_vars`, in their (sorted) order, and `texts` the drawn values."""
    text = ";".join([label + value for label, value in zip(labels, texts)])
    text += f";a={a_text};b={b_text}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _puiseux_crosscheck(polar_series: PlaneSeries, predicted) -> bool:
    """Compare branch classes and the full intersection table against the
    expansion-based computation; smooth classes match on their table rows.

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
        return False
    got_triples = Counter()
    try:
        for r in range(len(got)):
            for c in range(r + 1, len(got)):
                val = intersection_numeric(got[r], got[c])
                pair = tuple(sorted((got[r].class_key(), got[c].class_key())))
                got_triples[(pair, val)] += 1
    except InsufficientDepthError:
        return False
    return got_triples == want_triples


def _family(key: tuple[int, ...]) -> Family:
    return generic_member_g1(*key) if len(key) == 2 else generic_member_g2(*key)


@lru_cache(maxsize=32)
def _generic_verdict(key: tuple[int, ...]) -> str:
    """The generic member's polar is nondegenerate as a polynomial statement
    (every side discriminant is nonzero symbolically, which one nonzero
    integer value proves without expanding it); once per family."""
    return is_nondegenerate(polar(_family(key).generic)).verdict


def _topology_matches(polygon, topology) -> bool:
    """The branch classes read off `polygon` are `topology`."""
    try:
        return oka_decomposition(polygon) == topology
    except PolygonError:  # the polygon misses an axis
        return False


def run_verification(cfg: SampleConfig) -> dict:
    """Per-trial polygon/lattice/squarefree/topology comparison report.

    The topology check is a function of the polygon alone, so it runs once
    per distinct polygon of the run."""
    family = _family(cfg.family)
    model = polar_model_g1(*cfg.family) if len(cfg.family) == 2 else polar_model_g2(*cfg.family)
    predicted_vertices = model.predicted_polygon().vertices()
    predicted_points = model.predicted_points()
    generic_verdict = _generic_verdict(tuple(cfg.family))
    labels = [f"{v.name}=" for v in family.coeff_vars]
    topology_matches: dict[tuple, bool] = {}  # per polygon vertex tuple of the run
    records = []
    for trial in range(cfg.trials):
        rng = random.Random(f"{cfg.seed}:{trial}")
        assignment, texts = sample_off_locus(family, model, rng, cfg.coeff_range)
        (a, a_text), (b, b_text) = _draw_general_pencil(family, model, rng, cfg.coeff_range, assignment)
        pol = polar(family.generic, PolarParams.concrete(a, b), assignment)
        report = is_nondegenerate(pol)
        vertices = report.polygon.vertices()
        polygon_match = vertices == predicted_vertices
        points_present = all(pt in pol.terms for pt in predicted_points)
        sides_sf = [bool(v.squarefree) and v.path == "concrete" for v in report.sides]
        topology_match = False
        if report.nondegenerate:
            if vertices not in topology_matches:
                topology_matches[vertices] = _topology_matches(report.polygon, model.topology)
            topology_match = topology_matches[vertices]
        rec = {
            "trial": trial,
            "digest": _assignment_digest(labels, texts, a_text, b_text),
            "polygon_match": bool(polygon_match),
            "points_present": bool(points_present),
            "sides_squarefree": sides_sf,
            "topology_match": bool(topology_match),
        }
        if cfg.puiseux_crosscheck:
            try:
                rec["puiseux_match"] = bool(_puiseux_crosscheck(pol, model.topology))
            except PuiseuxError as exc:  # an expander failure, not a mismatch
                raise VerifyError(f"family {family.key} trial {trial}: puiseux crosscheck: "
                                  f"{type(exc).__name__}: {exc}") from exc
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
        "generic_member_verdict": generic_verdict,
        "records": records,
        "summary": summary,
    }


def run_power_degeneracy(p: int, q: int, d: int = 1, e1: int = 3,
                         trials: int = 10, seed: int = 42, coeff_range: int = 10) -> dict:
    """Sample f1^e1 + f2 members (e1 > 2) and verify the polar is Newton
    degenerate, failing on the steep side whose associated polynomial is a
    constant multiple of (z^p - 1)^(e1 - 1)."""
    if e1 <= 2:
        raise VerifyError("this check is for e1 > 2")
    fam = generic_member_g2(p, q, d, e1=e1)
    reference = (MPoly.var(Z, p) - 1) ** (e1 - 1)
    steep = lpq_side_points(p, q, e1)
    records = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        assignment, _ = _draw_assignment(fam, rng, coeff_range)
        a, b = [Fraction(*pair) for pair in _rand_pairs(rng, coeff_range, (False, True))]
        pol = polar(fam.generic, PolarParams.concrete(a, b), assignment)
        report = is_nondegenerate(pol)
        failing = [v for v in report.sides if not v.squarefree]
        target = [v for v in report.sides
                  if v.side.from_pt == steep[0] and v.side.to_pt == steep[-1]]
        proportional = False
        if target:
            F = target[0].associated
            lead = F.lc.constant_value()
            proportional = UPoly.from_mpoly(reference * lead) == F
        records.append({
            "trial": trial,
            "degenerate": report.verdict == "degenerate",
            "steep_side_fails": bool(target) and not target[0].squarefree,
            "steep_side_power_shape": bool(proportional),
            "other_failing_sides": max(0, len(failing) - 1),
        })
    return {
        "family": [p, q, d, e1],
        "seed": seed,
        "prng": PRNG_NAME,
        "records": records,
        "summary": {
            "trials": trials,
            "degenerate": sum(r["degenerate"] for r in records),
            "steep_side_fails": sum(r["steep_side_fails"] for r in records),
            "steep_side_power_shape": sum(r["steep_side_power_shape"] for r in records),
        },
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False, default=str)

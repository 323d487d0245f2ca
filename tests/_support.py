"""Helpers that several test modules share and that read the package.

Unlike `_oracles.py`, this module imports `polarnewton`.  It holds what only
tests read: the family dispatch (`name`, `member_of`, `model_of`), a locus's
expanded conditions (`raw`), a model's side heights and edge terms, and
`power_degeneracy`, the sampling check of the paper's "no" for e1 > 2.  No
product command reaches any of them, so they stay out of `src/`
(`test_reachability.py`).
"""

from __future__ import annotations

import random
from fractions import Fraction

from polarnewton.algebra import MPoly, UPoly, X, Y, Z, discriminant
from polarnewton.curves import Family, generic_member_g1, generic_member_g2, lowest_polar_terms
from polarnewton.genus1 import DegeneracyLocus, PolarModel, polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import is_nondegenerate
from polarnewton.verify import PRNG_NAME, _draw_assignment, _rand_pairs

from _oracles import lpq_side_points


def name(key) -> str:
    """The goldens' key of a family: g1_p_q or g2_p_q_d."""
    return ("g1_" if len(key) == 2 else "g2_") + "_".join(map(str, key))


def member_of(key) -> Family:
    """The generic member of (p, q) or (p, q, d)."""
    return generic_member_g1(*key) if len(key) == 2 else generic_member_g2(*key)


def model_of(key) -> PolarModel:
    """The polar model of (p, q) or (p, q, d)."""
    return polar_model_g1(*key) if len(key) == 2 else polar_model_g2(*key)


def rational_multiple(f: MPoly, g: MPoly) -> bool:
    """g is a nonzero rational multiple of f, or both are zero."""
    if f.is_zero() or g.is_zero():
        return f == g
    lm, lc = f.leading()
    gm, gc = g.leading()
    return lm == gm and f * (gc / lc) == g


def raw(locus: DegeneracyLocus) -> tuple[MPoly, ...]:
    """The conditions expanded: each lowest term, then each disc G."""
    return locus.lowest + tuple(discriminant(G) for G in locus.sides)


def side_heights(model: PolarModel) -> tuple[int, ...]:
    """The heights j whose lowest term must not vanish, ascending."""
    return tuple(sorted(j for (_x, j) in model.predicted_points()))


def edge_terms(model: PolarModel) -> dict[int, MPoly]:
    """The lowest polar term at each side height: the locus's lowest term."""
    return {j: c * MPoly.monomial(1, {X: model.low_points[j][0], Y: j})
            for j, c in zip(side_heights(model), model.locus.lowest)}


def power_degeneracy(p: int, q: int, d: int = 1, e1: int = 3,
                     trials: int = 10, seed: int = 42, coeff_range: int = 10) -> dict:
    """Sample f1^e1 + f2 members (e1 > 2) and verify the polar is Newton
    degenerate, failing on the steep side whose associated polynomial is a
    constant multiple of (z^p - 1)^(e1 - 1)."""
    fam = generic_member_g2(p, q, d, e1=e1)
    reference = (MPoly.var(Z, p) - 1) ** (e1 - 1)
    steep = lpq_side_points(p, q, e1)
    records = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        assignment, _ = _draw_assignment(fam, rng, coeff_range)
        a, b = [Fraction(*pair) for pair in _rand_pairs(rng, coeff_range, (False, True))]
        report = is_nondegenerate(lowest_polar_terms(fam.generic, a, b, assignment))
        target = [v for v in report.sides if (v.side.from_pt, v.side.to_pt) == (steep[0], steep[-1])]
        F = target[0].associated if target else None
        proportional = bool(target) and UPoly.from_mpoly(reference * F.coeffs[-1].constant_value()) == F
        records.append({
            "trial": trial,
            "degenerate": report.verdict == "degenerate",
            "steep_side_fails": bool(target) and not target[0].squarefree,
            "steep_side_power_shape": bool(proportional),
            "other_failing_sides": max(0, sum(not v.squarefree for v in report.sides) - 1),
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

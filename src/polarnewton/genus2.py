"""Predicted polar geometry for branches with semigroup <2p, 2q, 2pq+d>.

A generic member is f1^2 + f2 with f1 in the two-generator normal form and
f2 a tail starting at weight 2pq+d; both are Tschirnhausen (no y^(p-1) in
f1, no y^(2p-1) in f2).  The general polar splits as 2*f1*P(f1) + P(f2).
The product part contributes the genus-one profile shifted by (q, 0) and the
steep side joining (0, 2p-1) to (q, p-1); the tail contributes its own
lowest exponent at each height, in closed form from the first tail monomial
of each row (`tail_min_x_exponent`).  The predicted Newton polygon is the
lower hull of the per-height minimum of the two profiles.  The tail lies
strictly above the steep side's line, but it can reach the shifted genus-one
sides: for p = 2 and d = 1 the class-defining tail term b[i0,j0] undercuts
the product part at height 0, and on (3,5,1) it fills the side lattice point
(7,1), where the product part has no term.  This module supplies that
profile and the polar coefficients on its sides to the shared builder of
genus1, which derives the side polynomials, the degeneracy locus (without
the class condition b[i0,j0] != 0) and the predicted topology.  It also
holds the semigroup classifier for nondegenerate general polars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

from .algebra import B, MPoly, bvar
from .curves import CurveError, check_family, coefficient_g1, coefficient_tail, polar_coefficient, tail_start
from .genus1 import PolarModel, build_model, min_x_exponent
from .newton import Point

__all__ = [
    "tail_min_x_exponent",
    "polar_model_g2",
    "lpq_side_points",
    "classify_nondegenerate",
    "Classification",
    "InvalidSemigroupError",
]


def _product_polar_coeff(p: int, q: int, i: int, j: int) -> MPoly:
    """Coefficient of x^i y^j in 2*f1*P(f1) at a point of its polygon's boundary.

    Such a point is the vertex (0, p) or (q, 0) of f1 plus a boundary point
    of P(f1): (0, 2p-1) carries 2*p*b, and below height p the point is
    -x^q times the genus-one polar term at (i - q, j).
    """
    if (i, j) == (0, 2 * p - 1):
        return 2 * p * MPoly.var(B)
    if j <= p - 1 and i >= q:
        return -2 * polar_coefficient(partial(coefficient_g1, p, q), i - q, j)
    return MPoly.zero()


def tail_min_x_exponent(p: int, q: int, d: int, j: int) -> int:
    """Least x-exponent occurring with y^j in the polar of the weight->=2pq+d tail.

    The tail at height h holds every x^i y^h from i = first(h) upward, where
    first(h) is the least i with i*p + h*q > 2pq + d, or the class point's i0
    at its height j0 (see `curves.tail_start`); first(h) >= 1, since
    h*q < 2pq at every tail height.  The x-derivative lands at first(j) - 1,
    and the y-derivative at first(j + 1) when j + 1 <= 2p - 2; the least of
    the two is the answer.
    """
    if not 0 <= j <= 2 * p - 2:
        raise CurveError(f"need 0 <= j <= {2 * p - 2}, got {j}")
    threshold = 2 * p * q + d
    i0, j0 = tail_start(p, q, d)

    def first(h):
        return i0 if h == j0 else (threshold - h * q) // p + 1

    return min(first(j) - 1, first(j + 1)) if j + 1 <= 2 * p - 2 else first(j) - 1


def lpq_side_points(p: int, q: int, e1: int = 2) -> tuple[Point, ...]:
    """Lattice points of the steep side contributed by f1^(e1-1) * P(f1)."""
    return tuple((i * q, (e1 - i) * p - 1) for i in range(e1))


@lru_cache(maxsize=32)
def polar_model_g2(p: int, q: int, d: int) -> PolarModel:
    check_family(p, q, d)
    threshold = 2 * p * q + d

    # heights p..2p-2 keep the tail minimum alone: they lie above the steep
    # side, which has no lattice points there
    low = {j: tail_min_x_exponent(p, q, d, j) for j in range(2 * p - 1)}
    steep = lpq_side_points(p, q, 2)
    for (x, j) in steep + tuple((min_x_exponent(p, q, j) + q, j) for j in range(p)):
        low[j] = min(x, low.get(j, x))

    def coeff_at(x, j):
        h = polar_coefficient(partial(coefficient_tail, p, q, d), x, j)
        for v in h.variables():
            if v.kind == "bij":
                w = v.i * p + v.j * q
                assert threshold <= w < threshold + p, "tail coefficient outside the safe weight window"
        return _product_polar_coeff(p, q, x, j) + h

    model = build_model(tuple((low[j], j) for j in range(2 * p)), coeff_at,
                        nonvanishing={bvar(*tail_start(p, q, d))})
    assert model.sides[-1] == tuple(sorted(steep, key=lambda pt: pt[1])), \
        "the tail must stay above the steep side"
    assert model.predicted_polygon().top == (0, 2 * p - 1)
    return model


# -- classifier ------------------------------------------------------------


class InvalidSemigroupError(ValueError):
    pass


@dataclass(frozen=True)
class Classification:
    nondegenerate: bool
    genus: int
    reason: str


def _validate_semigroup(gens) -> list[int]:
    v = [int(g) for g in gens]
    if len(v) < 2:
        raise InvalidSemigroupError("need at least two minimal generators (positive genus)")
    if any(g < 1 for g in v):
        raise InvalidSemigroupError("generators must be positive")
    if sorted(v) != v or len(set(v)) != len(v):
        raise InvalidSemigroupError("generators must be strictly increasing")
    if v[0] < 2:
        raise InvalidSemigroupError("v0 must be at least 2 for a singular branch")
    e = [v[0]]
    for k in range(1, len(v)):
        ek = math.gcd(e[k - 1], v[k])
        if ek == e[k - 1]:
            raise InvalidSemigroupError(f"generator {v[k]} does not drop the gcd chain")
        e.append(ek)
    if e[-1] != 1:
        raise InvalidSemigroupError("gcd of the generators must be 1")
    for k in range(1, len(v) - 1):
        n_k = e[k - 1] // e[k]
        if v[k + 1] <= n_k * v[k]:
            raise InvalidSemigroupError(
                f"v{k + 1} = {v[k + 1]} must exceed {n_k} * v{k} = {n_k * v[k]}"
            )
    return v


def classify_nondegenerate(gens) -> Classification:
    """Decide from the value semigroup whether the general member of the
    equisingularity class has a Newton nondegenerate general polar."""
    v = _validate_semigroup(gens)
    genus = len(v) - 1
    if genus == 1:
        return Classification(True, 1, f"genus 1 semigroup <{v[0]},{v[1]}>")
    if genus == 2:
        e1 = math.gcd(v[0], v[1])
        p, q = v[0] // e1, v[1] // e1
        d = v[2] - e1 * p * q
        assert d >= 1 and math.gcd(e1, d) == 1
        if e1 == 2:
            return Classification(
                True, 2, f"genus 2 with e1=2: <2*{p},2*{q},2*{p}*{q}+{d}>, d={d} odd"
            )
        return Classification(
            False, 2,
            f"genus 2 with e1={e1} > 2: the side through (0,{e1 * p - 1}) has associated "
            f"polynomial proportional to (z^{p}-1)^{e1 - 1}, which has multiple roots",
        )
    return Classification(
        False, genus,
        f"genus {genus} >= 3: the general polar always carries a branch of genus above 1",
    )

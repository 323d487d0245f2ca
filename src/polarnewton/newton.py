"""Newton polygons, the one associated-polynomial rule `associated_from`, the
nondegeneracy test, and the decomposition of a nondegenerate germ into branch
classes with their pairwise intersection numbers.

Conventions: the polygon is the lower-left hull of the exponent support plus
the positive quadrant; `sides` keeps the compact faces ordered from steepest
(touching the vertical axis) to shallowest (touching the horizontal axis).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import MPoly, UPoly, nonzero_discriminant, squarefree_info
from .curves import PlaneSeries, Point


class PolygonError(ValueError):
    pass


@dataclass(frozen=True)
class Side:
    """A compact face, from its high-j endpoint down to its high-i endpoint."""

    from_pt: Point
    to_pt: Point
    lattice_points: tuple[Point, ...]
    n: int  # height
    m: int  # width
    d: int  # gcd(n, m) = number of primitive steps


def _make_side(top: Point, bottom: Point) -> Side:
    n = top[1] - bottom[1]
    m = bottom[0] - top[0]
    if n <= 0 or m <= 0:
        raise PolygonError(f"degenerate side {top}-{bottom}")
    d = math.gcd(n, m)
    step = (m // d, -(n // d))
    pts = tuple((top[0] + k * step[0], top[1] + k * step[1]) for k in range(d + 1))
    return Side(from_pt=top, to_pt=bottom, lattice_points=pts, n=n, m=m, d=d)


@dataclass(frozen=True)
class NewtonPolygon:
    sides: tuple[Side, ...]
    top: Point
    bottom: Point

    def vertices(self) -> tuple[Point, ...]:
        if not self.sides:
            return (self.top,)
        return tuple([self.sides[0].from_pt] + [s.to_pt for s in self.sides])


def newton_polygon_from_points(points) -> NewtonPolygon:
    """The polygon of a support, given as any iterable of points (read once).

    One pass keeps the lowest j of each column i; only the distinct i are
    sorted.  The staircase of dominance-minimal points (j falling as i rises)
    then gives the lower hull: a clockwise or straight turn means the middle
    point is on or above the chord, so it is not a vertex.
    """
    low: dict[int, int] = {}
    for i, j in points:
        if j < low.get(i, j + 1):
            low[i] = j
    if not low:
        raise PolygonError("empty support")
    hull: list[Point] = []
    for i in sorted(low):
        j = low[i]
        if hull and j >= hull[-1][1]:  # dominated by a point to its left
            continue
        while len(hull) >= 2:
            (i0, j0), (i1, j1) = hull[-2], hull[-1]
            if (i1 - i0) * (j - j0) - (j1 - j0) * (i - i0) > 0:
                break
            hull.pop()
        hull.append((i, j))
    sides = tuple(_make_side(hull[k], hull[k + 1]) for k in range(len(hull) - 1))
    return NewtonPolygon(sides=sides, top=hull[0], bottom=hull[-1])


def newton_polygon(f: PlaneSeries) -> NewtonPolygon:
    if f.is_zero():
        raise PolygonError("Newton polygon of the zero series")
    return newton_polygon_from_points(f.terms)


def associated_from(points, coeff_at) -> UPoly:
    """Associated polynomial of a side from its lattice points: the sum of
    coeff_at(i, j) z^(j - lowest j); its degree is the side height."""
    j0 = min(j for (_i, j) in points)
    coeffs = [MPoly.zero()] * (max(j for (_i, j) in points) - j0 + 1)
    for (i, j) in points:
        coeffs[j - j0] = coeff_at(i, j)
    F = UPoly(coeffs)
    assert F.deg == len(coeffs) - 1, "associated polynomial must have the side height as degree"
    return F


@dataclass(frozen=True)
class SideVerdict:
    """A side's squarefree verdict; `associated`, the side's associated
    polynomial, is built from `series` when first read."""

    side: Side
    squarefree: bool
    path: str  # "concrete" or "symbolic"
    series: PlaneSeries = field(repr=False)

    @cached_property
    def associated(self) -> UPoly:
        return associated_from(self.side.lattice_points, self.series.coeff)


@dataclass(frozen=True)
class NondegReport:
    verdict: str  # "nondegenerate" | "degenerate" | "generically_nondegenerate"
    sides: tuple[SideVerdict, ...]
    polygon: NewtonPolygon

    @property
    def nondegenerate(self) -> bool:
        return self.verdict != "degenerate"


def is_nondegenerate(f: PlaneSeries) -> NondegReport:
    """Squarefree test of every associated polynomial.

    A side of a concrete series goes to `algebra.nonzero_discriminant` as its
    integer numerators, with no `UPoly`; its end coefficients are nonzero, so
    a nonzero discriminant is the squarefree verdict.  A side of a symbolic
    series takes `squarefree_info`; one with symbolic coefficients only
    certifies the generic member, so the overall verdict is downgraded
    accordingly.
    """
    poly = newton_polygon(f)
    numerator = f.terms.nums.get if f.is_concrete() else None
    verdicts = []
    any_symbolic = False
    all_ok = True
    for side in poly.sides:
        if numerator is not None:
            nums = [0] * (side.n + 1)
            for (i, j) in side.lattice_points:
                nums[j - side.to_pt[1]] = numerator((i, j), 0)
            ok, path = nonzero_discriminant(nums), "concrete"
        else:
            ok, path = squarefree_info(associated_from(side.lattice_points, f.coeff))
        any_symbolic |= path == "symbolic"
        all_ok &= ok
        verdicts.append(SideVerdict(side=side, squarefree=ok, path=path, series=f))
    if not all_ok:
        verdict = "degenerate"
    elif any_symbolic:
        verdict = "generically_nondegenerate"
    else:
        verdict = "nondegenerate"
    return NondegReport(verdict=verdict, sides=tuple(verdicts), polygon=poly)


# -- branch classes and intersection numbers -----------------------------------


@dataclass(frozen=True)
class BranchClass:
    """d branch(es) whose value semigroup is generated by {a0, a1}."""

    a0: int
    a1: int
    count: int = 1

    def __post_init__(self):
        if math.gcd(self.a0, self.a1) != 1:
            raise PolygonError("branch class generators must be coprime")
        if self.a0 > self.a1:
            raise PolygonError("branch class must be ordered a0 <= a1")

    def key(self) -> tuple[int, int]:
        return (self.a0, self.a1)


@dataclass(frozen=True)
class TopologyReport:
    """Branch class multiset plus the intersection table over the individual
    branches (classes expanded by count, in sorted class order)."""

    branches: tuple[BranchClass, ...]
    intersections: tuple[tuple[int, ...], ...]

    def expanded_keys(self) -> list[tuple[int, int]]:
        out = []
        for cls in self.branches:
            out.extend([cls.key()] * cls.count)
        return out


def oka_decomposition(polygon: NewtonPolygon) -> TopologyReport:
    """Branch classes of a nondegenerate germ read off the polygon.

    Each side of height n and width m contributes gcd(n, m) branches with
    semigroup generators {n/d, m/d}; two branches meet with multiplicity
    min(a0*b1, b0*a1).  Callers are responsible for the squarefree hypothesis.
    """
    if polygon.top[0] != 0:
        raise PolygonError("support must touch the vertical axis (x divides the series?)")
    if polygon.bottom[1] != 0:
        raise PolygonError("support must touch the horizontal axis (y divides the series?)")
    if not polygon.sides:
        raise PolygonError("polygon has no compact side")
    keys = []
    for side in polygon.sides:
        pair = tuple(sorted((side.n // side.d, side.m // side.d)))
        keys.extend([pair] * side.d)
    keys.sort()
    classes = tuple(BranchClass(a0=k[0], a1=k[1], count=c) for k, c in Counter(keys).items())
    table = tuple(tuple(0 if r == c else min(k1[0] * k2[1], k2[0] * k1[1]) for c, k2 in enumerate(keys))
                  for r, k1 in enumerate(keys))
    return TopologyReport(branches=classes, intersections=table)

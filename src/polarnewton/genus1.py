"""Predicted polar geometry for branches with a two-generator semigroup <p, q>.

For the generic normal-form member y^p - x^q + sum a[i,j] x^i y^j (j <= p-2)
the general polar has, at each height j < p, a lowest point, read off the
member's row starts (`curves.row_starts_g1`, `curves.polar_low_points`);
the lower hull of those points is the predicted Newton polygon, whose
vertices the tests check against the convergents of q/p.  This module
builds that polygon, the associated polynomial of each side, the
coefficient locus outside which the prediction holds with every side
squarefree, and the resulting branch topology.  The locus is one
`DegeneracyLocus`, kept as data, the lowest terms and the deflated side
polynomials: a family point is evaluated once, over integers, into the test
of a pencil point there (`pencil_test`), and a side discriminant is expanded
only when the listing cannot drop it unexpanded.  The model and
its builder serve genus two as well (see genus2), which supplies its own
row starts and coefficients.

A lattice point of a side need not carry a polar term: at height p-2 the
normal form leaves only the x-derivative route, which lands strictly right of
the side whenever the side passes through height p-2 (p >= 3).  Such points
enter the side polynomials with coefficient zero and impose no condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, partial

from .algebra import (A, B, IntegerPlan, MPoly, UPoly, Var, deflate, discriminant, nonzero_discriminant,
                      strip_content)
from .curves import PlaneSeries, check_family, coefficient_g1, polar_coefficient, polar_low_points, row_starts_g1
from .newton import (NewtonPolygon, Point, TopologyReport, associated_from, is_nondegenerate,
                     newton_polygon_from_points, oka_decomposition)

__all__ = [
    "LocusError",
    "DegeneracyLocus",
    "build_locus",
    "PolarModel",
    "build_model",
    "polar_model_g1",
]


class LocusError(ValueError):
    pass


@dataclass(frozen=True)
class DegeneracyLocus:
    """The coefficient conditions of a model, whose union of zero sets must
    be avoided, kept as data: the lowest term at each side height and the
    deflated polynomial G of each side of degree >= 1.  The conditions are
    the lowest terms and the discriminants disc G; every lowest term and
    every coefficient of G is linear in the pencil point (a, b), so
    `pencil_test` evaluates the family point once, exactly, over integers,
    and expands no discriminant.  The listing (`groups`) expands, by
    `build_locus` when first read, the conditions it cannot drop
    unexpanded; `nonvanishing` names the variables that are nonzero on the
    whole class.
    """

    lowest: tuple[MPoly, ...]
    sides: tuple[UPoly, ...]
    nonvanishing: frozenset[Var] = frozenset()

    @cached_property
    def groups(self) -> tuple[tuple[MPoly, ...], ...]:
        """The listing: each group is a simultaneous-vanishing condition, and
        the member it encodes fails only where every polynomial of the group
        is zero.  A side whose disc G is a nonzero binary form at the family
        point 0 is left out unexpanded: weight x, y, a, b by p, q, p, q and
        each family variable so that its term is isobaric, and every
        (a, b)-coefficient of disc G is weighted-homogeneous, so one with a
        nonzero constant term is a constant, which `build_locus` drops."""
        zero = dict.fromkeys(self._split[0].variables, 0)
        kept = [G for G in self.sides if DegeneracyLocus((), (G,)).pencil_test(zero) is None]
        return build_locus(self.lowest + tuple(discriminant(G) for G in kept), self.nonvanishing)

    @cached_property
    def _split(self):
        """One `IntegerPlan` over the distinct A- and B-parts of the lowest
        terms and side coefficients, and per form the indices of its two
        parts (-1 for a zero part).  A side of degree 1 has disc G = 1 and is
        left out."""
        parts: dict[MPoly, int] = {}

        def indices(form: MPoly) -> tuple[int, int]:
            split = form.coefficients_in([A, B])
            if not split.keys() <= {(1, 0), (0, 1)}:
                raise LocusError(f"condition {form.render()} is not linear in the pencil point")
            return tuple(parts.setdefault(split[e], len(parts)) if e in split else -1
                         for e in ((1, 0), (0, 1)))

        lowest = tuple(indices(c) for c in self.lowest)
        sides = tuple(tuple(indices(c) for c in G.coeffs) for G in self.sides if G.deg >= 2)
        return IntegerPlan(parts), lowest, sides

    def pencil_test(self, assignment):
        """The parts at the family point, evaluated once, as `test(x, y)`:
        True when every lowest term and every disc G is nonzero at the
        integer pencil (x : y).  The conditions' product is a binary form of
        degree D, the number of lowest terms plus 2 deg G - 2 per side of
        degree >= 2, so when `test` fails at the D + 1 ratios (r : 1),
        r = 0, ..., D, some condition vanishes at every pencil and the result
        is None.  The conditions are read as given, so a `nonvanishing`
        variable at 0 may make one vanish, and a missing value raises the
        `AlgebraError` of `IntegerPlan.at`."""
        plan, lowest, sides = self._split
        v = plan.at(assignment)[0]
        v.append(0)

        def test(x: int, y: int) -> bool:
            for i, j in lowest:
                if not v[i] * x + v[j] * y:
                    return False
            for side in sides:
                if not nonzero_discriminant([v[i] * x + v[j] * y for i, j in side]):
                    return False
            return True

        for r in range(len(lowest) + sum(2 * len(side) - 4 for side in sides) + 1):
            if test(r, 1):
                return test
        return None


def build_locus(raw_conditions, nonvanishing=()) -> tuple[tuple[MPoly, ...], ...]:
    """Normalize raw vanishing conditions into the groups of a locus listing.

    Every raw condition is a polynomial in the pencil parameters a, b and the
    family coefficients.  It fails for a general pencil point exactly when all
    its (a, b)-coefficients vanish; coefficients that are nonzero constants
    therefore kill the condition.  The variables in `nonvanishing` are nonzero
    on the whole class (its defining coefficient), so monomial factors in them
    are stripped as well, and a coefficient left constant kills the condition.
    """
    groups: set[tuple[MPoly, ...]] = set()
    for raw in raw_conditions:
        if raw.is_zero():
            raise LocusError("identically zero raw condition")
        coeffs = list(raw.coefficients_in([A, B]).values())
        keep = {v for c in coeffs for v in c.variables()} - set(nonvanishing)
        coeffs = [strip_content(c, keep) for c in coeffs]
        if any(c.is_constant() for c in coeffs):
            continue
        groups.add(tuple(sorted(coeffs, key=lambda p: (p.total_degree(), p.render()))))
    return tuple(sorted(groups, key=lambda g: (len(g), [(p.total_degree(), p.render()) for p in g])))


@dataclass(frozen=True)
class PolarModel:
    """Predicted general polar of one family: its Newton polygon, side
    polynomials, degeneracy locus and topology.  The generic verdict is
    computed when first read; no build does."""

    low_points: tuple[Point, ...]  # the generic polar's lowest (x, j) at each height j, indexed by j
    sides: tuple[tuple[Point, ...], ...]  # bottom side first; ascending j within a side
    side_polys: tuple[UPoly, ...]
    locus: DegeneracyLocus
    topology: TopologyReport

    @cached_property
    def generic_verdict(self) -> str:
        """`is_nondegenerate`'s verdict on the generic polar, read off the side
        lattice points with their side-polynomial coefficients: the polygon
        is the predicted one and the side polynomials are `side_polys`."""
        terms = {(i, j): F.coeffs[j - pts[0][1]] for pts, F in zip(self.sides, self.side_polys) for i, j in pts}
        return is_nondegenerate(PlaneSeries(terms)).verdict

    def predicted_polygon(self) -> NewtonPolygon:
        return newton_polygon_from_points([pt for pts in self.sides for pt in pts])

    def predicted_points(self) -> tuple[Point, ...]:
        return _points_on_profile(self.sides, self.low_points)


def _points_on_profile(sides, low_points) -> tuple[Point, ...]:
    """Side lattice points that carry the lowest term of their height; the
    others have coefficient zero in the generic polar."""
    return tuple(sorted({pt for pts in sides for pt in pts if pt == low_points[pt[1]]}))


def build_model(low_points, coeff_at, nonvanishing=()) -> PolarModel:
    """The predicted polar from the lowest point at each height.

    `low_points[j]` is the lowest (x, j) the generic polar can reach at height
    j, and `coeff_at(x, j)` is its generic coefficient at a side lattice
    point.  The polygon is the lower hull of the low points.  The locus asks
    that no lowest term on a side and no discriminant of a deflated side
    polynomial vanish; with the lowest terms at the side's ends nonzero, that
    is the condition disc F != 0 (see `algebra.deflate`).  Those conditions
    are kept as the `DegeneracyLocus`, the lowest terms and the deflated
    sides, and no discriminant is expanded here.  `nonvanishing` names the
    class variables that the listing strips.  `coeff_at` is called once per
    point: a vertex shared by two sides and each lowest term read the side's
    computed coefficient.
    """
    coeff_at = cache(coeff_at)  # one dict per build
    polygon = newton_polygon_from_points(low_points)
    sides = tuple(tuple(reversed(side.lattice_points)) for side in reversed(polygon.sides))
    side_polys = tuple(associated_from(pts, coeff_at) for pts in sides)
    heights = sorted(j for (_x, j) in _points_on_profile(sides, low_points))
    lowest = tuple(coeff_at(*low_points[j]) for j in heights)
    return PolarModel(
        low_points=tuple(low_points),
        sides=sides,
        side_polys=side_polys,
        locus=DegeneracyLocus(lowest, tuple(deflate(F) for F in side_polys if F.deg >= 1),
                              frozenset(nonvanishing)),
        topology=oka_decomposition(polygon),
    )


@lru_cache(maxsize=32)
def polar_model_g1(p: int, q: int) -> PolarModel:
    check_family(p, q)
    return build_model(polar_low_points(row_starts_g1(p, q)),
                       partial(polar_coefficient, partial(coefficient_g1, p, q)))

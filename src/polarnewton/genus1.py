"""Predicted polar geometry for branches with a two-generator semigroup <p, q>.

For the generic normal-form member y^p - x^q + sum a[i,j] x^i y^j (j <= p-2)
the general polar has, at each height j < p, a lowest possible x-exponent;
the lower hull of those points is the predicted Newton polygon.  For p >= 3
it is governed by the continued fraction of q/p; for p = 2 it is the single
side (q-1, 0)-(0, 1).  This module builds that polygon, the associated
polynomial of each side, the coefficient locus outside which the prediction
holds with every side squarefree, and the resulting branch topology.  The
locus is one `DegeneracyLocus`, kept as data, the lowest terms and the
deflated side polynomials: a point is tested by exact integer evaluation,
and the side discriminants are expanded only when the locus is listed.  The
model and its builder serve genus two as well (see genus2), which supplies
its own lowest points and coefficients.

A lattice point of a side need not carry a polar term: at height p-2 the
normal form leaves only the x-derivative route, which lands strictly right of
the side whenever the side passes through height p-2 (p >= 3).  Such points
enter the side polynomials with coefficient zero and impose no condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial

from .algebra import (A, B, IntegerPlan, IntegerPoint, MPoly, UPoly, Var, X, Y, deflate, discriminant,
                      nonzero_discriminant, strip_content)
from .cfrac import ContinuedFraction, continued_fraction, convergents
from .curves import CurveError, check_family, coefficient_g1, polar_coefficient
from .newton import (NewtonPolygon, Point, TopologyReport, associated_from, newton_polygon_from_points,
                     oka_decomposition)

__all__ = [
    "LocusError",
    "DegeneracyLocus",
    "build_locus",
    "min_x_exponent",
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
    every coefficient of G is linear in the pencil point (a, b), so both
    tests below evaluate the family point once, exactly, over integers, and
    expand no discriminant.  The listing (`groups`) expands them by
    `build_locus` when first read; `nonvanishing` names the variables that
    are nonzero on the whole class.
    """

    lowest: tuple[MPoly, ...]
    sides: tuple[UPoly, ...]
    nonvanishing: frozenset[Var] = frozenset()
    _last: list = field(default_factory=lambda: [None, None], init=False, repr=False, compare=False)

    @cached_property
    def raw(self) -> tuple[MPoly, ...]:
        """The conditions expanded: each lowest term, then each disc G."""
        return self.lowest + tuple(discriminant(G) for G in self.sides)

    @cached_property
    def groups(self) -> tuple[tuple[MPoly, ...], ...]:
        """The listing: each group is a simultaneous-vanishing condition, and
        the member it encodes fails only where every polynomial of the group
        is zero."""
        return build_locus(self.raw, self.nonvanishing)

    @property
    def generators(self) -> tuple[MPoly, ...]:
        """The flat hypersurface list, when every group is a singleton (as in
        all pinned families)."""
        for g in self.groups:
            if len(g) != 1:
                raise LocusError(
                    "locus involves a simultaneous-vanishing condition; "
                    "use .groups for the full description"
                )
        return tuple(g[0] for g in self.groups)

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

    def _values(self, assignment) -> list[int]:
        """The parts at the family point over one positive denominator, then a
        0 that index -1 reads; a verify draw's `IntegerPoint` is read through
        the plan's positions in the family order, fixed at the first read.
        The parts at the last `IntegerPoint` read are kept, so the pencil
        checks of an accepted draw reuse those of its locus test."""
        if isinstance(assignment, IntegerPoint) and self._last[0] is assignment:
            return self._last[1]
        values = self._split[0].at(assignment)[0]
        values.append(0)
        self._last[:] = assignment, values
        return values

    def vanishes_at(self, assignment) -> bool:
        """True when some condition vanishes at the family point for every
        pencil point: a lowest term with both parts 0, or a side whose disc G,
        a binary form of degree 2d - 2 in (a, b), is 0 at the 2d - 1 ratios
        (r : 1), r = 0, ..., 2d - 2.  The conditions are read as given, so a
        `nonvanishing` variable at 0 may make one vanish, and a missing value
        raises the `AlgebraError` of `IntegerPlan.at`."""
        _plan, lowest, sides = self._split
        v = self._values(assignment)
        for i, j in lowest:
            if not (v[i] or v[j]):
                return True
        for side in sides:
            pa, pb = [v[i] for i, _ in side], [v[j] for _, j in side]
            for r in range(2 * len(side) - 3):
                if nonzero_discriminant([r * x + y for x, y in zip(pa, pb)]):
                    break
            else:
                return True
        return False

    def nonzero_at(self, assignment, a, b) -> bool:
        """True when no condition vanishes at the family point and the
        pencil point (a, b), rationals scaled here to one denominator."""
        _plan, lowest, sides = self._split
        v = self._values(assignment)
        x, y = a.numerator * b.denominator, b.numerator * a.denominator
        for i, j in lowest:
            if not v[i] * x + v[j] * y:
                return False
        for side in sides:
            if not nonzero_discriminant([v[i] * x + v[j] * y for i, j in side]):
                return False
        return True


def build_locus(raw_conditions, nonvanishing=()) -> tuple[tuple[MPoly, ...], ...]:
    """Normalize raw vanishing conditions into the groups of a locus listing.

    Every raw condition is a polynomial in the pencil parameters a, b and the
    family coefficients.  It fails for a general pencil point exactly when all
    its (a, b)-coefficients vanish; coefficients that are nonzero constants
    therefore kill the condition.  The variables in `nonvanishing` are nonzero
    on the whole class (its defining coefficient), so monomial factors in them
    are stripped as well, and a coefficient left constant kills the condition.
    """
    groups: list[tuple[MPoly, ...]] = []
    seen: set[tuple[MPoly, ...]] = set()
    for raw in raw_conditions:
        if raw.is_zero():
            raise LocusError("identically zero raw condition")
        coeffs = list(raw.coefficients_in([A, B]).values())
        keep = {v for c in coeffs for v in c.variables()} - set(nonvanishing)
        coeffs = [strip_content(c, keep) for c in coeffs]
        if any(c.is_constant() for c in coeffs):
            continue
        group = tuple(sorted(coeffs, key=lambda p: (p.total_degree(), p.render())))
        if group not in seen:
            seen.add(group)
            groups.append(group)
    groups.sort(key=lambda g: (len(g), [(p.total_degree(), p.render()) for p in g]))
    return tuple(groups)


def min_x_exponent(p: int, q: int, j: int) -> int:
    """Least x-exponent that can occur with y^j in the generic polar.

    The y-derivative route (from x^i y^(j+1)) gives the least exponent at
    every height except j = p-2, whose y-route would need the y^(p-1) row
    that the normal form leaves empty; there the x-derivative of the lowest
    x^i y^(p-2) sets it (of -x^q itself when p = 2).
    """
    if not 0 <= j <= p - 1:
        raise CurveError(f"need 0 <= j <= {p - 1}, got {j}")
    if j == p - 2:
        return q - (j * q) // p - 1
    return q - ((j + 1) * q) // p


@dataclass(frozen=True)
class PolarModel:
    """Predicted general polar of one family: its Newton polygon, side
    polynomials, degeneracy locus and topology."""

    low_points: tuple[Point, ...]  # lowest (x, j) at each height j, indexed by j
    sides: tuple[tuple[Point, ...], ...]  # bottom side first; ascending j within a side
    side_polys: tuple[UPoly, ...]
    side_heights: tuple[int, ...]  # heights j whose lowest term must not vanish
    edge_terms: dict[int, MPoly]  # the lowest polar term at each side height
    locus: DegeneracyLocus
    topology: TopologyReport

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
    edge_terms = {j: c * MPoly.monomial(1, {X: low_points[j][0], Y: j}) for j, c in zip(heights, lowest)}
    return PolarModel(
        low_points=tuple(low_points),
        sides=sides,
        side_polys=side_polys,
        side_heights=tuple(heights),
        edge_terms=edge_terms,
        locus=DegeneracyLocus(lowest, tuple(deflate(F) for F in side_polys if F.deg >= 1),
                              frozenset(nonvanishing)),
        topology=oka_decomposition(polygon),
    )


def _convergent_vertices(cf: ContinuedFraction, conv: tuple[tuple[int, int], ...]) -> tuple[Point, ...]:
    """Polygon vertices from the convergents of q/p, bottom first (p >= 3)."""
    pc = [pair[0] for pair in conv]
    qc = [pair[1] for pair in conv]
    out = [(cf.q - qc[2 * k], pc[2 * k] - 1) for k in range(cf.s // 2 + 1) if 2 * k < cf.s]
    return tuple(out + [(0, cf.p - 1)])


@lru_cache(maxsize=32)
def polar_model_g1(p: int, q: int) -> PolarModel:
    check_family(p, q)

    def coeff_at(x, j):
        c = polar_coefficient(partial(coefficient_g1, p, q), x, j)
        for v in c.variables():
            if v.kind == "aij":
                w = v.i * p + v.j * q
                assert p * q < w < p * q + p, "edge term coefficient outside the safe weight window"
        return c

    model = build_model(tuple((min_x_exponent(p, q, j), j) for j in range(p)), coeff_at)
    if p >= 3:
        cf = continued_fraction(q, p)
        vertices = tuple(pts[0] for pts in model.sides) + (model.sides[-1][-1],)
        assert vertices == _convergent_vertices(cf, convergents(cf)), \
            "polygon vertices must follow the convergents of q/p"
    assert sum(side.n for side in model.predicted_polygon().sides) == p - 1, \
        "side heights must add up to the polar multiplicity"
    return model

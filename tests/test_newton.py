import random
from fractions import Fraction

import pytest

from polarnewton.algebra import B, MPoly, UPoly, X, Y, Z, avar
from polarnewton.curves import PlaneSeries, PolarParams, generic_member_g1, polar, substitute
from polarnewton.newton import (
    BranchClass,
    PolygonError,
    associated_from,
    is_nondegenerate,
    newton_polygon,
    newton_polygon_from_points,
    oka_decomposition,
)

from _oracles import hull_oracle, min_rule

x = MPoly.var(X)
y = MPoly.var(Y)
z = MPoly.var(Z)
b = MPoly.var(B)


class TestPolygon:
    def test_single_side(self):
        poly = newton_polygon(PlaneSeries.from_poly(y**7 - x**19))
        assert poly.vertices() == ((0, 7), (19, 0))
        assert len(poly.sides) == 1
        side = poly.sides[0]
        assert (side.n, side.m, side.d) == (7, 19, 1)

    def test_two_sides_with_interior_point(self):
        # the predicted genus-two (5, 12, 1) polar support
        poly = newton_polygon_from_points([(0, 9), (12, 4), (17, 2), (22, 0)])
        assert poly.vertices() == ((0, 9), (12, 4), (22, 0))
        assert poly.sides[1].lattice_points == ((12, 4), (17, 2), (22, 0))

    def test_vertical_and_horizontal_faces_are_not_sides(self):
        poly = newton_polygon_from_points([(1, 3), (1, 1), (2, 1), (4, 1)])
        assert poly.top == (1, 1)
        assert poly.bottom == (1, 1)
        assert poly.sides == ()

    def test_zero_series_rejected(self):
        with pytest.raises(PolygonError):
            newton_polygon(PlaneSeries.from_poly(MPoly.zero()))

    def test_matches_dominance_oracle_on_random_supports(self):
        rng = random.Random(424242)
        for _ in range(100):
            pts = {(rng.randint(0, 14), rng.randint(0, 14)) for _ in range(rng.randint(1, 30))}
            assert list(newton_polygon_from_points(pts).vertices()) == hull_oracle(pts)

    def test_reads_a_one_shot_iterable_with_repeated_columns(self):
        # several points per column, some repeated, in shuffled order, read
        # from a generator that can be walked only once
        rng = random.Random(2525)
        for _ in range(100):
            columns = [rng.randint(0, 12) for _ in range(rng.randint(1, 6))]
            pts = [(i, rng.randint(0, 14)) for i in columns for _ in range(rng.randint(1, 4))]
            pts += rng.sample(pts, len(pts) // 2)
            rng.shuffle(pts)
            got = newton_polygon_from_points(pt for pt in pts)
            assert list(got.vertices()) == hull_oracle(pts)

    def test_height_additivity(self):
        rng = random.Random(99)
        for _ in range(20):
            pts = {(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(12)}
            poly = newton_polygon_from_points(pts)
            assert sum(s.n for s in poly.sides) == poly.top[1] - poly.bottom[1]


class TestSideAndAssociated:
    def test_cusp_side_polynomial(self):
        f = PlaneSeries.from_poly(y**2 - x**3)
        poly = newton_polygon(f)
        side = poly.sides[0]
        F = associated_from(side.lattice_points, f.coeff)
        assert F == UPoly.from_mpoly(z**2 - 1)

    def test_symbolic_generic_polar_side(self):
        fam = generic_member_g1(7, 19)
        pol = polar(fam.generic)
        poly = newton_polygon(pol)
        steep = poly.sides[0]
        assert (steep.from_pt, steep.to_pt) == ((0, 6), (11, 2))
        F = associated_from(steep.lattice_points, pol.coeff)
        a11 = MPoly.var(avar(11, 3))
        assert F == UPoly.from_mpoly(7 * b * z**4 + 3 * b * a11)


class TestNondegeneracy:
    def test_square_is_degenerate(self):
        rep = is_nondegenerate(PlaneSeries.from_poly((y - x) ** 2))
        assert rep.verdict == "degenerate"

    def test_cusp_is_nondegenerate(self):
        rep = is_nondegenerate(PlaneSeries.from_poly(y**2 - x**3))
        assert rep.verdict == "nondegenerate"
        assert all(v.path == "concrete" for v in rep.sides)

    def test_symbolic_series_gets_generic_verdict(self):
        fam = generic_member_g1(5, 12)
        rep = is_nondegenerate(polar(fam.generic))
        assert rep.verdict == "generically_nondegenerate"

    def test_cube_member_power_side_fails(self):
        # f1^3 + tail: the steep side carries (z^2 - 1)^2 up to scale
        f1 = y**2 - x**3 + x**2 * y
        f = PlaneSeries.from_poly(f1**3 + x**10 * y)
        rep = is_nondegenerate(polar(f, PolarParams.concrete(1, 1)))
        assert rep.verdict == "degenerate"
        failing = [v for v in rep.sides if not v.squarefree]
        assert any(v.side.from_pt == (0, 5) for v in failing)


class TestOka:
    def test_pinned_two_side_polygon(self):
        poly = newton_polygon_from_points([(17, 0), (14, 1), (11, 2), (0, 6)])
        report = oka_decomposition(poly)
        assert [(c.a0, c.a1, c.count) for c in report.branches] == [(1, 3, 2), (4, 11, 1)]
        assert report.intersections == ((0, 3, 11), (3, 0, 11), (11, 11, 0))

    def test_single_coprime_side(self):
        poly = newton_polygon_from_points([(0, 7), (19, 0)])
        report = oka_decomposition(poly)
        assert [(c.a0, c.a1, c.count) for c in report.branches] == [(7, 19, 1)]
        assert report.intersections == ((0,),)

    def test_genus_two_polar_polygon(self):
        poly = newton_polygon_from_points([(0, 9), (12, 4), (22, 0)])
        report = oka_decomposition(poly)
        assert [(c.a0, c.a1, c.count) for c in report.branches] == [(2, 5, 2), (5, 12, 1)]
        keys = report.expanded_keys()
        for r in range(3):
            for c in range(3):
                if r != c:
                    assert report.intersections[r][c] == min_rule(keys[r], keys[c])
        assert report.intersections[0][2] == 24

    def test_axis_divisibility_is_an_error(self):
        with pytest.raises(PolygonError, match="x divides"):
            oka_decomposition(newton_polygon(PlaneSeries.from_poly(x * y**2 - x**4)))
        with pytest.raises(PolygonError, match="y divides"):
            oka_decomposition(newton_polygon(PlaneSeries.from_poly(y * (y - x))))

    def test_squarefree_failure_makes_the_verdict_degenerate(self):
        assert is_nondegenerate(PlaneSeries.from_poly((y - x) ** 2 + y**5)).verdict == "degenerate"

    def test_branch_class_validation(self):
        with pytest.raises(PolygonError):
            BranchClass(a0=2, a1=4)
        with pytest.raises(PolygonError):
            BranchClass(a0=5, a1=2)

    def test_multiplicities_add_up_to_height(self):
        rng = random.Random(2718)
        fam = generic_member_g1(5, 12)
        for trial in range(5):
            assignment = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in fam.coeff_vars}
            pol = polar(substitute(fam.generic, assignment), PolarParams.concrete(3, 2))
            nondeg = is_nondegenerate(pol)
            assert nondeg.verdict == "nondegenerate"
            report = oka_decomposition(nondeg.polygon)
            height = nondeg.polygon.top[1] - nondeg.polygon.bottom[1]
            assert sum(c.a0 * c.count for c in report.branches) == height

import random
import re
from fractions import Fraction

import pytest

from polarnewton.algebra import A, B, AlgebraError, MPoly, UPoly, X, Y, Z, avar
from polarnewton.curves import (CurveError, PolarParams, generic_member_g1, generic_member_g2, parse_series, polar,
                                substitute)
from polarnewton.genus1 import DegeneracyLocus, build_locus, min_x_exponent, polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import is_nondegenerate, newton_polygon, oka_decomposition

from _oracles import evaluate

x = MPoly.var(X)
y = MPoly.var(Y)
a = MPoly.var(A)
b = MPoly.var(B)


def rational_multiple(f: MPoly, g: MPoly) -> bool:
    if f.is_zero() or g.is_zero():
        return f == g
    lm, lc = f.leading()
    gm, gc = g.leading()
    if lm != gm:
        return False
    return f * (gc / lc) == g


class TestLowestExponents:
    @pytest.mark.parametrize("p,q,j,expected", [(7, 19, 0, 17), (5, 12, 2, 5), (7, 19, 6, 0), (5, 12, 4, 0)])
    def test_values(self, p, q, j, expected):
        assert min_x_exponent(p, q, j) == expected

    def test_monotone_and_terminal(self):
        for (p, q) in [(2, 3), (5, 12), (7, 19), (4, 7)]:
            vals = [min_x_exponent(p, q, j) for j in range(p)]
            assert vals == sorted(vals, reverse=True)
            assert vals[-1] == 0

    def test_range_errors(self):
        with pytest.raises(CurveError):
            min_x_exponent(7, 19, 7)
        with pytest.raises(CurveError):
            min_x_exponent(7, 19, -1)


def lowest_polar_term(p: int, q: int, j: int) -> MPoly:
    """The generic polar's term at the lowest point of height j, read off the
    polar of the generic member."""
    alpha = min_x_exponent(p, q, j)
    return polar(generic_member_g1(p, q).generic).coeff(alpha, j) * MPoly.monomial(1, {X: alpha, Y: j})


class TestEdgeTerms:
    """Outside height p-2 the y-derivative always reaches the lowest point and
    the x-derivative joins it exactly when the two routes meet; at height p-2
    only the x-derivative is left."""

    def test_single_route_term(self):
        assert lowest_polar_term(7, 19, 1) == 2 * b * MPoly.var(avar(14, 2)) * x**14 * y

    def test_top_term_uses_the_unit_coefficient(self):
        assert lowest_polar_term(7, 19, 6) == 7 * b * y**6

    def test_double_route_term(self):
        # at height 1 of (5, 7) both routes reach x^5 and both monomials
        # sit below y^(p-1), so the normal form keeps them
        got = lowest_polar_term(5, 7, 1)
        expected = (2 * b * MPoly.var(avar(5, 2)) + 6 * a * MPoly.var(avar(6, 1))) * x**5 * y
        assert got == expected

    def test_double_route_at_height_zero_uses_minus_one(self):
        # for p = 2 height 0 is height p-2: the normal form has no y^(p-1)
        # coefficient a[2,1], so only the x-derivative of -x^q is left
        got = lowest_polar_term(2, 3, 0)
        expected = -3 * a * x**2
        assert got == expected

    def test_terms_agree_with_the_direct_polar(self):
        for (p, q) in [(2, 3), (3, 4), (5, 12), (7, 19), (4, 7)]:
            model = polar_model_g1(p, q)
            assert sorted(model.edge_terms) == list(model.side_heights)
            for j in model.side_heights:
                assert model.edge_terms[j] == lowest_polar_term(p, q, j)


class TestPredictedPolygon:
    def test_7_19(self):
        assert polar_model_g1(7, 19).sides == (
            ((17, 0), (14, 1), (11, 2)),
            ((11, 2), (0, 6)),
        )

    def test_5_12(self):
        assert polar_model_g1(5, 12).sides == (((10, 0), (5, 2), (0, 4)),)

    def test_2_3(self):
        assert polar_model_g1(2, 3).sides == (((2, 0), (0, 1)),)

    def test_heights_add_to_polar_multiplicity(self):
        for (p, q) in [(2, 3), (3, 4), (3, 7), (5, 12), (7, 19), (5, 7), (4, 13)]:
            model = polar_model_g1(p, q)
            assert sum(s.n for s in model.predicted_polygon().sides) == p - 1


class TestSidePolynomials:
    def test_7_19_bottom_side(self):
        F = polar_model_g1(7, 19).side_polys[0]
        a11, a14, a17 = (MPoly.var(avar(11, 3)), MPoly.var(avar(14, 2)), MPoly.var(avar(17, 1)))
        assert F == UPoly.from_mpoly(3 * b * a11 * MPoly.var(Z, 2) + 2 * b * a14 * MPoly.var(Z) + b * a17)

    def test_7_19_top_side(self):
        F = polar_model_g1(7, 19).side_polys[1]
        a11 = MPoly.var(avar(11, 3))
        assert F == UPoly.from_mpoly(7 * b * MPoly.var(Z, 4) + 3 * b * a11)

    def test_5_12_single_side(self):
        F = polar_model_g1(5, 12).side_polys[0]
        a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
        assert F == UPoly.from_mpoly(5 * b * MPoly.var(Z, 4) + 3 * b * a53 * MPoly.var(Z, 2) + b * a101)

    def test_index_error(self):
        # one polynomial per side, none past the last side
        model = polar_model_g1(7, 19)
        assert len(model.side_polys) == len(model.sides) == 2
        with pytest.raises(IndexError):
            model.side_polys[2]


class TestLocus:
    def test_7_19(self):
        got = polar_model_g1(7, 19).locus.generators
        a11, a14, a17 = (MPoly.var(avar(11, 3)), MPoly.var(avar(14, 2)), MPoly.var(avar(17, 1)))
        expected = [a11, a14, a17, 3 * a11 * a17 - a14**2]
        assert len(got) == 4
        for e in expected:
            assert any(rational_multiple(g, e) for g in got)

    def test_5_12(self):
        got = polar_model_g1(5, 12).locus.generators
        a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
        expected = [a101, a53, 9 * a53**2 - 20 * a101]
        assert len(got) == 3
        for e in expected:
            assert any(rational_multiple(g, e) for g in got)

    def test_2_3_is_empty(self):
        assert not polar_model_g1(2, 3).locus.groups

    def test_2_5_and_3_7(self):
        # (2, 5): the old generator a[3,1] was a y^(p-1) coefficient, which
        # the shift y -> y - a[3,1]*x^3/2 removes; the only polar term below
        # the top is -5*a*x^4.  (3, 7) keeps its bottom-vertex coefficient
        assert not polar_model_g1(2, 5).locus.groups
        assert [g.render() for g in polar_model_g1(3, 7).locus.generators] == ["a[5,1]"]

    def test_zero_lattice_points_impose_no_condition(self):
        # (2,1) on (3,5) and (2,2) on (4,7) lie on a side at height p-2,
        # where the normal form leaves no polar term
        for (p, q, pt) in [(3, 5, (2, 1)), (4, 7, (2, 2))]:
            model = polar_model_g1(p, q)
            assert any(pt in side for side in model.sides)
            assert pt not in model.predicted_points()
            assert pt[1] not in model.side_heights
            assert polar(generic_member_g1(p, q).generic).coeff(*pt).is_zero()

    # Taking side discriminants on the deflated polynomial dropped one group
    # from each of these listings; every other family kept its listing.
    @pytest.mark.parametrize("p,q,groups,dropped", [
        (8, 11, [["a[7,3]"]], ["a[7,3]", "a[7,3]*a[10,1]"]),
        (8, 19, [["a[12,3]"], ["a[17,1]"]], ["a[12,3]*a[17,1]"]),
        (13, 31, [["a[12,8]"], ["a[24,3]"], ["a[29,1]"], ["16*a[12,8]^2 - 39*a[24,3]"]],
         ["a[24,3]*a[29,1]"]),
        (13, 34, [["a[21,5]"], ["a[29,2]"], ["a[32,1]"]], ["a[21,5]*a[29,2]"]),
        (14, 33, [["a[26,3]"], ["a[31,1]"]], ["a[26,3]*a[31,1]"]),
    ])
    def test_dropped_groups_were_redundant(self, p, q, groups, dropped):
        locus = polar_model_g1(p, q).locus
        assert [[g.render() for g in group] for group in locus.groups] == groups
        # some member of the dropped group is a product of kept singleton
        # generators, so its zero set lies in the union of the kept ones
        kept = [group[0] for group in locus.groups if len(group) == 1]

        def product_of_kept(poly):
            for g in kept:
                try:
                    rest = poly.divexact(g)
                except AlgebraError:
                    continue
                if rest.is_constant() or product_of_kept(rest):
                    return True
            return False

        members = tuple(parse_series(text).poly for text in dropped)
        assert any(product_of_kept(m) for m in members)
        # so sampling sees the same locus with or without the dropped group
        old = locus.groups + (members,)
        vs = sorted({v for group in old for g in group for v in g.variables()})
        rng = random.Random(f"locus:{p}:{q}")
        for _ in range(200):
            point = {v: Fraction(rng.choice([0, 0, rng.randint(-5, 5)])) for v in vs}
            assert vanishes_by_generator(old, point) == vanishes_by_generator(locus.groups, point)

    def test_a_repeated_factor_is_listed_as_given(self):
        # a condition is split into its (a, b)-coefficients and stripped of
        # monomial factors outside the class and of its content, but never
        # into squarefree parts
        a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
        c = 9 * a53**2 - 20 * a101
        raw = [-4 * a * a101 * c**2, 6 * b**2 * c, 5 * a + 2 * b * c]
        assert build_locus(raw) == ((c,), (a101 * c**2,))
        # with a[10,1] nonzero on the class its factor goes, the square stays
        assert build_locus(raw, nonvanishing=(avar(10, 1),)) == ((c,), (c**2,))

    def test_locus_vanishing_probe(self):
        locus = polar_model_g1(7, 19).locus
        fam = generic_member_g1(7, 19)
        zeros = {v: Fraction(0) for v in fam.coeff_vars}
        assert locus.vanishes_at(zeros)
        ones = {v: Fraction(1) for v in fam.coeff_vars}
        assert not locus.vanishes_at(ones)


def vanishes_by_generator(groups, point) -> bool:
    return any(all(evaluate(p, point) == 0 for p in group) for group in groups)


class TestLocusPlan:
    @pytest.mark.parametrize("family", [(7, 19), (5, 12, 1), (7, 19, 1)])
    def test_vanishing_matches_the_per_generator_definition(self, family):
        locus = (polar_model_g1(*family) if len(family) == 2 else polar_model_g2(*family)).locus
        fam = generic_member_g1(*family) if len(family) == 2 else generic_member_g2(*family)
        rng = random.Random(f"plan:{family}")
        seen = set()
        for _ in range(300):
            point = {v: Fraction(0 if rng.random() < 0.2 and v != fam.class_var else rng.choice([-3, -2, -1, 1, 2, 3]),
                                 rng.randint(1, 3)) for v in fam.coeff_vars}
            want = vanishes_by_generator(locus.groups, point)
            assert locus.vanishes_at(point) is want
            seen.add(want)
        assert seen == {True, False}

    def test_a_missing_value_is_named(self):
        # the test reads only the variables of the lowest terms and sides;
        # a draw without one of them is an error that names it
        locus, fam = polar_model_g1(7, 19).locus, generic_member_g1(7, 19)
        read = {"a[11,3]", "a[14,2]", "a[17,1]"}
        point = {v: Fraction(1) for v in fam.coeff_vars}
        for v in fam.coeff_vars:
            partial = {w: c for w, c in point.items() if w != v}
            if v.name in read:
                with pytest.raises(AlgebraError, match=f"^{re.escape(f'missing values for: {v.name}')}$"):
                    locus.vanishes_at(partial)
            else:
                assert not locus.vanishes_at(partial)
        with pytest.raises(AlgebraError, match=f"^{re.escape('missing values for: ' + ', '.join(sorted(read)))}$"):
            locus.vanishes_at({})


LADDER = [(7, 19), (11, 29), (15, 41), (14, 37), (17, 45), (5, 12, 1), (8, 21, 1), (11, 30, 1), (11, 29, 1)]
# families whose side coefficients have an a-part: the ratio test reads past r = 0
A_PARTS = [(4, 7), (5, 9), (6, 11), (7, 10), (4, 7, 1), (5, 9, 1)]


def _solve_for_first_variable(form: MPoly, target, point, keep=None) -> dict | None:
    """The point with the first variable of `form` other than `keep` (form is
    linear in it) changed so that `form` takes the value `target` there; None
    when no such variable is left."""
    free = sorted(form.variables() - {keep})
    if not free:
        return None
    split = form.coefficients_in([free[0]])
    assert set(split) <= {(0,), (1,)}
    rest = evaluate(split[(0,)], point) if (0,) in split else 0
    return {**point, free[0]: (target - rest) / split[(1,)].constant_value()}


def _on_repeated_root(side: UPoly, rng, point, keep=None) -> tuple[dict, bool]:
    """A point where the b-part of the side's G is a multiple of
    (z - r)^2 * H(z), and whether it is exactly that with the a-part 0, so
    that disc G vanishes there for every (a, b).  Each nonconstant b-part and
    a-part is solved for its own first variable other than `keep`, to a
    multiple of the target fixed by the first nonzero constant b-part, or to
    0; a constant part stays as it is."""
    exact = True
    parts = [c.coefficients_in([A, B]) for c in side.coeffs]
    for part in (c.get((1, 0), MPoly.zero()) for c in parts):
        if not part.is_zero():
            solved = _solve_for_first_variable(part, 0, point, keep)
            exact &= solved is not None
            point = solved or point
    coeffs = [c.get((0, 1), MPoly.zero()) for c in parts]
    fixed = [k for k, c in enumerate(coeffs) if c.is_constant() and not c.is_zero()]
    while True:
        r = rng.choice([-3, -2, -1, 1, 2, 3])
        target = [r * r, -2 * r, 1]
        for h in [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(side.deg - 2)]:
            target = [x + h * y for x, y in zip([0] + target, target + [0])]
        if all(target[k] for k in fixed):
            break
    scale = Fraction(coeffs[fixed[0]].constant_value()) / target[fixed[0]] if fixed else Fraction(1)
    for k, c in enumerate(coeffs):
        if c.is_constant():
            exact &= c.constant_value() == scale * target[k]
        else:
            solved = _solve_for_first_variable(c, scale * target[k], point, keep)
            exact &= solved is not None
            point = solved or point
    return point, exact


class TestLocusByEvaluation:
    """`vanishes_at` and the pencil check read each model's lowest terms and
    deflated sides by integer evaluation; the expanded locus and raw
    conditions are the definition they must agree with."""

    @pytest.mark.parametrize("family", LADDER + A_PARTS)
    def test_agrees_with_the_expanded_definitions(self, family):
        model = polar_model_g1(*family) if len(family) == 2 else polar_model_g2(*family)
        fam = generic_member_g1(*family) if len(family) == 2 else generic_member_g2(*family)
        rng = random.Random(f"evaluation:{family}")

        def draw():
            point = {v: Fraction(0 if rng.random() < 0.05 else rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                                 rng.randint(1, 3)) for v in fam.coeff_vars}
            if fam.class_var is not None:
                point[fam.class_var] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
            return point

        points = [(draw(), False) for _ in range(80)]
        for side in model.locus.sides:
            if side.deg >= 2:
                points += [_on_repeated_root(side, rng, draw(), fam.class_var) for _ in range(8)]
        for term in model.locus.lowest:
            parts = term.coefficients_in([A, B])
            solved = _solve_for_first_variable(parts.get((0, 1), MPoly.zero()), 0, draw(), fam.class_var)
            if solved is not None:
                points.append((solved, (1, 0) not in parts))
        seen, pencil_seen = set(), set()
        for point, built_on_locus in points:
            if fam.class_var is not None:
                assert point[fam.class_var] != 0
            want = vanishes_by_generator(model.locus.groups, point)
            assert want or not built_on_locus
            assert model.locus.vanishes_at(point) is want
            seen.add(want)
            for _ in range(3):
                ab = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if not any(ab):
                    continue
                full = {**point, A: ab[0], B: ab[1]}
                pencil = all(evaluate(c, full) != 0 for c in model.locus.raw)
                assert model.locus.nonzero_at(point, *ab) is pencil
                pencil_seen.add(pencil)
        assert seen == {True, False}
        assert pencil_seen == {True, False}

    def test_the_ratio_test_reads_all_2d_minus_1_ratios(self):
        # G = a + (b - a) z^2 has disc G = 4a(a - b): 0 at (0 : 1) and
        # (1 : 1), not at (2 : 1), so stopping at 2*deg G - 2 ratios would
        # call it degenerate
        c = DegeneracyLocus(lowest=(), sides=(UPoly([a, MPoly.zero(), b - a]),))
        assert not c.vanishes_at({})
        assert not c.nonzero_at({}, Fraction(1), Fraction(1))
        assert c.nonzero_at({}, Fraction(2), Fraction(1))

    def test_a_zero_class_coefficient_reads_the_conditions(self):
        # the lowest term 2*b[7,2]*b of (3,5,1) is 0 where its class
        # coefficient b[7,2] is, and the test answers for the conditions as
        # given; the listing strips that factor and is empty
        model, fam = polar_model_g2(3, 5, 1), generic_member_g2(3, 5, 1)
        point = {v: Fraction(0 if v == fam.class_var else 1) for v in fam.coeff_vars}
        assert 2 * b * MPoly.var(fam.class_var) in model.locus.lowest
        assert model.locus.vanishes_at(point)
        assert not model.locus.groups


class TestPredictedTopology:
    def test_7_19(self):
        rep = polar_model_g1(7, 19).topology
        assert [(c.a0, c.a1, c.count) for c in rep.branches] == [(1, 3, 2), (4, 11, 1)]
        assert rep.intersections == ((0, 3, 11), (3, 0, 11), (11, 11, 0))

    def test_5_12(self):
        rep = polar_model_g1(5, 12).topology
        assert [(c.a0, c.a1, c.count) for c in rep.branches] == [(2, 5, 2)]
        assert rep.intersections == ((0, 10), (10, 0))

    def test_2_3(self):
        rep = polar_model_g1(2, 3).topology
        assert [(c.a0, c.a1, c.count) for c in rep.branches] == [(1, 2, 1)]


class TestSampledAgreement:
    """Concrete members off the locus must realize the prediction exactly."""

    @pytest.mark.parametrize("p,q", [(2, 3), (3, 4), (4, 7), (5, 12), (7, 19)])
    def test_polygon_and_topology(self, p, q):
        model = polar_model_g1(p, q)
        fam = generic_member_g1(p, q)
        rng = random.Random(f"g1:{p}:{q}")
        trials = 0
        while trials < 5:
            assignment = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                          for v in fam.coeff_vars}
            if model.locus.vanishes_at(assignment):
                continue
            full = dict(assignment)
            ab = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)))
            full[A] = ab[0]
            full[B] = ab[1]
            if any(evaluate(c, full) == 0 for c in model.locus.raw):
                continue
            trials += 1
            pol = polar(substitute(fam.generic, assignment), PolarParams.concrete(*ab))
            poly = newton_polygon(pol)
            assert poly.vertices() == model.predicted_polygon().vertices()
            support = set(pol.terms)
            assert all(pt in support for pt in model.predicted_points())
            nondeg = is_nondegenerate(pol)
            assert nondeg.verdict == "nondegenerate"
            assert oka_decomposition(nondeg.polygon).branches == model.topology.branches

import itertools
import random
import re
from fractions import Fraction

import pytest

from polarnewton import genus1
from polarnewton.algebra import A, B, AlgebraError, MPoly, UPoly, X, Y, Z, avar
from polarnewton.curves import (generic_member_g1, generic_member_g2, parse_series, polar,
                                polar_coefficient, polar_low_points, substitute)
from polarnewton.genus1 import DegeneracyLocus, build_locus, build_model, polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import is_nondegenerate, newton_polygon, oka_decomposition

from _oracles import evaluate, min_x_exponent
from _support import edge_terms, member_of, model_of, rational_multiple, raw, side_heights
from test_low_points import member_row_starts
from test_model_digests import G1_BOX, G2_BOX

x = MPoly.var(X)
y = MPoly.var(Y)
a = MPoly.var(A)
b = MPoly.var(B)


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
        with pytest.raises(ValueError):
            min_x_exponent(7, 19, 7)
        with pytest.raises(ValueError):
            min_x_exponent(7, 19, -1)


def lowest_polar_term(p: int, q: int, j: int) -> MPoly:
    """The generic polar's term at the model's lowest point of height j, read
    off the polar of the generic member."""
    alpha = polar_model_g1(p, q).low_points[j][0]
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
            terms = edge_terms(model)
            assert sorted(terms) == list(side_heights(model))
            for j in side_heights(model):
                assert terms[j] == lowest_polar_term(p, q, j)

    def test_a_build_forms_no_edge_term(self, monkeypatch):
        # the edge terms are formed when read, never by a build
        calls = []
        monomial = MPoly.monomial.__func__

        def counted(cls, *args):
            calls.append(args)
            return monomial(cls, *args)

        monkeypatch.setattr(MPoly, "monomial", classmethod(counted))
        models = [polar_model_g1.__wrapped__(7, 19), polar_model_g2.__wrapped__(5, 12, 1)]
        assert calls == []
        read = sum(len(edge_terms(m)) for m in models)
        assert len(calls) == read == 8


class TestGenericVerdict:
    """The model's verdict against the nondegeneracy test of the generic
    member's whole symbolic polar, the route it replaced."""

    @staticmethod
    def reference(member):
        return is_nondegenerate(polar(member)).verdict

    def test_matches_the_whole_generic_polar_on_the_digest_box(self):
        # genus one p <= 9 and genus two p <= 5: 335 of the box's 730 families
        fams = [fam for fam in G1_BOX if fam[0] <= 9] + [fam for fam in G2_BOX if fam[0] <= 5]
        assert len(fams) == 335
        for fam in fams:
            verdict = self.reference(member_of(fam).generic)
            assert model_of(fam).generic_verdict == verdict == "generically_nondegenerate", fam

    @pytest.mark.parametrize("p,q,d,e1", [(2, 3, 1, 3), (3, 4, 1, 3), (3, 5, 1, 4), (2, 5, 1, 5)])
    def test_a_power_member_is_degenerate(self, p, q, d, e1):
        # the shared builder on an f1^e1 + f2 member, e1 > 2, read off its
        # row starts and its polar coefficients: the steep side is a power
        member = generic_member_g2(p, q, d, e1=e1).generic
        starts = member_row_starts(member, e1 * p)
        model = build_model(polar_low_points(starts), lambda x, j: polar_coefficient(member.coeff, x, j))
        assert model.generic_verdict == self.reference(member) == "degenerate"

    def test_a_build_reads_no_verdict(self, monkeypatch):
        # the verdict is read when first asked for, never by a build
        calls = []
        monkeypatch.setattr(genus1, "is_nondegenerate", lambda f: calls.append(f) or is_nondegenerate(f))
        models = [polar_model_g1.__wrapped__(7, 19), polar_model_g2.__wrapped__(5, 12, 1)]
        assert calls == []
        for _ in range(2):  # the second read is the kept value
            assert [m.generic_verdict for m in models] == ["generically_nondegenerate"] * 2
        assert len(calls) == 2


class TestWeightWindow:
    """Every family coefficient in a model's side-point coefficients has a
    weight just above its class's threshold, below the member's default
    weight bound (p*q + p + q in genus one, 2pq + d + 2p in genus two), so a
    draw of the truncated member assigns every variable a model names."""

    @staticmethod
    def weights(model, kind: str, p: int, q: int) -> set[int]:
        return {v.i * p + v.j * q for F in model.side_polys for c in F.coeffs
                for v in c.variables() if v.kind == kind}

    def test_genus_one_a_weights_lie_strictly_between_pq_and_pq_plus_p(self):
        seen = 0
        for p, q in G1_BOX:
            weights = self.weights(polar_model_g1(p, q), "aij", p, q)
            assert all(p * q < w < p * q + p for w in weights), ((p, q), sorted(weights))
            seen += len(weights)
        assert seen == 568  # distinct weights over the box: the check is not vacuous

    def test_genus_two_tail_b_weights_lie_in_the_tails_first_p_weights(self):
        seen = 0
        for p, q, d in G2_BOX:
            weights, t = self.weights(polar_model_g2(p, q, d), "bij", p, q), 2 * p * q + d
            assert all(t <= w < t + p for w in weights), ((p, q, d), sorted(weights))
            seen += len(weights)
        assert seen == 133  # most tails land right of every side


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
        got = [g for (g,) in polar_model_g1(7, 19).locus.groups]
        a11, a14, a17 = (MPoly.var(avar(11, 3)), MPoly.var(avar(14, 2)), MPoly.var(avar(17, 1)))
        expected = [a11, a14, a17, 3 * a11 * a17 - a14**2]
        assert len(got) == 4
        for e in expected:
            assert any(rational_multiple(g, e) for g in got)

    def test_5_12(self):
        got = [g for (g,) in polar_model_g1(5, 12).locus.groups]
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
        assert [g.render() for (g,) in polar_model_g1(3, 7).locus.groups] == ["a[5,1]"]

    def test_zero_lattice_points_impose_no_condition(self):
        # (2,1) on (3,5) and (2,2) on (4,7) lie on a side at height p-2,
        # where the normal form leaves no polar term
        for (p, q, pt) in [(3, 5, (2, 1)), (4, 7, (2, 2))]:
            model = polar_model_g1(p, q)
            assert any(pt in side for side in model.sides)
            assert pt not in model.predicted_points()
            assert pt[1] not in side_heights(model)
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
        assert locus.pencil_test(zeros) is None
        ones = {v: Fraction(1) for v in fam.coeff_vars}
        assert locus.pencil_test(ones) is not None


def vanishes_by_generator(groups, point) -> bool:
    return any(all(evaluate(p, point) == 0 for p in group) for group in groups)


class TestLocusPlan:
    @pytest.mark.parametrize("family", [(7, 19), (5, 12, 1), (7, 19, 1)])
    def test_vanishing_matches_the_per_generator_definition(self, family):
        locus, fam = model_of(family).locus, member_of(family)
        rng = random.Random(f"plan:{family}")
        seen = set()
        for _ in range(300):
            point = {v: Fraction(0 if rng.random() < 0.2 and v != fam.class_var else rng.choice([-3, -2, -1, 1, 2, 3]),
                                 rng.randint(1, 3)) for v in fam.coeff_vars}
            want = vanishes_by_generator(locus.groups, point)
            assert (locus.pencil_test(point) is None) is want
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
                    locus.pencil_test(partial)
            else:
                assert locus.pencil_test(partial) is not None
        with pytest.raises(AlgebraError, match=f"^{re.escape('missing values for: ' + ', '.join(sorted(read)))}$"):
            locus.pencil_test({})


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
    """`pencil_test` and its closure read each model's lowest terms and
    deflated sides by integer evaluation; the expanded locus and raw
    conditions are the definition they must agree with."""

    @pytest.mark.parametrize("family", LADDER + A_PARTS)
    def test_agrees_with_the_expanded_definitions(self, family):
        model, fam = model_of(family), member_of(family)
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
        seen, pencil_seen, conditions = set(), set(), raw(model.locus)
        for point, built_on_locus in points:
            if fam.class_var is not None:
                assert point[fam.class_var] != 0
            want = vanishes_by_generator(model.locus.groups, point)
            assert want or not built_on_locus
            test = model.locus.pencil_test(point)
            assert (test is None) is want
            seen.add(want)
            for _ in range(3):
                ab = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                if not any(ab):
                    continue
                full = {**point, A: ab[0], B: ab[1]}
                pencil = all(evaluate(c, full) != 0 for c in conditions)
                x, y = ab[0].numerator * ab[1].denominator, ab[1].numerator * ab[0].denominator
                assert (test is not None and test(x, y)) is pencil
                pencil_seen.add(pencil)
        assert seen == {True, False}
        assert pencil_seen == {True, False}

    def test_the_ratio_test_reads_all_2d_minus_1_ratios(self):
        # G = a + (b - a) z^2 has disc G = 4a(a - b): 0 at (0 : 1) and
        # (1 : 1), not at (2 : 1), so stopping at 2*deg G - 2 ratios would
        # call it degenerate
        c = DegeneracyLocus(lowest=(), sides=(UPoly([a, MPoly.zero(), b - a]),))
        test = c.pencil_test({})
        assert test is not None
        assert not test(1, 1)
        assert test(2, 1)

    def test_a_zero_class_coefficient_reads_the_conditions(self):
        # the lowest term 2*b[7,2]*b of (3,5,1) is 0 where its class
        # coefficient b[7,2] is, and the test answers for the conditions as
        # given; the listing strips that factor and is empty
        model, fam = polar_model_g2(3, 5, 1), generic_member_g2(3, 5, 1)
        point = {v: Fraction(0 if v == fam.class_var else 1) for v in fam.coeff_vars}
        assert 2 * b * MPoly.var(fam.class_var) in model.locus.lowest
        assert model.locus.pencil_test(point) is None
        assert not model.locus.groups


def _vanishes_identically(condition: MPoly, point) -> bool:
    """The oracle of one condition: zero at the 2k + 1 pencils (r : 1),
    r = 0, ..., 2k, k its degree in (a, b), by `Fraction` evaluation."""
    k = max(sum(e) for e in condition.coefficients_in([A, B]))
    return all(evaluate(condition, {**point, A: r, B: 1}) == 0 for r in range(2 * k + 1))


class TestPencilTest:
    """`pencil_test` is None exactly when some condition, lowest term or
    disc G, vanishes for every pencil point; the product of the conditions
    is a binary form of degree D, so the test reads D + 1 ratios."""

    @pytest.mark.parametrize("family", [(4, 7), (5, 9), (7, 10), (3, 5, 1), (3, 8, 1), (4, 7, 1)])
    def test_is_none_where_a_condition_vanishes_on_a_grid(self, family):
        # every variable of the conditions over {-1, 0, 1}, the class
        # variable included
        locus = model_of(family).locus
        forms = locus.lowest + tuple(c for G in locus.sides for c in G.coeffs)
        vs = sorted({v for c in forms for v in c.variables()} - {A, B})
        seen, conditions = set(), raw(locus)
        for values in itertools.product((-1, 0, 1), repeat=len(vs)):
            point = dict(zip(vs, values))
            want = any(_vanishes_identically(c, point) for c in conditions)
            assert (locus.pencil_test(point) is None) is want
            seen.add(want)
        assert seen == {True, False}

    def test_a_side_alone_can_vanish(self):
        # G = (a + b)(1 + z)^2 has disc G = 0 for every pencil; the lowest
        # term a does not vanish identically
        G = UPoly([a + b, 2 * a + 2 * b, a + b])
        locus = DegeneracyLocus(lowest=(a,), sides=(G,))
        assert genus1.discriminant(G).is_zero() and not _vanishes_identically(a, {})
        assert locus.pencil_test({}) is None
        assert DegeneracyLocus(lowest=(a,), sides=(UPoly([a, MPoly.zero(), b - a]),)).pencil_test({})

    def test_a_lowest_term_alone_can_vanish(self):
        # u*a + w*b vanishes for every pencil where u = w = 0; the side
        # G = a + (b - a) z^2 has disc G = 4a(a - b), a nonzero form
        u, w = MPoly.var(avar(2, 1)), MPoly.var(avar(3, 1))
        locus = DegeneracyLocus(lowest=(u * a + w * b,), sides=(UPoly([a, MPoly.zero(), b - a]),))
        zeros = {avar(2, 1): 0, avar(3, 1): 0}
        assert locus.pencil_test(zeros) is None
        test = locus.pencil_test({avar(2, 1): 0, avar(3, 1): 1})
        assert test is not None and not test(0, 1) and not test(1, 1) and test(2, 1)

    def test_the_last_of_the_d_plus_1_ratios_is_read(self):
        # one lowest term u*a with a zero b-part: D = 1, and the form is 0 at
        # (0 : 1), so only the ratio (1 : 1) shows it is not identically 0
        locus = DegeneracyLocus(lowest=(MPoly.var(avar(2, 1)) * a,), sides=())
        test = locus.pencil_test({avar(2, 1): Fraction(1, 2)})
        assert test is not None and not test(0, 1) and test(1, 1) and test(-3, 2)
        assert locus.pencil_test({avar(2, 1): 0}) is None

    @pytest.mark.parametrize("family,calls", [((8, 15), 0), ((7, 13, 1), 0), ((7, 20), 1), ((5, 12, 1), 1)])
    def test_the_listing_expands_only_what_it_keeps(self, family, calls, monkeypatch):
        # a side whose disc G is a nonzero form at the family point 0 leaves
        # the listing unexpanded: the q = -1 (mod p) sides of (8,15) and
        # (7,13,1) do, the wide side of (7,20) and the side of (5,12,1) stay
        expanded = []
        real = genus1.discriminant
        monkeypatch.setattr(genus1, "discriminant", lambda G: expanded.append(G) or real(G))
        build = polar_model_g1 if len(family) == 2 else polar_model_g2
        assert build.__wrapped__(*family).locus.groups and len(expanded) == calls

    @pytest.mark.parametrize("family", [(4, 7), (5, 9), (7, 10), (7, 12), (7, 20), (6, 17), (3, 5, 1),
                                        (3, 8, 1), (4, 7, 1), (4, 11, 1), (5, 12, 1)])
    def test_the_listing_is_that_of_every_condition(self, family):
        locus = model_of(family).locus
        assert locus.groups == build_locus(raw(locus), locus.nonvanishing)


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
        conditions = raw(model.locus)
        rng = random.Random(f"g1:{p}:{q}")
        trials = 0
        while trials < 5:
            assignment = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                          for v in fam.coeff_vars}
            if model.locus.pencil_test(assignment) is None:
                continue
            full = dict(assignment)
            ab = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)))
            full[A] = ab[0]
            full[B] = ab[1]
            if any(evaluate(c, full) == 0 for c in conditions):
                continue
            trials += 1
            pol = polar(substitute(fam.generic, assignment), *ab)
            poly = newton_polygon(pol)
            assert poly.vertices() == model.predicted_polygon().vertices()
            support = set(pol.terms)
            assert all(pt in support for pt in model.predicted_points())
            nondeg = is_nondegenerate(pol)
            assert nondeg.verdict == "nondegenerate"
            assert oka_decomposition(nondeg.polygon).branches == model.topology.branches

import math
import random
import re
from fractions import Fraction

import pytest

from polarnewton.algebra import A, B, MPoly, UPoly, X, Y, Z, avar, bvar
from polarnewton.curves import (CurveError, PlaneSeries, generic_member_g1, generic_member_g2, polar,
                                substitute)
from polarnewton.genus2 import InvalidSemigroupError, classify_nondegenerate, polar_model_g2
from polarnewton.newton import is_nondegenerate, newton_polygon, oka_decomposition
from polarnewton.verify import _draw_assignment, sample_off_locus

from _oracles import evaluate, lpq_side_points, point_values, tail_min_x_exponent, tail_polar_min_x
from _support import edge_terms, rational_multiple, raw, side_heights

x = MPoly.var(X)
y = MPoly.var(Y)
a = MPoly.var(A)
b = MPoly.var(B)


class TestTailExponents:
    @pytest.mark.parametrize("j,expected", [(2, 17), (0, 22), (4, 13)])
    def test_5_12_1(self, j, expected):
        assert tail_min_x_exponent(5, 12, 1, j) == expected

    def test_d_above_q_floor_goes_negative(self):
        assert tail_min_x_exponent(2, 5, 7, 0) == 11

    def test_range_error(self):
        with pytest.raises(ValueError):
            tail_min_x_exponent(5, 12, 1, 9)

    def test_closed_form_matches_the_listed_tail(self):
        box = [(p, q, d) for p in range(2, 12) for q in range(p + 1, 4 * p + 3) if math.gcd(p, q) == 1
               for d in range(1, 2 * q + 2, 2)]
        heights = 0
        for (p, q, d) in box:
            assert [tail_min_x_exponent(p, q, d, j) for j in range(2 * p - 1)] == tail_polar_min_x(p, q, d), \
                (p, q, d)
            heights += 2 * p - 1
        assert heights == 48823


class TestEdgeTerms:
    def test_5_12_1_displayed_terms(self):
        model = polar_model_g2(5, 12, 1)
        a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
        b173, b221 = MPoly.var(bvar(17, 3)), MPoly.var(bvar(22, 1))
        terms = edge_terms(model)
        assert terms[4] == -10 * b * x**12 * y**4
        assert terms[2] == 3 * b * (b173 - 2 * a53) * x**17 * y**2
        assert terms[0] == b * (b221 - 2 * a101) * x**22
        assert terms[9] == 10 * b * y**9

    def test_terms_agree_with_the_direct_polar(self):
        for (p, q, d) in [(2, 3, 1), (2, 5, 1), (2, 5, 7), (3, 5, 1), (3, 7, 1), (5, 12, 1)]:
            fam = generic_member_g2(p, q, d)
            pol = polar(fam.generic)
            model = polar_model_g2(p, q, d)
            terms = edge_terms(model)
            for j in side_heights(model):
                term = terms[j]
                (pt,) = [(i, jj) for (i, jj) in [t for t in _term_support(term)]]
                assert term == pol.coeff(*pt) * MPoly.monomial(1, {X: pt[0], Y: pt[1]})


def _term_support(term):
    out = set()
    for mono in term.terms:
        i = jj = 0
        for v, e in mono:
            if v == X:
                i = e
            elif v == Y:
                jj = e
        out.add((i, jj))
    return out


class TestPredictedPolygon:
    def test_5_12_1(self):
        assert polar_model_g2(5, 12, 1).sides == (
            ((22, 0), (17, 2), (12, 4)),
            ((12, 4), (0, 9)),
        )

    def test_2_3_1(self):
        assert polar_model_g2(2, 3, 1).sides == (
            ((5, 0), (3, 1)),
            ((3, 1), (0, 3)),
        )

    def test_height_is_one_below_the_multiplicity(self):
        for (p, q, d) in [(2, 3, 1), (2, 5, 3), (3, 4, 1), (5, 12, 1)]:
            model = polar_model_g2(p, q, d)
            poly = model.predicted_polygon()
            assert poly.top == (0, 2 * p - 1)
            assert poly.top[1] - poly.bottom[1] == 2 * p - 1

    def test_even_d_rejected(self):
        with pytest.raises(CurveError):
            polar_model_g2(2, 3, 2)


class TestSidePolynomials:
    def test_5_12_1_shallow_side(self):
        F = polar_model_g2(5, 12, 1).side_polys[0]
        a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
        b173, b221 = MPoly.var(bvar(17, 3)), MPoly.var(bvar(22, 1))
        expected = (-10 * b * MPoly.var(Z, 4)
                    + 3 * b * (b173 - 2 * a53) * MPoly.var(Z, 2)
                    + b * (b221 - 2 * a101))
        assert F == UPoly.from_mpoly(expected)

    def test_5_12_1_steep_side_is_the_shifted_power(self):
        F = polar_model_g2(5, 12, 1).side_polys[1]
        assert F == UPoly.from_mpoly(10 * b * (MPoly.var(Z, 5) - 1))

    def test_2_3_1_steep_side(self):
        model = polar_model_g2(2, 3, 1)
        assert model.side_polys[-1] == UPoly.from_mpoly(4 * b * (MPoly.var(Z, 2) - 1))

    def test_lpq_points(self):
        assert lpq_side_points(5, 12, 2) == ((0, 9), (12, 4))
        assert lpq_side_points(2, 3, 3) == ((0, 5), (3, 3), (6, 1))


class TestLocus:
    def test_5_12_1_displayed_generators(self):
        got = [g for (g,) in polar_model_g2(5, 12, 1).locus.groups]
        a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
        b173, b221 = MPoly.var(bvar(17, 3)), MPoly.var(bvar(22, 1))
        expected = [
            b173 - 2 * a53,
            b221 - 2 * a101,
            9 * b173**2 - 36 * a53 * b173 + 36 * a53**2 + 40 * b221 - 80 * a101,
        ]
        assert len(got) == 3
        for e in expected:
            assert any(rational_multiple(g, e) for g in got)

    def test_2_3_families_are_empty(self):
        assert not polar_model_g2(2, 3, 1).locus.groups
        assert not polar_model_g2(2, 3, 5).locus.groups

    def test_2_5_families_track_the_bottom_vertex(self):
        # the product part puts 2*5*a at (9, 0); for d = 1 the class-defining
        # tail term b[8,1] undercuts it, for d = 3 it joins it there, and for
        # d = 7 the tail starts right of it
        b81, b91 = MPoly.var(bvar(8, 1)), MPoly.var(bvar(9, 1))
        for d, vertex, coeff in [(1, (8, 0), b * b81),
                                 (3, (9, 0), 10 * a + b * b91),
                                 (7, (9, 0), 10 * a)]:
            model = polar_model_g2(2, 5, d)
            assert model.sides[0][0] == vertex
            assert edge_terms(model)[0] == coeff * x**vertex[0]
            assert not model.locus.groups

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_class_condition_is_not_a_locus_factor(self, q):
        # b[i0,j0] != 0 is what puts a member in the class; for d = 1 it is
        # the bottom vertex's coefficient, and the locus must not repeat it,
        # so every draw the sampler makes with b[i0,j0] != 0 is kept
        model = polar_model_g2(2, q, 1)
        assert not model.locus.groups
        fam = generic_member_g2(2, q, 1)
        for seed in range(5):
            drawn, drawn_texts = _draw_assignment(fam, random.Random(seed), 10)
            kept, kept_texts, _, _ = sample_off_locus(fam, model, random.Random(seed), 10)
            assert (point_values(kept), kept_texts) == (point_values(drawn), drawn_texts)

    @pytest.mark.parametrize("p,q,d", [(2, 5, 1), (3, 5, 1), (3, 7, 1), (4, 7, 1), (5, 12, 1)])
    def test_no_locus_group_lives_on_the_class_coefficient_alone(self, p, q, d):
        fam = generic_member_g2(p, q, d)
        for group in polar_model_g2(p, q, d).locus.groups:
            assert not all(g.variables() <= {fam.class_var} for g in group)

    @pytest.mark.parametrize("p,q,d", [(2, 5, 7), (2, 3, 5), (3, 7, 9)])
    def test_d_at_least_q_depends_only_on_the_base_curve(self, p, q, d):
        for (g,) in polar_model_g2(p, q, d).locus.groups:
            assert all(v.kind == "aij" for v in g.variables())


class TestPredictedTopology:
    def test_5_12_1(self):
        rep = polar_model_g2(5, 12, 1).topology
        assert [(c.a0, c.a1, c.count) for c in rep.branches] == [(2, 5, 2), (5, 12, 1)]
        assert rep.intersections == ((0, 10, 24), (10, 0, 24), (24, 24, 0))

    def test_2_3_1(self):
        rep = polar_model_g2(2, 3, 1).topology
        assert [(c.a0, c.a1, c.count) for c in rep.branches] == [(1, 2, 1), (2, 3, 1)]
        assert rep.intersections == ((0, 3), (3, 0))

    @pytest.mark.parametrize("k,d", [(3, 1), (5, 1), (5, 3)])
    def test_2_k_families_one_smooth_plus_2_k_meeting_in_k(self, k, d):
        rep = polar_model_g2(2, k, d).topology
        classes = [(c.a0, c.a1, c.count) for c in rep.branches]
        assert sum(c.count for c in rep.branches) == 2
        assert (2, k, 1) in [(a0, a1, c) for a0, a1, c in classes]
        smooth = [cl for cl in rep.branches if cl.a0 == 1]
        assert len(smooth) == 1
        assert rep.intersections[0][1] == k

    def test_exactly_one_base_class_branch(self):
        for (p, q, d) in [(2, 3, 1), (2, 5, 1), (2, 5, 7), (5, 12, 1), (3, 7, 1)]:
            rep = polar_model_g2(p, q, d).topology
            assert sum(1 for c in rep.branches for _ in range(c.count)
                       if (c.a0, c.a1) == (p, q)) == 1


class TestSampledAgreement:
    @pytest.mark.parametrize("p,q,d", [(2, 3, 1), (2, 5, 7), (5, 12, 1)])
    def test_polygon_points_topology(self, p, q, d):
        model = polar_model_g2(p, q, d)
        fam = generic_member_g2(p, q, d)
        conditions = raw(model.locus)
        rng = random.Random(f"g2:{p}:{q}:{d}")
        trials = 0
        while trials < 4:
            assignment = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for v in fam.coeff_vars}
            if assignment[fam.class_var] == 0:
                continue
            if model.locus.pencil_test(assignment) is None:
                continue
            full = dict(assignment)
            ab = (Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9)))
            full[A], full[B] = ab
            if any(evaluate(c, full) == 0 for c in conditions):
                continue
            trials += 1
            f = substitute(fam.generic, assignment)
            f1 = substitute(generic_member_g1(p, q).generic, assignment)
            pol = polar(f, *ab)
            poly = newton_polygon(pol)
            assert poly.vertices() == model.predicted_polygon().vertices()
            support = set(pol.terms)
            assert all(pt in support for pt in model.predicted_points())
            nondeg = is_nondegenerate(pol)
            assert nondeg.verdict == "nondegenerate"
            rep = oka_decomposition(nondeg.polygon)
            assert rep.branches == model.topology.branches
            assert rep.intersections == model.topology.intersections
            # the polar polygon agrees with the one of f1 * P(f1), including
            # the support points on the sides
            product = PlaneSeries.from_poly(f1.poly * polar(f1, *ab).poly)
            assert newton_polygon(product).vertices() == poly.vertices()
            assert all(pt in product.terms for pt in model.predicted_points())


class TestClassifier:
    def test_genus_one_always_passes(self):
        res = classify_nondegenerate([4, 9])
        assert res.nondegenerate is True and res.genus == 1

    def test_genus_two_with_halved_multiplicity(self):
        res = classify_nondegenerate([4, 6, 13])
        assert res.nondegenerate is True and res.genus == 2

    def test_genus_two_with_larger_gcd_fails(self):
        res = classify_nondegenerate([6, 9, 19])
        assert res.nondegenerate is False
        assert "e1=3" in res.reason

    def test_genus_three_fails(self):
        # value semigroup of the characteristic sequence (8; 12, 26, 53)
        res = classify_nondegenerate([8, 12, 38, 103])
        assert res.nondegenerate is False and res.genus == 3

    @pytest.mark.parametrize("gens,message", [
        ([4, 6, 12], "generator 12 does not drop the gcd chain"),  # gcd(2, 12) = 2
        ([6, 9, 21], "generator 21 does not drop the gcd chain"),  # gcd(3, 21) = 3
        ([4, 8], "generator 8 does not drop the gcd chain"),
        ([4, 6, 11], "v2 = 11 must exceed 2 * v1 = 12"),
        ([4, 6], "gcd of the generators must be 1"),
        ([0, 3], "generators must be positive"),
        ([1, 3], "v0 must be at least 2 for a singular branch"),
        ([9, 6, 19], "generators must be strictly increasing"),
        ([5], "need at least two minimal generators (positive genus)"),
    ])
    def test_invalid_semigroups_error(self, gens, message):
        with pytest.raises(InvalidSemigroupError, match=f"^{re.escape(message)}$"):
            classify_nondegenerate(gens)


import random
from fractions import Fraction

import pytest

from polarnewton.algebra import MPoly, X, Y
from polarnewton.curves import PlaneSeries, PolarParams, generic_member_g1, parse_series, polar, substitute
from polarnewton.genus1 import polar_model_g1
from polarnewton.newton import oka_report
from polarnewton.puiseux import (
    InsufficientDepthError,
    PuiseuxError,
    intersection_numeric,
    puiseux_expand,
    reconstruction_residual,
    semigroup_from_char,
)

x = MPoly.var(X)
y = MPoly.var(Y)


class TestExpansion:
    def test_cusp(self):
        out = puiseux_expand(PlaneSeries.from_poly(y**2 - x**3))
        assert len(out) == 1
        br, mult = out[0]
        assert (br.n, mult) == (2, 1)
        assert br.terms[0][0] == Fraction(3, 2)
        assert abs(br.terms[0][1] - 1) < 1e-12
        assert br.char_exponents == (2, 3)
        assert br.genus == 1
        assert br.semigroup == (2, 3)

    def test_two_transverse_lines(self):
        out = puiseux_expand(PlaneSeries.from_poly((y - x) * (y - 2 * x)))
        assert len(out) == 2
        assert all(br.n == 1 and br.genus == 0 and mult == 1 for br, mult in out)

    def test_double_line_multiplicity(self):
        out = puiseux_expand(PlaneSeries.from_poly((y - x) ** 2))
        assert len(out) == 1
        br, mult = out[0]
        assert (br.n, mult, br.genus) == (1, 2, 0)

    def test_pinned_degenerate_polar(self):
        f1 = parse_series("y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y")
        pol = polar(f1, PolarParams.concrete(1, 1))
        out = puiseux_expand(pol, min_order=12)
        assert len(out) == 1
        br, mult = out[0]
        assert mult == 1
        assert br.n == 4
        assert br.char_exponents == (4, 10, 11)
        assert br.genus == 2
        assert br.semigroup == (4, 10, 21)
        exps = [e for e, _ in br.terms[:2]]
        assert exps == [Fraction(5, 2), Fraction(11, 4)]
        assert all(abs(c) > 1e-9 for _, c in br.terms[:2])
        assert reconstruction_residual(pol, br) < 1e-8

    def test_branch_counts_match_y_order(self):
        fam = generic_member_g1(5, 12)
        rng = random.Random(12)
        assignment = {v: Fraction(rng.randint(1, 8), rng.randint(1, 8)) for v in fam.coeff_vars}
        pol = polar(substitute(fam.generic, assignment), PolarParams.concrete(3, 4))
        out = puiseux_expand(pol)
        assert sum(br.n * mult for br, mult in out) == 4  # multiplicity of the polar

    def test_division_by_x_component(self):
        out = puiseux_expand(PlaneSeries.from_poly(x * y - x**4))
        assert len(out) == 1
        assert out[0][0].genus == 0

    def test_errors(self):
        with pytest.raises(PuiseuxError):
            puiseux_expand(PlaneSeries.from_poly(MPoly.zero()))
        with pytest.raises(PuiseuxError):
            puiseux_expand(PlaneSeries.from_poly(y**2 - x**3 + 1))
        with pytest.raises(PuiseuxError):
            puiseux_expand(PlaneSeries.from_poly(x**2 - x**5))

    def test_smooth_branch_tangent_to_the_vertical_axis(self):
        out = puiseux_expand(PlaneSeries.from_poly(y**3 - x * y - x**4))
        assert sorted((br.n, br.genus) for br, _ in out) == [(1, 0), (2, 0)]

    def test_singular_steep_branch_asks_for_the_transpose(self):
        with pytest.raises(PuiseuxError, match="exchanged"):
            puiseux_expand(PlaneSeries.from_poly(x**2 - y**3))
        out = puiseux_expand(PlaneSeries.from_poly(y**2 - x**3))  # the transpose works
        assert out[0][0].char_exponents == (2, 3)


class TestResidual:
    def test_exact_parametrization_has_zero_residual(self):
        out = puiseux_expand(PlaneSeries.from_poly(y - x**2))
        br, _ = out[0]
        assert br.reached is None
        assert reconstruction_residual(PlaneSeries.from_poly(y - x**2), br) == 0.0

    def test_truncated_residual_stays_small(self):
        fam = generic_member_g1(2, 5)
        rng = random.Random(8)
        assignment = {v: Fraction(rng.randint(1, 5), rng.randint(1, 5)) for v in fam.coeff_vars}
        f1 = substitute(fam.generic, assignment)
        for br, _ in puiseux_expand(f1, min_order=8):
            assert reconstruction_residual(f1, br) < 1e-8


class TestSemigroupFromChar:
    def test_cusp(self):
        assert semigroup_from_char((2, 3)) == (2, 3)

    def test_two_characteristic_exponents(self):
        assert semigroup_from_char((4, 10, 11)) == (4, 10, 21)

    def test_coprime_pair(self):
        assert semigroup_from_char((7, 19)) == (7, 19)

    @pytest.mark.parametrize("ch", [(4, 10), (4, 6, 8), (3, 3), (0, 1)])
    def test_invalid_sequences(self, ch):
        with pytest.raises(PuiseuxError):
            semigroup_from_char(ch)


class TestIntersections:
    def test_transverse_smooth_pair(self):
        out = puiseux_expand(PlaneSeries.from_poly((y - x) * (y - 2 * x)))
        assert intersection_numeric(out[0][0], out[1][0]) == 1

    def test_smooth_meets_cusp(self):
        f = PlaneSeries.from_poly((y**2 - x**3) * (y - x))
        out = puiseux_expand(f)
        branches = sorted((br for br, _ in out), key=lambda b: b.n)
        assert intersection_numeric(branches[0], branches[1]) == 2
        assert intersection_numeric(branches[1], branches[0]) == 2

    def test_tangential_contact_needs_depth(self):
        f = PlaneSeries.from_poly((y - x**2) * (y - x**2 - x**7))
        out = puiseux_expand(f, min_order=9)
        assert intersection_numeric(out[0][0], out[1][0]) == 7

    def test_joint_expansion_resolves_deep_tangency(self):
        # both factors develop infinite expansions agreeing through x^8; the
        # shared recursion only splits them at the fork, so the fork term is
        # always part of the computed data
        g1 = y + x * y - x
        g2 = y + x * y - x - x**9
        out = puiseux_expand(PlaneSeries.from_poly(g1 * g2), depth=0, min_order=3)
        assert intersection_numeric(out[0][0], out[1][0]) == 9

    def test_insufficient_depth_raises_across_expansions(self):
        # branches truncated by separate runs cannot certify a contact that
        # sits beyond both truncation orders
        b1 = puiseux_expand(PlaneSeries.from_poly(y + x * y - x), min_order=3)[0][0]
        b2 = puiseux_expand(PlaneSeries.from_poly(y + x * y - x - x**9), min_order=3)[0][0]
        assert b1.reached is not None and b2.reached is not None
        with pytest.raises(InsufficientDepthError):
            intersection_numeric(b1, b2)
        b1 = puiseux_expand(PlaneSeries.from_poly(y + x * y - x), min_order=12)[0][0]
        b2 = puiseux_expand(PlaneSeries.from_poly(y + x * y - x - x**9), min_order=12)[0][0]
        assert intersection_numeric(b1, b2) == 9

    def test_pinned_polar_pairings(self):
        model = polar_model_g1(7, 19)
        fam = generic_member_g1(7, 19)
        rng = random.Random("puiseux:7:19")
        from polarnewton.algebra import A, B

        while True:
            assignment = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for v in fam.coeff_vars}
            if model.locus.vanishes_at(assignment):
                continue
            full = dict(assignment)
            full[A], full[B] = Fraction(3), Fraction(2)
            if all(c.evaluate(full) != 0 for c in model.raw_conditions):
                break
        pol = polar(substitute(fam.generic, assignment), PolarParams.concrete(3, 2))
        out = puiseux_expand(pol, min_order=4)
        flat = [br for br, mult in out for _ in range(mult)]
        smooth = [br for br in flat if br.genus == 0]
        singular = [br for br in flat if br.genus == 1]
        assert len(smooth) == 2 and len(singular) == 1
        assert singular[0].semigroup == (4, 11)
        assert intersection_numeric(smooth[0], smooth[1]) == 3
        assert intersection_numeric(smooth[0], singular[0]) == 11
        assert intersection_numeric(singular[0], smooth[1]) == 11

    def test_conjugate_class_sizes(self):
        f1 = parse_series("y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y")
        pol = polar(f1, PolarParams.concrete(1, 1))
        out = puiseux_expand(pol)
        (br, mult), = out
        assert br.n == 4 and mult == 1  # four raw conjugates merged into one class


class TestOkaAgreement:
    def test_branch_classes_and_table_match_the_combinatorial_route(self):
        fam = generic_member_g1(5, 12)
        model = polar_model_g1(5, 12)
        rng = random.Random(2024)
        from polarnewton.algebra import A, B

        count = 0
        while count < 3:
            assignment = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for v in fam.coeff_vars}
            if model.locus.vanishes_at(assignment):
                continue
            full = dict(assignment)
            full[A], full[B] = Fraction(1), Fraction(2)
            if any(c.evaluate(full) == 0 for c in model.raw_conditions):
                continue
            count += 1
            pol = polar(substitute(fam.generic, assignment), PolarParams.concrete(1, 2))
            rep = oka_report(pol)
            out = puiseux_expand(pol, min_order=4)
            flat = [br for br, mult in out for _ in range(mult)]
            assert sorted(br.class_key() for br in flat) == sorted(
                (1,) if k[0] == 1 else k for k in rep.expanded_keys()
            )
            # both (2,5) branches meet with multiplicity 10 = min-rule value
            assert intersection_numeric(flat[0], flat[1]) == 10

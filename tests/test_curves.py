import random
import re
from fractions import Fraction

import pytest

from polarnewton import curves
from polarnewton.algebra import A, B, MPoly, X, Y, avar, bvar
from polarnewton.curves import (
    CurveError,
    ParseError,
    PlaneSeries,
    PolarParams,
    _IntegerTerms,
    generic_member_g1,
    generic_member_g2,
    parse_series,
    polar,
    substitute,
)
from polarnewton.newton import is_nondegenerate, newton_polygon
from polarnewton.puiseux import puiseux_expand

from _oracles import deriv, evaluate

x = MPoly.var(X)
y = MPoly.var(Y)
a = MPoly.var(A)
b = MPoly.var(B)


class TestFamilies:
    def test_g1_7_19_contains_the_displayed_variables(self):
        fam = generic_member_g1(7, 19)
        for v in (avar(17, 1), avar(14, 2), avar(11, 3)):
            assert v in fam.coeff_vars

    def test_g1_2_3_weight_window(self):
        fam = generic_member_g1(2, 3)
        assert avar(4, 0) in fam.coeff_vars  # weight 8 > 6
        assert avar(3, 0) not in fam.coeff_vars  # weight 6 is not above 6
        # weight 7 is above 6, but y^(p-1) carries no coefficient in
        # Tschirnhausen normal form
        assert avar(2, 1) not in fam.coeff_vars

    def test_g1_5_12_contains_locus_variables(self):
        fam = generic_member_g1(5, 12)
        assert avar(10, 1) in fam.coeff_vars
        assert avar(5, 3) in fam.coeff_vars

    def test_g1_validation(self):
        with pytest.raises(CurveError):
            generic_member_g1(4, 6)
        with pytest.raises(CurveError):
            generic_member_g1(1, 5)

    def test_g1_bound_must_keep_both_vertices(self):
        with pytest.raises(CurveError, match="weight bound 132"):
            generic_member_g1(7, 19, 132)
        with pytest.raises(CurveError, match="weight bound 0"):
            generic_member_g1(7, 19, 0)
        assert generic_member_g1(7, 19, 133).generic.poly == y**7 - x**19

    @pytest.mark.parametrize("build,rule", [
        (lambda: generic_member_g1.__wrapped__(2, 3, 4000), "coefficient_g1"),
        (lambda: generic_member_g2.__wrapped__(2, 3, 1, weight_bound=4000), "coefficient_tail"),
    ], ids=["g1", "tail"])
    def test_large_bound_visits_only_the_filled_rows(self, monkeypatch, build, rule):
        # the rules fill rows j <= p (genus one) and j <= e1*p - 2 (the tail),
        # here 3 rows of at most 4000 // 2 + 1 columns each
        calls = []
        original = getattr(curves, rule)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(curves, rule, counted)
        build()
        assert 0 < len(calls) <= 3 * 2001

    @pytest.mark.parametrize("p,q,d,i0,j0", [(5, 12, 1, 17, 3), (2, 3, 1, 5, 1), (2, 5, 7, 11, 1)])
    def test_g2_distinguished_monomial(self, p, q, d, i0, j0):
        fam = generic_member_g2(p, q, d)
        assert fam.class_var == bvar(i0, j0)
        assert bvar(i0, j0) in fam.coeff_vars

    def test_g2_validation(self):
        with pytest.raises(CurveError):
            generic_member_g2(2, 3, 2)  # gcd(e1, d) != 1
        with pytest.raises(CurveError):
            generic_member_g2(2, 4, 1)


class TestPolar:
    def test_pinned_member_polar_display(self):
        f1 = parse_series("y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y")
        got = polar(f1)
        expected = (
            5 * b * y**4
            + 5 * a * x**4 * y**3
            + (8 * a * x**7 + 3 * b * x**5) * y**2
            + (Fraction(9, 2) * a * x**9 + 2 * b * x**8) * y  # 2*b*x^8, not 2*x^8
            - 12 * a * x**11
            + Fraction(9, 20) * b * x**10
        )
        assert got.poly == expected

    def test_simple_concrete_polar(self):
        got = polar(PlaneSeries.from_poly(x * y), PolarParams.concrete(1, 1))
        assert got.poly == x + y

    def test_product_rule_split(self):
        fam = generic_member_g2(2, 3, 1)
        f1 = generic_member_g1(2, 3).generic
        f2 = PlaneSeries.from_poly(fam.generic.poly - f1.poly ** 2)
        lhs = polar(fam.generic).poly
        rhs = 2 * f1.poly * polar(f1).poly + polar(f2).poly
        assert lhs == rhs

    @pytest.mark.parametrize("e1", [2, 3])
    def test_power_shape_split_for_sampled_members(self, e1):
        fam = generic_member_g2(2, 3, 1, e1=e1)
        rng = random.Random(5)
        # iterating the union of the a- and b-sets keeps the seeded values
        # this test was written with
        a_vars, b_vars = ({v for v in fam.coeff_vars if v.kind == kind} for kind in ("aij", "bij"))
        assignment = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for v in a_vars | b_vars}
        assignment[fam.class_var] = Fraction(1)
        f1_generic = generic_member_g1(2, 3).generic
        f = substitute(fam.generic, assignment)
        f1 = substitute(f1_generic, assignment)
        f2 = substitute(PlaneSeries.from_poly(fam.generic.poly - f1_generic.poly ** e1), assignment)
        params = PolarParams.concrete(2, 3)
        lhs = polar(f, params).poly
        rhs = e1 * f1.poly ** (e1 - 1) * polar(f1, params).poly + polar(f2, params).poly
        assert lhs == rhs

    def test_generic_g2_polygon_is_the_doubled_single_side(self):
        fam = generic_member_g2(2, 5, 1)
        rng = random.Random(9)
        a_vars, b_vars = ({v for v in fam.coeff_vars if v.kind == kind} for kind in ("aij", "bij"))
        assignment = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for v in a_vars | b_vars}
        assignment[fam.class_var] = Fraction(2, 3)
        f = substitute(fam.generic, assignment)
        reference = PlaneSeries.from_poly((y**2 - x**5) ** 2)
        assert newton_polygon(f).vertices() == newton_polygon(reference).vertices()

    def test_zero_pencil_point_rejected(self):
        with pytest.raises(CurveError):
            PolarParams.concrete(0, 0)


class TestSubstitute:
    def test_single_coefficient_member(self):
        fam = generic_member_g1(7, 19)
        assignment = {v: Fraction(0) for v in fam.coeff_vars}
        assignment[avar(11, 3)] = Fraction(1)
        got = substitute(fam.generic, assignment)
        assert got.poly == y**7 - x**19 + x**11 * y**3

    def test_substitute_commutes_with_polar(self):
        fam = generic_member_g1(2, 3)
        rng = random.Random(1)
        assignment = {v: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for v in fam.coeff_vars}
        full = dict(assignment)
        full[A] = Fraction(2)
        full[B] = Fraction(-1, 2)
        lhs = substitute(polar(fam.generic), full)
        rhs = polar(substitute(fam.generic, assignment), PolarParams.concrete(2, Fraction(-1, 2)))
        assert lhs.poly == rhs.poly

    def test_missing_variable_reported(self):
        f = parse_series("y^2 - x^3 + b*x^2 + a[4,1]*x^4*y + b[5,1]*x^5 + a[2,3]*x^6 + a[7,0]*x^7")
        with pytest.raises(CurveError) as info:
            substitute(f, {avar(7, 0): Fraction(1, 2)})
        assert str(info.value) == "missing values for: b, a[2,3], a[4,1], b[5,1]"
        err = info.value  # no AlgebraError from the evaluation shows in its chain
        assert err.__cause__ is None and (err.__context__ is None or err.__suppress_context__)
        with pytest.raises(CurveError) as info:
            substitute(generic_member_g1(2, 3).generic, {})
        assert str(info.value) == "missing values for: a[4,0], a[5,0]"

    def test_pinned_member_as_family_assignment(self):
        fam = generic_member_g1(5, 12)
        assignment = {v: Fraction(0) for v in fam.coeff_vars}
        assignment[avar(5, 3)] = Fraction(1)
        assignment[avar(8, 2)] = Fraction(1)
        assignment[avar(10, 1)] = Fraction(9, 20)
        got = substitute(fam.generic, assignment)
        pinned = parse_series("y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y")
        assert got.poly == pinned.poly

    def test_generic_member_round_trips_through_the_parser(self):
        fam = generic_member_g1(3, 4)
        assert parse_series(fam.generic.render()).poly == fam.generic.poly


class TestParser:
    def test_pinned_member_parse(self):
        f1 = parse_series("y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y")
        expected = y**5 - x**12 + x**5 * y**3 + x**8 * y**2 + Fraction(9, 20) * x**10 * y
        assert f1.poly == expected

    def test_zero(self):
        assert parse_series("0").is_zero()

    def test_symbolic_coefficients(self):
        f = parse_series("y^7 - x^19 + a[11,3]*x^11*y^3")
        assert f.poly == y**7 - x**19 + MPoly.var(avar(11, 3)) * x**11 * y**3

    def test_unary_minus_and_parens(self):
        assert parse_series("-(x - y)").poly == y - x
        assert parse_series("(-x + y)*(x + y)").poly == y**2 - x**2

    def test_round_trip_on_canonical_rendering(self):
        samples = [
            y**5 - x**12 + Fraction(9, 20) * x**10 * y,
            MPoly.var(avar(2, 1)) * x**2 * y - 3 * MPoly.var(B) * x,
            MPoly.const(Fraction(-7, 3)),
        ]
        for p in samples:
            assert parse_series(p.render()).poly == p

    @pytest.mark.parametrize("text", ["y^", "x + ", "2 ** x", "w + 1", "a[1]", "(x", "x 3", ""])
    def test_errors_carry_positions(self, text):
        with pytest.raises(ParseError):
            parse_series(text)

    def test_unknown_identifier_position(self):
        with pytest.raises(ParseError) as err:
            parse_series("x + qq")
        assert "position" in str(err.value)


def _verify_family_members():
    return [generic_member_g1(7, 19).generic, generic_member_g2(5, 12, 1).generic,
            generic_member_g2(7, 19, 1).generic]


_PARSED = [
    "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y",
    "y^7 - x^19 + a[11,3]*x^11*y^3 + a[17,1]*x^17*y",
    "(y^2 - x^3)^2 + b[7,1]*x^7*y - x*y",
    "a*x^2 + b*y^3 - 2*a*b*x*y",
    # at (3 : -2/5) the two terms at (1, 0) cancel: 3*2*1 - (2/5)*15 = 0
    "y^3 - x^5 + x^2 + 15*x*y",
]


def _random_point(rng, variables):
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for v in variables}


def _concrete_members():
    """The verify family members at seeded rational points, and (7, 19) at a
    point that zeroes a[17,1], so that (17, 1) is missing from the member."""
    rng = random.Random(29)
    generic = _verify_family_members()
    out = [substitute(f, _random_point(rng, sorted(f.poly.variables() - {X, Y})))
           for f in generic for _ in range(2)]
    s = _random_point(rng, sorted(generic[0].poly.variables() - {X, Y}))
    out.append(substitute(generic[0], {**s, avar(17, 1): Fraction(0)}))
    assert (17, 1) not in out[-1].terms and (17, 1) in out[0].terms
    return out


def _polar_key_order(f, got):
    """The x-derivative keys in member order, then the new y-derivative keys,
    restricted to the keys that carry a nonzero coefficient."""
    order = {(i - 1, j): None for i, j in f.terms if i}
    for i, j in f.terms:
        if j:
            order.setdefault((i, j - 1))
    return [pt for pt in order if pt in got.terms]


def _typed(f):
    return [(pt, c, [type(v) for v in c.terms.values()]) for pt, c in f.terms.items()]


class TestSeriesMapOracles:
    """The {(i, j): coefficient} map against the whole polynomial in x, y."""

    @pytest.mark.parametrize("params", [PolarParams.symbolic(), PolarParams.concrete(3, Fraction(-2, 5)),
                                        PolarParams.concrete(0, 1), PolarParams.concrete(1, 0)])
    def test_polar_is_the_derivative_pencil(self, params):
        members = _verify_family_members() + [parse_series(t) for t in _PARSED] + _concrete_members()
        assert sum(f.is_concrete() for f in members) == 9
        for f in members:
            want = params.a * deriv(f.poly, X) + params.b * deriv(f.poly, Y)
            got = polar(f, params)
            assert got.poly == want
            assert list(got.terms) == _polar_key_order(f, got)
            assert not any(c.is_zero() for c in got.terms.values())
            if f.is_concrete() and params.a.is_constant():
                assert got.is_concrete()
                assert all(type(c.constant_value()) is Fraction for c in got.terms.values())
        # the route from a draw: the generic member and an assignment of its variables
        rng = random.Random(31)
        for f in _verify_family_members():
            variables = sorted(f.poly.variables() - {X, Y})
            draws = [_random_point(rng, variables) for _ in range(2)]
            draws.append({**draws[0], variables[0]: Fraction(0)})
            for s in draws:
                assert _typed(polar(f, params, s)) == _typed(polar(substitute(f, s), params))
            partial = {v: Fraction(1) for v in variables[1:]}
            with pytest.raises(CurveError) as want:
                substitute(f, partial)
            with pytest.raises(CurveError, match=re.escape(str(want.value))):
                polar(f, params, partial)

    def test_substitute_agrees_with_evaluation(self):
        rng = random.Random(17)
        for f in _verify_family_members() + [parse_series(t) for t in _PARSED]:
            variables = f.poly.variables() - {X, Y}
            for _ in range(3):
                s = _random_point(rng, variables)
                x0, y0 = (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
                got = evaluate(substitute(f, s).poly, {X: x0, Y: y0})
                assert got == evaluate(f.poly, {**s, X: x0, Y: y0})

    def test_substitute_drops_vanishing_coefficients(self):
        f = parse_series("y^2 - x^3 + a[4,1]*x^4*y + (a[4,1] - b[4,1])*x^5")
        got = substitute(f, {avar(4, 1): Fraction(1), bvar(4, 1): Fraction(1)})
        assert set(got.terms) == {(0, 2), (3, 0), (4, 1)}
        assert got.is_concrete()

    def test_from_poly_round_trips(self):
        for f in _verify_family_members() + [parse_series(t) for t in _PARSED]:
            p = f.poly
            assert PlaneSeries.from_poly(p).poly == p
        assert PlaneSeries.from_poly(MPoly.zero()).is_zero()

    def test_map_keys_are_the_support(self):
        f = parse_series("y^2 - x^3 + a[4,1]*x^4*y + b*x^4*y")
        assert set(f.terms) == {(0, 2), (3, 0), (4, 1)}
        assert f.coeff(4, 1) == MPoly.var(avar(4, 1)) + b
        assert f.coeff(1, 1).is_zero()
        assert not f.is_concrete()


class TestOneConcreteRepresentation:
    """Every concrete series holds `_IntegerTerms`, however it is built, and
    reads as the same curve built another way does."""

    # a[0,0] is the member's only variable, and its derivatives vanish
    MEMBER = "a[0,0] + y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y"
    PARAMS = PolarParams.concrete(3, Fraction(-2, 5))

    @staticmethod
    def _reads(f):
        report = is_nondegenerate(f)
        sides = [(v.side, v.squarefree, v.path, v.associated.render()) for v in report.sides]
        return f.render(), report.verdict, sides

    def test_every_concrete_build_holds_integer_terms(self):
        f = parse_series(self.MEMBER)
        s = {avar(0, 0): Fraction(7, 3)}
        member = substitute(f, s)
        polars = {
            "constant MPoly route": polar(f, self.PARAMS),
            "integer route from a draw": polar(f, self.PARAMS, s),
            "integer route from a concrete series": polar(member, self.PARAMS),
        }
        curve = polars["constant MPoly route"]
        built = {
            **polars,
            "substitute": member,
            "parse_series": parse_series(curve.render()),
            "from_poly": PlaneSeries.from_poly(curve.poly),
            "map of constant MPolys": PlaneSeries(dict(curve.terms.items())),
        }
        for name, g in built.items():
            assert type(g.terms) is _IntegerTerms and g.is_concrete(), name
        assert not f.is_concrete()
        want = self._reads(curve)
        for name, g in built.items():
            if name != "substitute":
                assert self._reads(g) == want, name
        assert self._reads(member) == self._reads(parse_series(member.render()))
        # the Puiseux expansion adds floats in key order, which these share
        expansion = repr(puiseux_expand(curve, min_order=4))
        for name in (*polars, "map of constant MPolys"):
            assert list(built[name].terms) == list(curve.terms), name
            assert repr(puiseux_expand(built[name], min_order=4)) == expansion, name

    def test_empty_and_symbolic_series(self):
        assert PlaneSeries({}).is_concrete() and PlaneSeries({}).is_zero()
        symbolic = parse_series("y^2 - x^3 + a*x*y")
        assert not symbolic.is_concrete() and type(symbolic.terms) is dict

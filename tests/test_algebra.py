import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarnewton import algebra
from polarnewton.algebra import (
    A,
    B,
    AlgebraError,
    IntegerPlan,
    MPoly,
    UPoly,
    X,
    Y,
    Z,
    avar,
    bvar,
    IntegerPoint,
    discriminant,
    integer_discriminant,
    nonzero_discriminant,
    qpoly_gcd,
    qpoly_yun,
    squarefree_info,
    strip_content,
)

from polarnewton.curves import generic_member_g2

from _oracles import deriv, det_fraction, evaluate, sylvester_matrix

x = MPoly.var(X)
y = MPoly.var(Y)
z = MPoly.var(Z)
a = MPoly.var(A)
b = MPoly.var(B)


def upoly(p: MPoly) -> UPoly:
    return UPoly.from_mpoly(p)


class TestVar:
    def test_ordering_is_total_and_deterministic(self):
        vs = [bvar(17, 3), avar(11, 3), X, A, avar(11, 2), Y]
        assert sorted(vs) == [A, avar(11, 2), avar(11, 3), bvar(17, 3), X, Y]


class TestRingOps:
    def test_product_of_conjugates(self):
        assert (x + y) * (x - y) == x**2 - y**2

    def test_square_matches_repeated_multiplication(self):
        f = y**5 - x**12 + x**5 * y**3
        assert f**2 == f * f

    def test_cancellation_removes_terms(self):
        assert (y**2 - x**3) + x**3 == y**2

    def test_zero_and_constants(self):
        assert MPoly.zero().is_zero()
        assert (x - x).is_zero()
        assert MPoly.const(Fraction(3, 4)).constant_value() == Fraction(3, 4)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=50, deadline=None)
    def test_ring_laws_on_sampled_values(self, c1, c2, c3):
        f = c1 * x + c2 * y + c3
        g = c2 * x * y - c1
        h = c3 * y**2 + c1 * x
        assert f * (g + h) == f * g + f * h
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f


def _general_scaled(f: MPoly, c) -> MPoly:
    """f * c term by term through the constructor, which drops zeros."""
    return MPoly({m: v * c for m, v in f.terms.items()})


SCALARS = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5)))


class TestScalarPaths:
    OPERANDS = (x**2 * y - Fraction(3, 4) * a * x + 5, 2 * x - 1, MPoly.const(Fraction(-2, 7)),
                MPoly.zero())

    @given(SCALARS)
    @settings(max_examples=40, deadline=None)
    def test_products_by_scalars_on_either_side(self, c):
        for f in self.OPERANDS:
            want = _general_scaled(f, c)
            for s in (c, Fraction(c), MPoly.const(c)):
                for got in (f * s, s * f):
                    assert got == want and hash(got) == hash(want)
                    assert got.terms is not f.terms
                    assert not isinstance(s, MPoly) or got.terms is not s.terms
            assert (f * c).is_zero() == (c == 0 or f.is_zero())

    @given(SCALARS, SCALARS)
    @settings(max_examples=40, deadline=None)
    def test_sums_of_constants(self, c1, c2):
        p, q = MPoly.const(c1), MPoly.const(c2)
        want = MPoly({(): Fraction(c1) + Fraction(c2)})
        for got in (p + q, q + p, p + c2, c2 + p):
            assert got == want and hash(got) == hash(want)
            assert got.terms is not p.terms and got.terms is not q.terms
        assert (p - p).is_zero() and (p + (-c1)).is_zero()
        f = self.OPERANDS[0]
        assert f + p == MPoly({**f.terms, (): f.terms[()] + c1}) and (f + p).terms is not f.terms

    def test_zero_scalars_and_constants(self):
        assert MPoly.const(0).is_zero() and MPoly.const(Fraction(0)).is_zero()
        assert MPoly.const(0) == MPoly.zero() and hash(MPoly.const(0)) == hash(MPoly.zero())
        for f in self.OPERANDS:
            for zero in (0, Fraction(0), MPoly.const(0), MPoly.zero()):
                assert (f * zero).is_zero() and (zero * f).is_zero()
        assert type(MPoly.const(3).terms[()]) is Fraction


PLAN_VARS = (A, B, avar(3, 1), bvar(5, 2))


def _poly_in_plan_vars(terms) -> MPoly:
    return sum((MPoly.monomial(c, dict(zip(PLAN_VARS, exps))) for c, exps in terms), MPoly.zero())


# up to five terms, each a scalar and one exponent per variable
PLAN_POLYS = st.lists(st.tuples(SCALARS, st.lists(st.integers(0, 3), min_size=4, max_size=4)),
                      max_size=5).map(_poly_in_plan_vars)


class TestIntegerPlan:
    @given(st.lists(PLAN_POLYS, max_size=4), st.lists(SCALARS, min_size=4, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_numerators_over_one_denominator_match_evaluate(self, polys, values):
        point = dict(zip(PLAN_VARS, values))
        nums, den = IntegerPlan(polys).at(point)
        assert den > 0 and len(nums) == len(polys)
        for poly, num in zip(polys, nums):
            assert Fraction(num, den) == evaluate(poly, point)

    def test_variables_are_sorted_and_missing_ones_named(self):
        plan = IntegerPlan([MPoly.var(bvar(5, 2)) * a + 1, MPoly.var(avar(3, 1)) ** 2, MPoly.zero()])
        assert plan.variables == (A, avar(3, 1), bvar(5, 2))
        # 1/3 and 1/4 over den * m^degree = 1 * 6^2
        assert plan.at({A: 2, avar(3, 1): Fraction(1, 2), bvar(5, 2): Fraction(-1, 3)}) == ([12, 9, 0], 36)
        with pytest.raises(AlgebraError, match=r"^missing values for: a, b\[5,2\]$"):
            plan.at({avar(3, 1): 1})

    def test_empty_and_constant_plans(self):
        assert IntegerPlan([]).at({}) == ([], 1)
        assert IntegerPlan([MPoly.const(Fraction(-7, 3)), MPoly.zero()]).at({A: 5}) == ([-7, 0], 3)

    def test_terms_of_degree_three_and_up_match_evaluate(self):
        # the cube f1^3 of an e1 = 3 member gives its coefficients terms of
        # degree 3 and more, the layers that the bench members never fill
        fam = generic_member_g2(2, 3, 1, e1=3)
        plan = fam.generic.integer_plan
        assert plan.degree >= 3 and all(plan.higher)
        rng = random.Random(25)
        for _ in range(20):
            pairs = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in fam.coeff_vars]
            point = {v: Fraction(num, den) for v, (num, den) in zip(fam.coeff_vars, pairs)}
            m = 2520
            scaled = IntegerPoint(fam.coeff_vars, [num * (m // den) for num, den in pairs], m)
            want = [evaluate(c, point) for c in fam.generic.terms.values()]
            for at in (point, scaled):
                nums, den = plan.at(at)
                assert [Fraction(num, den) for num in nums] == want


class TestDerivative:
    def test_power_rule(self):
        assert deriv(y**5 - x**12, X) == -12 * x**11

    def test_pinned_family_member_y_derivative(self):
        f = y**5 - x**12 + x**5 * y**3 + x**8 * y**2 + Fraction(9, 20) * x**10 * y
        expected = 5 * y**4 + 3 * x**5 * y**2 + 2 * x**8 * y + Fraction(9, 20) * x**10
        assert deriv(f, Y) == expected

    def test_constant_derivative_vanishes(self):
        assert deriv(MPoly.const(7), X).is_zero()


class TestBareissDet:
    """`_bareiss_det`, the determinant under every discriminant, on Sylvester
    matrices of two different polynomials: shapes that the discriminant's own
    matrices seldom take, with zero pivots, row swaps and singular matrices."""

    @staticmethod
    def det(fc, gc) -> MPoly:
        return algebra._bareiss_det(sylvester_matrix(fc, gc, MPoly.zero()), MPoly.divexact)

    def test_small_hand_determinant(self):
        # Res(z^2 - c, z); the second pivot is zero and takes a row swap
        c = MPoly.var(avar(1, 1))
        one, zero = MPoly.const(1), MPoly.zero()
        assert self.det([one, zero, -c], [one, zero]) == -c

    def test_equal_inputs_share_a_root(self):
        F = [MPoly.const(1), MPoly.zero(), MPoly.const(-1)]
        assert self.det(F, F).is_zero()

    def test_linear_pair(self):
        u = MPoly.var(avar(0, 1))
        v = MPoly.var(avar(1, 0))
        assert self.det([MPoly.const(1), -u], [MPoly.const(1), -v]) == u - v

    def test_permutations_carry_their_sign(self):
        swap = [[0, 1], [1, 0]]
        cycle = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
        zero_column = [[0, 1, 2], [0, 3, 4], [0, 5, 6]]
        for mat, want in [(swap, -1), (cycle, 1), (zero_column, 0)]:
            assert algebra._bareiss_det(mat, int.__floordiv__) == want
            lifted = [[MPoly.const(e) for e in row] for row in mat]
            assert algebra._bareiss_det(lifted, MPoly.divexact) == MPoly.const(want)

    def test_matches_fraction_elimination_on_random_concrete(self):
        # the integer route with floor division and the MPoly route agree with the oracle
        rng = random.Random(7)
        for _ in range(25):
            fc = [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))]
            gc = [rng.randint(-5, 5) for _ in range(rng.randint(2, 5))]
            if fc[0] == 0 or gc[0] == 0:
                continue
            expected = det_fraction(sylvester_matrix(fc, gc))
            assert algebra._bareiss_det(sylvester_matrix(fc, gc, 0), int.__floordiv__) == expected
            lifted = self.det([MPoly.const(c) for c in fc], [MPoly.const(c) for c in gc])
            assert lifted == MPoly.const(expected)

    def test_zero_determinant_iff_common_factor(self):
        rng = random.Random(11)
        for _ in range(20):
            r1, r2, r3 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            F = upoly((z - MPoly.const(r1)) * (z - MPoly.const(r2)))
            G = upoly((z - MPoly.const(r1)) * (z - MPoly.const(r3)))
            assert self.det(F.coeffs[::-1], G.coeffs[::-1]).is_zero()
            shared = [MPoly.const(1), MPoly.const(-r1)]
            H = [MPoly.const(1), MPoly.const(-(r2 + 1))]
            assert self.det(shared, H).is_zero() == (r1 == r2 + 1)


class TestDiscriminant:
    def test_quadratic_formula(self):
        P = MPoly.var(avar(1, 0))
        Q = MPoly.var(avar(0, 1))
        F = upoly(z**2 + P * z + Q)
        assert discriminant(F) == P**2 - 4 * Q

    def test_displayed_quadratic_up_to_leading_factor(self):
        # convention here divides by the leading coefficient; the displayed
        # value is the raw Sylvester determinant Res(F, F'), i.e. -lc times ours
        a11, a14, a17 = (MPoly.var(avar(11, 3)), MPoly.var(avar(14, 2)), MPoly.var(avar(17, 1)))
        F = upoly(3 * b * a11 * z**2 + 2 * b * a14 * z + b * a17)
        displayed = 12 * b**3 * a11 * (3 * a11 * a17 - a14**2)
        ours = discriminant(F)
        assert ours == -4 * b**2 * (3 * a11 * a17 - a14**2)
        assert ours * (-3 * b * a11) == displayed

    def test_displayed_quartic_exact(self):
        a11 = MPoly.var(avar(11, 3))
        F = upoly(7 * b * z**4 + 3 * b * a11)
        displayed = 4 * (84 * b**2 * a11) ** 3
        assert discriminant(F) == displayed

    def test_product_rule_on_concrete_monic(self):
        rng = random.Random(3)
        for _ in range(15):
            fc = [1, rng.randint(-4, 4), rng.randint(-4, 4)]  # descending
            gc = [1, 0, rng.randint(-4, 4), rng.randint(-4, 4)]
            f = sum((c * z**k for k, c in enumerate(reversed(fc))), MPoly.zero())
            g = sum((c * z**k for k, c in enumerate(reversed(gc))), MPoly.zero())
            F, G, FG = upoly(f), upoly(g), upoly(f * g)
            lhs = discriminant(FG)
            res = det_fraction(sylvester_matrix(fc, gc))
            rhs = discriminant(F) * discriminant(G) * MPoly.const(res**2)
            assert lhs == rhs

    def test_constant_input_rejected(self):
        with pytest.raises(AlgebraError):
            discriminant(upoly(MPoly.const(5)))


class TestNonzeroDiscriminant:
    """The fast predicate against `integer_discriminant(g) != 0`."""

    @staticmethod
    def _cases(rng: random.Random, d: int) -> list[list[int]]:
        def vector(k):
            return [rng.randint(-20, 20) for _ in range(k)]

        def times(f, g):
            out = [0] * (len(f) + len(g) - 1)
            for i, x in enumerate(f):
                for j, y in enumerate(g):
                    out[i + j] += x * y
            return out

        r = rng.randint(-5, 5)
        repeated = times(times([-r, 1], [-r, 1]), vector(d - 1))  # (z - r)^2 * h
        return [
            vector(d + 1),
            vector(d) + [rng.choice([-3, -1, 1, 2, 7])],
            vector(d) + [0],  # formal degree d, leading coefficient 0
            vector(d - 1) + [0, 0],  # two roots at infinity
            repeated,
            [x * rng.choice([-2, 3]) for x in repeated],
            vector(d) + [rng.randint(1, 3) * (2**61 - 1)],  # the modulus divides the leading coefficient
        ]

    @pytest.mark.parametrize("d", range(3, 17))
    def test_matches_the_exact_discriminant(self, d):
        rng = random.Random(f"nonzero:{d}")
        seen = set()
        for _ in range(6):
            for g in self._cases(rng, d):
                assert len(g) == d + 1
                want = integer_discriminant(g) != 0
                assert nonzero_discriminant(g) is want
                seen.add(want)
        assert seen == {True, False}

    def test_low_degrees_take_the_closed_forms(self):
        assert nonzero_discriminant([0, 0]) and nonzero_discriminant([5, 3])
        assert not nonzero_discriminant([4, -4, 1]) and nonzero_discriminant([1, 0, -1])
        # formal degree 2: a simple root at infinity, then a double one
        assert nonzero_discriminant([1, 2, 0]) and not nonzero_discriminant([1, 0, 0])
        with pytest.raises(AlgebraError):
            nonzero_discriminant([7])


class TestSquarefree:
    def test_separable_quadratic(self):
        assert squarefree_info(upoly(z**2 - 1))[0] is True

    def test_repeated_root(self):
        assert squarefree_info(upoly((z - 1) ** 2))[0] is False

    def test_power_side_polynomial_is_degenerate(self):
        F = upoly((z**2 - 1) ** 2)  # e1 = 3, p = 2 shape
        ok, path = squarefree_info(F)
        assert (ok, path) == (False, "concrete")

    def test_symbolic_route_is_flagged(self):
        F = upoly(b * z**2 + MPoly.var(avar(3, 1)))
        ok, path = squarefree_info(F)
        assert (ok, path) == (True, "symbolic")

    def test_zero_rejected(self):
        with pytest.raises(AlgebraError):
            squarefree_info(upoly(MPoly.zero()))

    def test_symbolic_route_expands_only_a_vanishing_discriminant(self, monkeypatch):
        calls = []
        real = algebra.discriminant
        monkeypatch.setattr(algebra, "discriminant", lambda F: calls.append(F) or real(F))
        u = MPoly.var(avar(3, 1))
        # a nonzero integer value at a fixed point certifies disc != 0
        assert squarefree_info(upoly(b * z**3 + a * u * z + u)) == (True, "symbolic")
        assert calls == []
        # disc = 0 at every fixed point: only the expansion can say so
        assert squarefree_info(upoly(b * (z - u) ** 2 * (z + a))) == (False, "symbolic")
        assert len(calls) == 1


class TestContentAndSquarefreeOps:
    def test_strip_keeps_family_factor_structure(self):
        a11, a14, a17 = (MPoly.var(avar(11, 3)), MPoly.var(avar(14, 2)), MPoly.var(avar(17, 1)))
        g = 12 * b**3 * a11 * (3 * a11 * a17 - a14**2)
        keep = {avar(11, 3), avar(14, 2), avar(17, 1)}
        assert strip_content(g, keep) == a11 * (3 * a11 * a17 - a14**2)

    def test_strip_reduces_pure_outside_factor_to_one(self):
        assert strip_content(7 * b, {avar(1, 1)}) == MPoly.const(1)

    def test_strip_monomial_with_empty_keep(self):
        assert strip_content(-4 * x**2 * y, set()) == MPoly.const(1)

    def test_strip_zero_rejected(self):
        with pytest.raises(AlgebraError):
            strip_content(MPoly.zero(), set())

    @given(st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_strip_is_idempotent(self, e1, e2):
        u = MPoly.var(avar(0, 1))
        v = MPoly.var(avar(1, 0))
        g = (2 * u + 3 * v) ** e1 * u**e2 * 6
        keep = {avar(0, 1), avar(1, 0)}
        s1 = strip_content(g, keep)
        assert strip_content(s1, keep) == s1

    def test_strip_keeps_repeated_factors(self):
        # nothing splits a condition into its squarefree parts: a square
        # of a kept factor stays a square
        u = MPoly.var(avar(0, 1))
        v = MPoly.var(avar(1, 0))
        g = 6 * b**2 * u * (9 * u**2 - 20 * v) ** 2
        assert strip_content(g, {avar(0, 1), avar(1, 0)}) == u * (9 * u**2 - 20 * v) ** 2

    def test_strip_on_pure_powers(self):
        u = MPoly.var(avar(0, 1))
        assert strip_content(-3 * u**3, {avar(0, 1)}) == u**3
        assert strip_content(-3 * u**3, set()) == MPoly.const(1)


class TestGcd:
    def test_univariate_rational_gcd(self):
        f = [Fraction(c) for c in (1, -2, 1)]  # (z-1)^2
        g = [Fraction(c) for c in (-1, 1)]  # z - 1
        assert qpoly_gcd(f, g) == [Fraction(-1), Fraction(1)]

    def test_univariate_coprime_inputs(self):
        f = [Fraction(c) for c in (1, 1)]  # z + 1
        g = [Fraction(c) for c in (4, 0, 2)]  # 2z^2 + 4
        assert qpoly_gcd(f, g) == [Fraction(1)]

    def test_divexact_by_a_common_factor(self):
        u = MPoly.var(avar(0, 1))
        v = MPoly.var(avar(1, 0))
        f = (u + v) * (u - v)
        assert f.divexact(u + v) == u - v
        with pytest.raises(AlgebraError, match="not an exact multiple"):
            f.divexact(u + 2 * v)

    def test_divexact_with_a_degree_gap(self):
        # the quotient's terms skip degrees in y, so the remainder drops
        # several degrees in one reduction step
        f = -(a**3) * y**3 + 3 * b * y**5 + a**3 - 3 * b * y**2
        g = -(a**3) * y**6 + 2 * b**3 * y**6 + a**3 * y**3 - 2 * b**3 * y**3
        assert f.divexact(y**3 - 1) == 3 * b * y**2 - a**3
        assert g.divexact(y**3 - 1) == (2 * b**3 - a**3) * y**3

    def test_divexact_of_a_square_with_a_degree_gap(self):
        u, v = b * x**3 + a**3, 3 * b**3 * y**3 + a**3 * x**2
        h = (3 * b**5 * x**6 * y**3 + 6 * a**3 * b**4 * x**3 * y**3 + a**3 * b**2 * x**8
             + 3 * a**6 * b**3 * y**3 + 2 * a**6 * b * x**5 + a**9 * x**2)
        assert h.divexact(u**2) == v
        assert h.divexact(v).divexact(u) == u
        with pytest.raises(AlgebraError):
            h.divexact(u**3)

    def test_yun_on_pure_powers(self):
        f = [Fraction(c) for c in (-2, 6, -6, 2)]  # 2(z-1)^3
        assert qpoly_yun(f) == [([Fraction(-1), Fraction(1)], 3)]

    def test_yun_decomposition(self):
        # (z-1)^2 (z+2)
        f = [Fraction(c) for c in (2, -3, 0, 1)]
        got = qpoly_yun(f)
        assert got == [([Fraction(2), Fraction(1)], 1), ([Fraction(-1), Fraction(1)], 2)]


class TestRendering:
    def test_canonical_examples(self):
        assert (x**2 - y**2).render() == "x^2 - y^2"
        assert MPoly.zero().render() == "0"
        f = Fraction(9, 20) * x**10 * y
        assert f.render() == "9/20*x^10*y"
        g = MPoly.var(avar(11, 3)) * x**11 * y**3
        assert g.render() == "a[11,3]*x^11*y^3"

    def test_fraction_with_unit_denominator_suppressed(self):
        assert (3 * x).render() == "3*x"


class TestMonomialOrder:
    def test_key_is_graded_lex_and_its_negation_reverses_it(self):
        monos = [next(iter(MPoly.monomial(1, {X: i, Y: j, A: k}).terms))
                 for i in range(4) for j in range(4) for k in range(3)]

        def graded_lex(m):  # degree, then exponents in the Var order a < x < y
            e = dict(m)
            return (sum(e.values()), e.get(A, 0), e.get(X, 0), e.get(Y, 0))

        ascending = sorted(monos, key=algebra._MONO_KEY)
        assert ascending == sorted(monos, key=graded_lex)
        assert sorted(monos, key=lambda m: [-k for k in algebra._MONO_KEY(m)]) == ascending[::-1]
        p = (x + y + MPoly.var(A)) ** 4
        q = x + 2 * y - MPoly.var(A)
        assert (p * q).divexact(q) == p
        assert (p * q).render() == (
            "-a^5 - 3*a^4*x - 2*a^4*y - 2*a^3*x^2 + 2*a^3*y^2 + 2*a^2*x^3 + 12*a^2*x^2*y"
            " + 18*a^2*x*y^2 + 8*a^2*y^3 + 3*a*x^4 + 16*a*x^3*y + 30*a*x^2*y^2 + 24*a*x*y^3"
            " + 7*a*y^4 + x^5 + 6*x^4*y + 14*x^3*y^2 + 16*x^2*y^3 + 9*x*y^4 + 2*y^5")


def test_kernel_module_state_does_not_grow():
    # a fresh interpreter, so the sizes are the ones the import left
    code = """
import polarnewton.algebra as alg
def sizes():
    return {k: len(v) for k, v in vars(alg).items()
            if k != "__builtins__" and isinstance(v, (dict, list, set))}
before = sizes()
from polarnewton import SampleConfig, polar_model_g1, run_verification
polar_model_g1(17, 45)
run_verification(SampleConfig(family=(17, 45), seed=42, trials=3))
assert sizes() == before, (before, sizes())
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

import hashlib
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from polarnewton import puiseux
from polarnewton.algebra import MPoly, X, Y, qpoly_yun
from polarnewton.curves import (
    PlaneSeries,
    generic_member_g1,
    parse_series,
    polar,
    substitute,
)
from polarnewton.genus1 import polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import (
    is_nondegenerate,
    newton_polygon_from_points,
    oka_decomposition,
)
from polarnewton.puiseux import (
    InsufficientDepthError,
    PuiseuxError,
    intersection_numeric,
    puiseux_expand,
    semigroup_from_char,
)
from polarnewton.verify import sample_off_locus

from _oracles import evaluate, hull_oracle, reconstruction_residual
from _support import member_of, model_of, raw

x = MPoly.var(X)
y = MPoly.var(Y)

GOLDEN = pathlib.Path(__file__).parent / "golden"
PINNED_MEMBER = "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y"


def crosscheck_polar(family, trial, seed=42, coeff_range=10):
    """The polar that `run_verification` crosschecks in this trial."""
    fam, model = member_of(family), model_of(family)
    assignment, _, (a, _), (b, _) = sample_off_locus(fam, model, random.Random(f"{seed}:{trial}"), coeff_range)
    return polar(substitute(fam.generic, assignment), a, b)


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
        pol = polar(f1, 1, 1)
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
        pol = polar(substitute(fam.generic, assignment), 3, 4)
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
        conditions = raw(model.locus)
        rng = random.Random("puiseux:7:19")
        from polarnewton.algebra import A, B

        while True:
            assignment = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for v in fam.coeff_vars}
            if model.locus.pencil_test(assignment) is None:
                continue
            full = dict(assignment)
            full[A], full[B] = Fraction(3), Fraction(2)
            if all(evaluate(c, full) != 0 for c in conditions):
                break
        pol = polar(substitute(fam.generic, assignment), 3, 2)
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
        pol = polar(f1, 1, 1)
        out = puiseux_expand(pol)
        (br, mult), = out
        assert br.n == 4 and mult == 1  # four raw conjugates merged into one class

    @pytest.mark.parametrize("expr,number", [
        ("y*(y - x)", 1),
        ("(y - x)*(y - x - x^2)", 2),
        ("(y^2 - x^3)*(y^2 - x^3 - x^4)", 8),
    ])
    def test_exact_branch_split_below_ends_no_other_branch(self, expr, number):
        # the node that divides out an exact branch leaves the other branch
        # with the same terms, so that branch must go on to its next term
        # even at depth=None, or the two merge into one conjugacy class
        def read(depth):
            flat = [br for br, mult in puiseux_expand(parse_series(expr), depth=depth)
                    for _ in range(mult)]
            return sorted(br.class_key() for br in flat), intersection_numeric(*flat)

        keys, value = read(0)
        assert value == number
        assert read(None) == (keys, value)

    def test_contact_at_the_reached_order_is_unresolved(self):
        # the contact x^(5/2) of the cusp pair sits exactly at b1's reached
        # order, where b1's terms are no longer complete
        b2 = puiseux.PuiseuxBranch(n=2, terms=((Fraction(3, 2), 1 + 0j), (Fraction(5, 2), 0.5 + 0j)),
                                   char_exponents=(2, 3), genus=1, semigroup=(2, 3), reached=None)
        for reached, want in ((Fraction(5, 2), None), (Fraction(3), 8), (Fraction(11, 4), 8)):
            b1 = puiseux.PuiseuxBranch(n=2, terms=((Fraction(3, 2), 1 + 0j),), char_exponents=(2, 3),
                                       genus=1, semigroup=(2, 3), reached=reached)
            for pair in ((b1, b2), (b2, b1)):
                if want is None:
                    with pytest.raises(InsufficientDepthError):
                        intersection_numeric(*pair)
                else:
                    assert intersection_numeric(*pair) == want

    @pytest.mark.parametrize("g1,g2", [
        ("y^2 - x^3", "y^3 - x^4"),
        ("y^2 - x^5", "y^3 - x^4"),
        ("y^2 - x^3", "y^3 - x^7"),
        ("y^2 - x^7", "y^3 - x^5 - x^4*y"),
    ])
    def test_ramification_two_meets_three(self, g1, g2):
        # branches with distinct tangent data (a0, a1) and (b0, b1) meet with
        # multiplicity min(a0*b1, b0*a1)
        flat = [br for br, mult in puiseux_expand(parse_series(f"({g1})*({g2})"), depth=None)
                for _ in range(mult)]
        (a0, a1), (b0, b1) = sorted(br.semigroup[:2] for br in flat)
        assert (a0, b0) == (2, 3)
        assert intersection_numeric(flat[0], flat[1]) == intersection_numeric(flat[1], flat[0]) \
            == min(a0 * b1, b0 * a1)

    def test_fractional_intersection_keeps_its_message(self):
        # an inconsistent pair: b1 claims ramification 1 but carries x^(3/2)
        b1 = puiseux.PuiseuxBranch(n=1, terms=((Fraction(1), 1 + 0j), (Fraction(3, 2), 1 + 0j)),
                                   char_exponents=(1,), genus=0, semigroup=(1,), reached=None)
        b2 = puiseux.PuiseuxBranch(n=2, terms=((Fraction(1), 1 + 0j), (Fraction(3, 2), 1 + 0j),
                                               (Fraction(2), 1 + 0j)),
                                   char_exponents=(2, 3), genus=1, semigroup=(2, 3), reached=None)
        with pytest.raises(PuiseuxError) as info:
            intersection_numeric(b1, b2)
        assert str(info.value) == "intersection number came out fractional: 7/2"


class TestOkaAgreement:
    def test_branch_classes_and_table_match_the_combinatorial_route(self):
        fam = generic_member_g1(5, 12)
        model = polar_model_g1(5, 12)
        conditions = raw(model.locus)
        rng = random.Random(2024)
        from polarnewton.algebra import A, B

        count = 0
        while count < 3:
            assignment = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 5)) for v in fam.coeff_vars}
            if model.locus.pencil_test(assignment) is None:
                continue
            full = dict(assignment)
            full[A], full[B] = Fraction(1), Fraction(2)
            if any(evaluate(c, full) == 0 for c in conditions):
                continue
            count += 1
            pol = polar(substitute(fam.generic, assignment), 1, 2)
            nondeg = is_nondegenerate(pol)
            assert nondeg.verdict == "nondegenerate"
            rep = oka_decomposition(nondeg.polygon)
            out = puiseux_expand(pol, min_order=4)
            flat = [br for br, mult in out for _ in range(mult)]
            assert sorted(br.class_key() for br in flat) == sorted(
                (1,) if k[0] == 1 else k for k in rep.expanded_keys()
            )
            # both (2,5) branches meet with multiplicity 10 = min-rule value
            assert intersection_numeric(flat[0], flat[1]) == 10


class TestCompactSides:
    """`_compact_sides` reads its sides off `newton_polygon_from_points`;
    these check the sides the expander reads against the all-pairs oracle,
    also on product supports, whose hull is the Minkowski sum of the
    factors' hulls."""

    @staticmethod
    def check(pts, vertices):
        sides = puiseux._compact_sides(dict.fromkeys(pts))
        if len(vertices) == 1:
            assert sides == []
            return
        assert [on[0] for on, _n, _m in sides] + [sides[-1][0][-1]] == list(vertices)
        for on, nbar, mbar in sides:
            (i0, j0), (i1, j1) = on[0], on[-1]
            assert math.gcd(nbar, mbar) == 1 and (j0 - j1) * mbar == (i1 - i0) * nbar
            assert on == sorted((pt for pt in pts if (pt[0] - i0) * nbar == (j0 - pt[1]) * mbar
                                   and i0 <= pt[0] <= i1), reverse=True, key=lambda pt: pt[1])

    def test_matches_dominance_oracle_on_random_supports(self):
        rng = random.Random(1616)
        for _ in range(200):
            pts = {(rng.randint(0, 14), rng.randint(0, 14)) for _ in range(rng.randint(1, 30))}
            self.check(pts, hull_oracle(pts))

    def test_product_supports_give_the_minkowski_sum(self):
        rng = random.Random(61)
        for _ in range(100):
            a, b = ({(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(rng.randint(1, 8))}
                    for _ in range(2))
            product = {(i + k, j + l) for (i, j) in a for (k, l) in b}  # no cancellation
            want = hull_oracle(product)
            self.check(product, want)
            assert list(newton_polygon_from_points(product).vertices()) == want


class TestEdgeRoots:
    def test_degree_one_root_is_the_np_roots_root(self):
        import numpy as np
        rng = random.Random(5)
        for _ in range(500):
            c0, c1 = (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-6, 6)
                      for _ in range(2))
            (got, mult), = puiseux._edge_roots({(0, 1): c1, (3, 0): c0}, [(0, 1), (3, 0)], None)
            want, = np.roots([c1, c0]).tolist()
            assert mult == 1
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            # independent of numpy: the exact quotient -c0/c1 of the floats' values
            a, b, c, d = (Fraction(v) for v in (c0.real, c0.imag, c1.real, c1.imag))
            norm = c * c + d * d
            re, im = -(a * c + b * d) / norm, -(b * c - a * d) / norm
            gap = (Fraction(got.real) - re) ** 2 + (Fraction(got.imag) - im) ** 2
            assert gap <= Fraction(1, 10**26) * (re * re + im * im)  # relative 1e-13


def rational_side_roots(p, pts, den):
    """A first-level side's roots read over the rationals: the side's
    `Fraction` coefficients go through `qpoly_yun`, a linear factor gives
    its root as the float of its monic constant, and np.roots reads any
    other factor's monic coefficients as floats."""
    import numpy as np
    j0 = pts[-1][1]
    coeffs = [Fraction(0)] * (pts[0][1] - j0 + 1)
    for (i, j) in pts:
        coeffs[j - j0] = Fraction(p[(i, j)], den)
    out = []
    for fac, mult in qpoly_yun(coeffs):
        if len(fac) == 2:
            roots = [complex(-fac[0])]
        else:
            roots = np.roots([complex(c) for c in reversed(fac)]).tolist()
        out.extend((r, mult) for r in roots)
    return out


class TestIntegerSideRoots:
    """The first level reads its side roots from integer numerators; they
    must be the rational route's floats, bit for bit (`repr`, so the sign of
    a zero counts)."""

    @pytest.fixture(scope="class")
    def sides(self):
        # no crosscheck polar here has a linear first-level side; the two
        # products after them do
        series = [crosscheck_polar(family, trial, seed, coeff_range)
                  for family in ((7, 19), (5, 12, 1), (7, 19, 1))
                  for seed in (7, 42) for coeff_range in (2, 10) for trial in range(10)]
        series += [parse_series("(3*y - 2*x)*(y^2 - x^3)"),
                   parse_series("(y + (5/3)*x^2)*(7*y - 5*x)*(y^2 + x^5)")]
        out = []
        for f in series:
            p, den = f.terms.nums, f.terms.den
            out.extend((p, pts, den) for pts, _nbar, _mbar in puiseux._compact_sides(p))
        return out

    def test_crosscheck_sides_match_the_rational_route(self, sides):
        for p, pts, den in sides:
            assert repr(puiseux._edge_roots(p, pts, den)) == repr(rational_side_roots(p, pts, den)), pts
        # not vacuous: linear sides, and sides with a negative leading
        # numerator and a zero coefficient, whose monic coefficient there
        # must stay +0
        degrees = [pts[0][1] - pts[-1][1] for _p, pts, _den in sides]
        gapped = [pts for p, pts, _den in sides if len(pts) <= pts[0][1] - pts[-1][1] and p[pts[0]] < 0]
        assert degrees.count(1) >= 3 and max(degrees) >= 4 and len(gapped) >= 10

    def test_a_repeated_factor_keeps_its_multiplicity(self, monkeypatch):
        calls = []
        monkeypatch.setattr(puiseux, "qpoly_yun", lambda c: calls.append(c) or qpoly_yun(c))
        f = PlaneSeries.from_poly((y - x) ** 2 * (y + 2 * x))
        p, den = f.terms.nums, f.terms.den
        (pts, _nbar, _mbar), = puiseux._compact_sides(p)
        got = puiseux._edge_roots(p, pts, den)
        assert len(calls) == 1
        assert repr(got) == repr(rational_side_roots(p, pts, den))
        assert sorted((r.real, mult) for r, mult in got) == [(-2.0, 1), (1.0, 2)]


class TestTruncatedChains:
    """Separated branches run on truncated substitutions (see `puiseux_expand`);
    the results must be those of the untruncated expansion, float for float."""

    # sha256 of repr(puiseux_expand(polar, min_order=m)), recorded with the
    # untruncated expansion for the crosscheck polars of the bench families
    # (seed 42, trials 0-4) at m = 4 and 8.  Left out because the untruncated
    # expansion raises "coefficient magnitudes overflowed" there:
    OVERFLOWED_UNTRUNCATED = {"g2_7_19_1/1/8"}
    FAMILIES = {"g1_7_19": (7, 19), "g2_5_12_1": (5, 12, 1), "g2_7_19_1": (7, 19, 1)}

    @pytest.fixture(scope="class")
    def polars(self):
        return {(name, t): crosscheck_polar(fam, t)
                for name, fam in self.FAMILIES.items() for t in range(5)}

    @staticmethod
    def _pinned(polars):
        """(key, polar, min_order) for every pinned crosscheck and restart key."""
        keys = (list(json.loads((GOLDEN / "puiseux_crosscheck_sha256.json").read_text()))
                + list(json.loads((GOLDEN / "puiseux_restart_sha256.json").read_text())))
        for key in keys:
            name, t, m = key.split("/")
            family = tuple(int(k) for k in name.split("_")[1:])
            f = polars[(name, int(t))] if (name, int(t)) in polars else crosscheck_polar(family, int(t))
            yield key, f, int(m)

    def test_crosscheck_expansions_are_pinned(self, polars):
        pinned = json.loads((GOLDEN / "puiseux_crosscheck_sha256.json").read_text())
        keys = {f"{name}/{t}/{m}" for (name, t) in polars for m in (4, 8)}
        assert set(pinned) == keys - self.OVERFLOWED_UNTRUNCATED
        for key, digest in sorted(pinned.items()):
            name, t, m = key.split("/")
            text = repr(puiseux_expand(polars[(name, int(t))], min_order=int(m)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key

    def test_expansions_that_restart_are_pinned(self, uncertified):
        # sha256 of repr(puiseux_expand(polar, min_order=m)) for crosscheck
        # polars (seed 42) whose chains restart with the default budget:
        # on g1 (4,9) three chains restart, then run untruncated; on g1 (2,5)
        # one chain restarts and goes back untruncated to the general steps
        pinned = json.loads((GOLDEN / "puiseux_restart_sha256.json").read_text())
        assert set(pinned) == ({f"g1_4_9/{t}/{m}" for t in range(3) for m in (4, 8, 16)}
                               | {f"g1_2_5/{t}/{m}" for t in range(3) for m in (8, 16)})
        for key, digest in sorted(pinned.items()):
            name, t, m = key.split("/")
            family = tuple(int(k) for k in name.split("_")[1:])
            uncertified[0] = 0
            text = repr(puiseux_expand(crosscheck_polar(family, int(t)), min_order=int(m)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key
            assert uncertified[0] == (1 if name == "g1_2_5" else 3), key

    def test_fractional_orders_are_pinned(self, polars):
        # sha256 of repr(puiseux_expand(f, depth, min_order=m)) for m in
        # {7/3, 5/2, 9/2}, at the default depth and at depth=None; the cusp
        # pair's branches reach 5/2 exactly; the cusp's branches have terms
        # at x^2 and x^(5/2), so 7/3 must not end them at x^2
        pinned = json.loads((GOLDEN / "puiseux_fractional_min_order_sha256.json").read_text())
        series = {
            "readme_member": parse_series(PINNED_MEMBER),
            "readme_polar": polar(parse_series(PINNED_MEMBER), 1, 1),
            "cusp_pair": parse_series("(y^2 - x^3)*(y^2 - x^3 - x^4)"),
            "cusp": parse_series("(y - x^2)^2 - x^3 - x^4"),
            "g1_7_19/0": polars[("g1_7_19", 0)],
            "g2_5_12_1/1": polars[("g2_5_12_1", 1)],
            "g2_7_19_1/2": polars[("g2_7_19_1", 2)],
        }
        assert len(pinned) == len(series) * 3 * 2
        for key, digest in sorted(pinned.items()):
            name, m, *rest = key.split(" ")
            depth = None if rest == ["depth=None"] else 0
            text = repr(puiseux_expand(series[name], depth=depth, min_order=Fraction(m[2:])))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key

    def test_deep_order_finishes_where_the_full_shift_overflowed(self, polars):
        # (7,19) trial 2 at min_order 16 overflowed without truncation
        out = puiseux_expand(polars[("g1_7_19", 2)], min_order=16)
        got = sorted(br.class_key() for br, mult in out for _ in range(mult))
        want = sorted((1,) if k[0] == 1 else k for k in polar_model_g1(7, 19).topology.expanded_keys())
        assert got == want

    @pytest.mark.xfail(strict=True, raises=PuiseuxError,
                       reason="deep float expansion splits conjugates: "
                              "conjugacy class size 1 does not match ramification 2")
    def test_deep_order_keeps_conjugates_together(self, polars):
        # (5,12,1) trial 3 at min_order 16: the coefficients reach 1e22-1e34,
        # so two conjugates no longer agree within COEFF_REL; an exact
        # expander over a prime field would not depend on that tolerance
        out = puiseux_expand(polars[("g2_5_12_1", 3)], min_order=16)
        got = sorted(br.class_key() for br, mult in out for _ in range(mult))
        want = sorted((1,) if k[0] == 1 else k for k in polar_model_g2(5, 12, 1).topology.expanded_keys())
        assert got == want

    @staticmethod
    def _cubic_polar():
        # (4,9) seed 7 trial 1: a y-cubic polar with one branch of ramification 3
        return crosscheck_polar((4, 9), 1, seed=7)

    @pytest.mark.parametrize("order", [None, 4], ids=["depth-None", "min-order-4"])
    def test_cubic_polar_is_one_branch_of_the_model_class(self, order):
        f = self._cubic_polar()
        out = puiseux_expand(f, depth=None) if order is None else puiseux_expand(f, min_order=order)
        assert [(br.n, mult, br.class_key()) for br, mult in out] == [(3, 1, (3, 7))]
        assert list(polar_model_g1(4, 9).topology.expanded_keys()) == [(3, 7)]

    @pytest.mark.xfail(strict=True, raises=PuiseuxError,
                       reason="float expansion splits conjugates at a shallow order: "
                              "conjugacy class size 1 does not match ramification 3")
    def test_cubic_polar_keeps_conjugates_together_at_order_6(self):
        out = puiseux_expand(self._cubic_polar(), min_order=6)
        assert [(br.n, mult, br.class_key()) for br, mult in out] == [(3, 1, (3, 7))]

    def test_separating_terms_decide_what_the_pinned_expansions_decide(self, polars):
        # depth=None ends each branch at its separating term; on every pinned
        # polar that keeps the branches, ramifications, classes and pairwise
        # intersections of the min_order expansion (intersection_numeric raises
        # on a contact at or past reached, so each contact resolves below it)
        for key, f, m in self._pinned(polars):
            short = [br for br, mult in puiseux_expand(f, depth=None) for _ in range(mult)]
            full = [br for br, mult in puiseux_expand(f, min_order=m) for _ in range(mult)]
            assert [(br.n, br.class_key()) for br in short] == [(br.n, br.class_key()) for br in full], key
            for r in range(len(short)):
                assert short[r].terms == full[r].terms[:len(short[r].terms)], key
                for c in range(r + 1, len(short)):
                    assert (intersection_numeric(short[r], short[c])
                            == intersection_numeric(full[r], full[c])), key

    def test_decision_rows_are_the_rows_of_the_full_shift(self, polars, monkeypatch):
        # a truncated separating child whose chain is done forms only the keys
        # that decide it; its decision is the one read off the full shift at
        # that budget, which at depth=None is never formed
        separates, substituted = puiseux._separates, puiseux._substituted
        checked, shifts = [0], [0]

        def comparing(layout, c, budget, low):
            got = separates(layout, c, budget, low)
            full = substituted(layout, c, budget)
            assert got == ((0, 1) in full and any(j == 0 for (_i, j) in full))
            checked[0] += 1
            return got

        def counting(*args):
            shifts[0] += 1
            return substituted(*args)

        monkeypatch.setattr(puiseux, "_separates", comparing)
        monkeypatch.setattr(puiseux, "_substituted", counting)
        for f in polars.values():
            puiseux_expand(f, depth=None)
        assert (checked[0], shifts[0]) == (140, 0)  # every substitution of the crosscheck
        undecided = set()
        for key, f, m in self._pinned(polars):
            checked[0] = 0
            puiseux_expand(f, min_order=m)
            if not checked[0]:
                undecided.add(key)
        # on g1 (2,5) the one chain restarts and runs untruncated; on g1 (4,9)
        # trials 0 and 2 at m = 4 only the three chains that restart would end
        # on a decision, and they rerun untruncated
        assert sorted(undecided) == sorted([f"g1_2_5/{t}/{m}" for t in range(3) for m in (16, 8)]
                                           + ["g1_4_9/0/4", "g1_4_9/2/4"])

    def test_separation_forms_no_row_past_y(self, polars, monkeypatch):
        # a work guard: at depth=None every substitution of these polars is a
        # separating child that ends its chain, so each is only decided and
        # no shift, with its rows y^2 and up, is formed
        calls = []
        separates, substituted = puiseux._separates, puiseux._substituted
        monkeypatch.setattr(puiseux, "_separates", lambda *args: calls.append("decide") or separates(*args))
        monkeypatch.setattr(puiseux, "_substituted", lambda *args: calls.append("shift") or substituted(*args))
        for f in [*polars.values(), *(f for _key, f, _m in self._pinned(polars))]:
            puiseux_expand(f, depth=None)
        assert calls and set(calls) == {"decide"}

    def test_decision_is_the_full_shift_at_every_budget(self, polars, monkeypatch):
        # each (layout, root) that the crosscheck decides, at every budget
        # from none at all up past the starting one, and last the root 1 of
        # (y - x^2)(1 + x) + x^4, whose y^0 terms cancel at x^1 and first
        # survive at x^2, so budgets up to 2 cannot decide it
        decided, separates = [], puiseux._separates
        monkeypatch.setattr(puiseux, "_separates",
                            lambda layout, c, *args: decided.append((layout, c)) or separates(layout, c, *args))
        for f in polars.values():
            puiseux_expand(f, depth=None)
        p = {(0, 1): 1 + 0j, (2, 0): -1 + 0j, (1, 1): 1 + 0j, (3, 0): -1 + 0j, (4, 0): 1 + 0j}
        (_pts, nbar, mbar), = puiseux._compact_sides(p)
        cancelling = (puiseux._shift_layout(p, nbar, mbar), 1 + 0j)
        got = {}
        for layout, c in [*decided, cancelling]:
            for budget in range(12):
                full = puiseux._substituted(layout, c, budget)
                got[budget] = separates(layout, c, budget, {})
                assert got[budget] == ((0, 1) in full and any(j == 0 for (_i, j) in full))
        assert len(decided) == 140 and [got[b] for b in range(5)] == [False, False, False, True, True]

    def test_decision_raises_where_the_full_shift_does(self):
        # y - x^2 - x^3 + x y^2 on its side (0,1)-(2,0): the root 1 leaves
        # y - x and higher terms, a plain separated step; 2 does not vanish
        # on the side, and near 1e200 the square in the row y^2 overflows
        p = {(0, 1): 1 + 0j, (2, 0): -1 + 0j, (3, 0): -1 + 0j, (1, 2): 1 + 0j}
        (_pts, nbar, mbar), = puiseux._compact_sides(p)
        layout = puiseux._shift_layout(p, nbar, mbar)
        assert puiseux._separates(layout, 1 + 0j, 8, {}) is True
        for c, message in [(2 + 0j, "does not vanish on the side; tolerance failure"),
                           (1e200 + 0j, "coefficient magnitudes overflowed")]:
            for route in (lambda: puiseux._separates(layout, c, 8, {}),
                          lambda: puiseux._substituted(layout, c, 8)):
                with pytest.raises(PuiseuxError, match=message):
                    route()

    def test_each_side_lays_out_its_shift_once(self, polars, monkeypatch):
        # a work guard: every root on a side reuses that side's layout; at
        # depth=None the only sides are the compact sides of each root node
        built = []
        layout = puiseux._shift_layout
        monkeypatch.setattr(puiseux, "_shift_layout",
                            lambda p, nbar, mbar: built.append((nbar, mbar)) or layout(p, nbar, mbar))
        sides = 0
        for f in polars.values():
            puiseux_expand(f, depth=None)
            sides += len(puiseux._compact_sides(f.terms.nums))
        assert len(built) == sides == 35

    def test_hull_runs_only_on_unseparated_nodes(self, polars, monkeypatch):
        # a call-count guard: at depth=None every branch of the bench polars
        # ends at its separating term, so no chain step runs and the hull
        # runs once per expansion, on the root
        separated = []
        compact = puiseux._compact_sides

        def recording(p):
            separated.append((0, 1) in p)
            return compact(p)

        monkeypatch.setattr(puiseux, "_compact_sides", recording)
        for f in polars.values():
            puiseux_expand(f, depth=None)
        assert len(polars) == 15 and separated == [False] * 15

    @pytest.fixture
    def uncertified(self, monkeypatch):
        """Counts truncated attempts that had to restart.

        A restart substitutes or decides its chain's first node again: the
        same parent shift (its side layout and root), which no other
        substitution or decision repeats.  A chain restarts at most once,
        untruncated, so no parent shift is taken a third time.
        """
        count = [0]
        seen = {}  # keeps every layout alive, so no id is reused

        def counting(route):
            def counted(layout, c, *args):
                key = (id(layout), c)
                count[0] += key in seen
                _layout, visits = seen.get(key, (layout, 0))
                assert visits < 2, "a chain restarted more than once"
                seen[key] = layout, visits + 1
                return route(layout, c, *args)
            return counted

        monkeypatch.setattr(puiseux, "_substituted", counting(puiseux._substituted))
        monkeypatch.setattr(puiseux, "_separates", counting(puiseux._separates))
        return count

    @pytest.mark.parametrize("case", ["pinned_member", "pinned_member_polar", "g2_7_19_1", "exact_branch"])
    def test_escalation_reproduces_the_untruncated_expansion(self, monkeypatch, uncertified, case):
        f, min_order = {
            "pinned_member": (parse_series(PINNED_MEMBER), None),
            "pinned_member_polar": (polar(parse_series(PINNED_MEMBER), 1, 1), 12),
            "g2_7_19_1": (crosscheck_polar((7, 19, 1), 0), 4),
            "exact_branch": (PlaneSeries.from_poly((y - x - x**2) * (y**2 - x**3)), 6),
        }[case]
        default = repr(puiseux_expand(f, min_order=min_order))
        monkeypatch.setattr(puiseux, "_chain_budget", lambda *args: 2)
        uncertified[0] = 0
        assert repr(puiseux_expand(f, min_order=min_order)) == default
        # a budget of 2 cannot certify a step, so every chain restarts once
        assert uncertified[0] == {"pinned_member": 5, "pinned_member_polar": 4,
                                  "g2_7_19_1": 13, "exact_branch": 3}[case]
        monkeypatch.setattr(puiseux, "_chain_budget", lambda *args: None)
        assert repr(puiseux_expand(f, min_order=min_order)) == default
        if case == "exact_branch":
            smooth = [br for br, _ in puiseux_expand(f, min_order=min_order) if br.n == 1]
            assert len(smooth) == 1 and smooth[0].reached is None

    def test_an_unsettled_decision_takes_one_whole_shift(self, monkeypatch, uncertified):
        # the branch y = x^2 of ((y - x^2)(1 + x) + x^4)(y - x + x^2) ends
        # its chain at once at depth=None; its y^0 terms cancel at x^1 and
        # first survive at x^2, which a budget of 2 cannot see, so its chain
        # runs again untruncated: one whole shift, no second decision
        f = PlaneSeries.from_poly(((y - x**2) * (1 + x) + x**4) * (y - x + x**2))
        default = repr(puiseux_expand(f, depth=None))
        calls = []
        separates, substituted = puiseux._separates, puiseux._substituted
        monkeypatch.setattr(puiseux, "_separates",
                            lambda layout, c, budget, low: calls.append(("decide", budget))
                            or separates(layout, c, budget, low))
        monkeypatch.setattr(puiseux, "_substituted",
                            lambda layout, c, budget=None: calls.append(("shift", budget))
                            or substituted(layout, c, budget))
        monkeypatch.setattr(puiseux, "_chain_budget", lambda *args: 2)
        uncertified[0] = 0
        assert repr(puiseux_expand(f, depth=None)) == default
        assert uncertified[0] == 1
        assert sorted(calls, key=repr) == [("decide", 2), ("decide", 2), ("shift", None)]

    # (decisions, shifts) of each expansion in puiseux_exact_branch_sha256.json:
    # a chain that ends on an exact branch makes one truncated attempt
    EXACT_BRANCH_CALLS = {
        "(y - x)*(y - 2*x)": {"depth=None": (2, 2), "depth=0": (0, 4), "min_order=6": (0, 4)},
        "y*(y - x)": {"depth=None": (1, 1), "depth=0": (0, 2), "min_order=6": (0, 2)},
        "(y - x)*(y - x - x^2)": {"depth=None": (1, 2), "depth=0": (0, 3), "min_order=6": (0, 3)},
        "(y^2 - x^3)*(y^2 - x^3 - x^4)": {"depth=None": (2, 2), "depth=0": (2, 16),
                                          "min_order=6": (2, 20)},
    }

    def test_exact_branches_are_pinned(self, monkeypatch):
        # sha256 of repr(puiseux_expand(f, ...)) for products with an exact
        # branch, whose separating child holds y alone and so settles at no
        # budget; recorded while a chain still tried the budgets 8, 16, 32 and
        # 64 before it ran untruncated, so one attempt changes no output
        pinned = json.loads((GOLDEN / "puiseux_exact_branch_sha256.json").read_text())
        runs = {"depth=None": {"depth": None}, "depth=0": {"depth": 0}, "min_order=6": {"min_order": 6}}
        assert set(pinned) == {f"{expr} {run}" for expr in self.EXACT_BRANCH_CALLS for run in runs}
        calls = []
        separates, substituted = puiseux._separates, puiseux._substituted
        monkeypatch.setattr(puiseux, "_separates", lambda *args: calls.append("decide") or separates(*args))
        monkeypatch.setattr(puiseux, "_substituted", lambda *args: calls.append("shift") or substituted(*args))
        for key, digest in sorted(pinned.items()):
            expr, run = key.rsplit(" ", 1)
            calls.clear()
            text = repr(puiseux_expand(parse_series(expr), **runs[run]))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key
            assert (calls.count("decide"), calls.count("shift")) == self.EXACT_BRANCH_CALLS[expr][run], key

    @pytest.mark.parametrize("case", ["least_budget", "steps_left", "below_min_order"])
    def test_each_term_of_the_chain_budget_can_win(self, monkeypatch, polars, case):
        # _chain_budget is the largest of _BUDGET0, left + 2 and
        # 2 - (offset - least) // u; each case makes one of them the largest
        # on every chain it starts; seen holds ((u, offset, left, least), budget)
        budget, seen = puiseux._chain_budget, []
        monkeypatch.setattr(puiseux, "_chain_budget",
                            lambda *args: seen.append((args, budget(*args))) or seen[-1][1])
        if case == "least_budget":
            # at depth=None a chain ends where it starts, with no step left
            for f in polars.values():
                puiseux_expand(f, depth=None)
            assert len(seen) == 140 and puiseux._BUDGET0 == 8
            for (u, offset, left, least), got in seen:
                assert got == 8 and left + 2 <= 2 and 2 - (offset - least) // u < 8
        elif case == "steps_left":
            # y^5 = x^12 has five conjugate branches of ramification 5 (L = 60,
            # u = 12), which at the default depth run 2 * 5 steps past their
            # separating term at x^(12/5)
            puiseux_expand(parse_series("y^5 - x^12"))
            assert seen == [((12, 144, 10, 0), 12)] * 5
        else:
            # y^2 = x^2 + x^3 has two smooth branches (L = 2, u = 2) that
            # separate at x^1, 19 steps below min_order 20
            puiseux_expand(parse_series("y^2 - x^2 - x^3"), min_order=20)
            assert seen == [((2, 2, 2, 40), 21)] * 2

    def test_step_budget_still_applies(self, monkeypatch):
        monkeypatch.setattr(puiseux, "_MAX_STEPS", 10)
        with pytest.raises(PuiseuxError, match="expansion exceeded the step budget"):
            puiseux_expand(crosscheck_polar((7, 19, 1), 0), min_order=4)

    def test_restarts_do_not_count_toward_the_step_budget(self, monkeypatch, uncertified):
        f = PlaneSeries.from_poly((y - x - x**2) * (y**2 - x**3))
        budget = puiseux._chain_budget
        monkeypatch.setattr(puiseux, "_chain_budget", lambda *args: None)
        need = next(n for n in range(1, 50)
                    if not self._exceeds(monkeypatch, n, f))  # steps of the untruncated run
        monkeypatch.setattr(puiseux, "_chain_budget", budget)
        uncertified[0] = 0
        assert not self._exceeds(monkeypatch, need, f)
        assert uncertified[0] == 3  # each of the three exact branches restarted once
        assert self._exceeds(monkeypatch, need - 1, f)

    @staticmethod
    def _exceeds(monkeypatch, max_steps, f) -> bool:
        monkeypatch.setattr(puiseux, "_MAX_STEPS", max_steps)
        try:
            puiseux_expand(f, min_order=6)
        except PuiseuxError as exc:
            assert "step budget" in str(exc)
            return True
        return False

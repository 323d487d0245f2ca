import hashlib
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from polarnewton import puiseux
from polarnewton.algebra import MPoly, X, Y
from polarnewton.curves import (
    PlaneSeries,
    PolarParams,
    generic_member_g1,
    generic_member_g2,
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
from polarnewton.verify import _draw_general_pencil, sample_off_locus

from _oracles import evaluate, hull_oracle, reconstruction_residual

x = MPoly.var(X)
y = MPoly.var(Y)

GOLDEN = pathlib.Path(__file__).parent / "golden"
PINNED_MEMBER = "y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y"


def crosscheck_polar(family, trial, seed=42):
    """The polar that `run_verification` crosschecks in this trial."""
    if len(family) == 2:
        fam, model = generic_member_g1(*family), polar_model_g1(*family)
    else:
        fam, model = generic_member_g2(*family), polar_model_g2(*family)
    rng = random.Random(f"{seed}:{trial}")
    assignment, _ = sample_off_locus(fam, model, rng, 10)
    (a, _), (b, _) = _draw_general_pencil(fam, model, rng, 10, assignment)
    return polar(fam.generic, PolarParams.concrete(a, b), assignment)


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
            if all(evaluate(c, full) != 0 for c in model.locus.raw):
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
            if any(evaluate(c, full) == 0 for c in model.locus.raw):
                continue
            count += 1
            pol = polar(substitute(fam.generic, assignment), PolarParams.concrete(1, 2))
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
    """`_compact_sides` has its own hull walk; these check it against the
    all-pairs oracle, also on product supports, whose hull is the Minkowski
    sum of the factors' hulls."""

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


def _bits(z: complex):
    return (z.real.hex(), z.imag.hex())


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
        # polars (seed 42) whose chains restart with the default budgets: on
        # g1 (4,9) three chains restart once; on g1 (2,5) one chain fails all
        # four budgets and goes back untruncated to the general steps
        pinned = json.loads((GOLDEN / "puiseux_restart_sha256.json").read_text())
        assert set(pinned) == ({f"g1_4_9/{t}/{m}" for t in range(3) for m in (4, 8, 16)}
                               | {f"g1_2_5/{t}/{m}" for t in range(3) for m in (8, 16)})
        for key, digest in sorted(pinned.items()):
            name, t, m = key.split("/")
            family = tuple(int(k) for k in name.split("_")[1:])
            uncertified[0] = 0
            text = repr(puiseux_expand(crosscheck_polar(family, int(t)), min_order=int(m)))
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key
            assert uncertified[0] > 0, key

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
        # a truncated separating child whose chain is done forms only its keys
        # with k <= 1; each holds the float the full shift at that budget gives
        substituted = puiseux._substituted
        checked = [0]

        def comparing(layout, c, budget=None, decide=False):
            out = substituted(layout, c, budget, decide)
            if decide:
                full = substituted(layout, c, budget)
                assert ({key: _bits(v) for key, v in out.items()}
                        == {key: _bits(v) for key, v in full.items() if key[1] <= 1})
                checked[0] += 1
            return out

        monkeypatch.setattr(puiseux, "_substituted", comparing)
        for f in polars.values():
            puiseux_expand(f, depth=None)
        assert checked[0] == 140  # every substitution of the crosscheck
        undecided = set()
        for key, f, m in self._pinned(polars):
            checked[0] = 0
            puiseux_expand(f, min_order=m)
            if not checked[0]:
                undecided.add(key)
        # on g1 (2,5) the one chain fails every budget and runs untruncated
        assert sorted(undecided) == [f"g1_2_5/{t}/{m}" for t in range(3) for m in (16, 8)]

    def test_separation_forms_no_row_past_y(self, polars, monkeypatch):
        # a work guard: at depth=None every substitution of these polars is a
        # separating child that ends its chain, so no key (e, k) has k >= 2
        rows = []
        substituted = puiseux._substituted

        def recording(layout, c, budget=None, decide=False):
            out = substituted(layout, c, budget, decide)
            rows.extend(k for (_e, k) in out)
            return out

        monkeypatch.setattr(puiseux, "_substituted", recording)
        for f in [*polars.values(), *(f for _key, f, _m in self._pinned(polars))]:
            puiseux_expand(f, depth=None)
        assert rows and max(rows) == 1

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
            sides += len(puiseux._compact_sides(puiseux._series_numerators(f)[0]))
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

        A restart substitutes its chain's first node again: the same parent
        shift (its side layout and root), which no other substitution repeats.
        """
        count = [0]
        seen = {}  # keeps every layout alive, so no id is reused
        substituted = puiseux._substituted

        def counting(layout, c, budget=None, decide=False):
            key = (id(layout), c)
            count[0] += key in seen
            seen[key] = layout
            return substituted(layout, c, budget, decide)

        monkeypatch.setattr(puiseux, "_substituted", counting)
        return count

    @pytest.mark.parametrize("case", ["pinned_member", "pinned_member_polar", "g2_7_19_1", "exact_branch"])
    def test_escalation_reproduces_the_untruncated_expansion(self, monkeypatch, uncertified, case):
        f, min_order = {
            "pinned_member": (parse_series(PINNED_MEMBER), None),
            "pinned_member_polar": (polar(parse_series(PINNED_MEMBER), PolarParams.concrete(1, 1)), 12),
            "g2_7_19_1": (crosscheck_polar((7, 19, 1), 0), 4),
            "exact_branch": (PlaneSeries.from_poly((y - x - x**2) * (y**2 - x**3)), 6),
        }[case]
        default = repr(puiseux_expand(f, min_order=min_order))
        monkeypatch.setattr(puiseux, "_chain_budgets", lambda *args: [2, 4, 8, 16])
        uncertified[0] = 0
        assert repr(puiseux_expand(f, min_order=min_order)) == default
        assert uncertified[0] > 0  # a starting budget of 2 cannot certify a step
        monkeypatch.setattr(puiseux, "_chain_budgets", lambda *args: [])
        assert repr(puiseux_expand(f, min_order=min_order)) == default
        if case == "exact_branch":
            smooth = [br for br, _ in puiseux_expand(f, min_order=min_order) if br.n == 1]
            assert len(smooth) == 1 and smooth[0].reached is None

    def test_step_budget_still_applies(self, monkeypatch):
        monkeypatch.setattr(puiseux, "_MAX_STEPS", 10)
        with pytest.raises(PuiseuxError, match="expansion exceeded the step budget"):
            puiseux_expand(crosscheck_polar((7, 19, 1), 0), min_order=4)

    def test_restarts_do_not_count_toward_the_step_budget(self, monkeypatch, uncertified):
        f = PlaneSeries.from_poly((y - x - x**2) * (y**2 - x**3))
        budgets = puiseux._chain_budgets
        monkeypatch.setattr(puiseux, "_chain_budgets", lambda *args: [])
        need = next(n for n in range(1, 50)
                    if not self._exceeds(monkeypatch, n, f))  # steps of the untruncated run
        monkeypatch.setattr(puiseux, "_chain_budgets", budgets)
        uncertified[0] = 0
        assert not self._exceeds(monkeypatch, need, f)
        assert uncertified[0] > 0  # the exact branch made every truncated attempt restart
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

import dataclasses
import hashlib
import json
import pathlib
import random
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest

from polarnewton import algebra, curves, newton, puiseux, verify
from polarnewton.algebra import A, B, MPoly, avar
from polarnewton.curves import (PlaneSeries, _IntegerTerms, generic_member_g1,
                               generic_member_g2, lowest_polar_terms, polar, substitute)
from polarnewton.genus1 import DegeneracyLocus, polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import PolygonError, is_nondegenerate, newton_polygon
from polarnewton.puiseux import puiseux_expand
from polarnewton.verify import (
    SampleConfig,
    VerifyError,
    _draw_assignment,
    report_to_json,
    run_verification,
    sample_off_locus,
)

from _oracles import evaluate, point_values
from _support import member_of, model_of, power_degeneracy
from test_model_digests import G1_BOX, G2_BOX


class TestConfig:
    def test_validation(self):
        with pytest.raises(VerifyError):
            SampleConfig(family=(7, 19), seed=1, trials=0)
        with pytest.raises(VerifyError):
            SampleConfig(family=(7, 19), seed=1, trials=1, coeff_range=1)
        with pytest.raises(VerifyError):
            SampleConfig(family=(7,), seed=1, trials=1)

    @pytest.mark.parametrize("trials,coeff_range", [(10, 0), (10, -3), (10, 1), (0, 10)])
    def test_rejects_an_empty_run_or_range_before_drawing(self, trials, coeff_range, monkeypatch):
        # a range below 2 has no denominator to draw, so a draw would redraw
        # it forever, and no trial makes an all-zero summary: both fail here,
        # before any draw
        def no_draw(*args):
            raise AssertionError("drew before checking the run")

        monkeypatch.setattr(verify, "_rand_pairs", no_draw)
        with pytest.raises(VerifyError, match=r"^need trials >= 1 and coeff_range >= 2$"):
            SampleConfig(family=(2, 3), seed=42, trials=trials, coeff_range=coeff_range)


class TestSampling:
    def test_off_locus_sample_avoids_every_generator(self):
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        rng = random.Random(0)
        assignment, _, (a, _), (b, _) = sample_off_locus(fam, model, rng, 10)
        test = model.locus.pencil_test(assignment)
        assert test is not None and test(a.numerator * b.denominator, b.numerator * a.denominator)
        values = point_values(assignment)
        prod = Fraction(1)
        for v in (avar(17, 1), avar(14, 2), avar(11, 3)):
            prod *= values[v]
        assert prod != 0

    def test_empty_locus_family_takes_first_draw(self):
        fam = generic_member_g1(2, 3)
        rng = random.Random(0)
        assignment, _, _, _ = sample_off_locus(fam, polar_model_g1(2, 3), rng, 10)
        assert set(point_values(assignment)) == set(fam.coeff_vars)

    def test_a_drawn_point_is_read_only(self):
        """A drawn point's values cannot change after it is made, and each
        locus test reads the point it is given: on (7,19) an all-zero point
        fails the pencil (1 : 1) and lies on the locus, and the draw, read
        again, passes it."""
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        point, _ = _draw_assignment(fam, random.Random(0), 10)
        assert model.locus.pencil_test(point)(1, 1)
        with pytest.raises(TypeError):
            point.scaled[0] = 0
        with pytest.raises(AttributeError):
            point.scaled = (0,) * len(fam.coeff_vars)
        zeros = algebra.IntegerPoint(fam.coeff_vars, (0,) * len(fam.coeff_vars), 1)
        assert model.locus.pencil_test(zeros) is None
        assert model.locus.pencil_test(point)(1, 1)

    def test_forced_on_locus_draw_breaks_the_polygon(self):
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        rng = random.Random(4)
        drawn, _ = _draw_assignment(fam, rng, 10)
        assignment = {**point_values(drawn), avar(17, 1): Fraction(0)}  # the drawn point is read-only
        series = substitute(fam.generic, assignment)
        pol = polar(series, 1, 1)
        poly = newton_polygon(pol)
        assert (17, 0) not in pol.terms
        assert poly.vertices() != model.predicted_polygon().vertices()


class TestErrorsNameFamilyAndStage:
    def test_locus_rejection(self, monkeypatch):
        monkeypatch.setattr(DegeneracyLocus, "pencil_test", lambda self, assignment: None)
        with pytest.raises(VerifyError, match=r"family \(7, 19\): locus rejection"):
            run_verification(SampleConfig(family=(7, 19), seed=1, trials=1))

    def test_pencil_draw(self, monkeypatch):
        monkeypatch.setattr(DegeneracyLocus, "pencil_test", lambda self, assignment: lambda x, y: False)
        with pytest.raises(VerifyError, match=r"family \(7, 19\): pencil draw"):
            run_verification(SampleConfig(family=(7, 19), seed=1, trials=1))

    def test_puiseux_crosscheck(self, monkeypatch):
        # an expander failure names the family and the trial; it is not a mismatch
        expand = verify.puiseux_expand
        calls = []

        def failing_second(f, depth=0, min_order=None):
            calls.append(f)
            if len(calls) == 2:
                raise puiseux.PuiseuxError("expansion exceeded the step budget")
            return expand(f, depth=depth, min_order=min_order)

        monkeypatch.setattr(verify, "puiseux_expand", failing_second)
        cfg = SampleConfig(family=(5, 12, 1), seed=42, trials=3, puiseux_crosscheck=True)
        with pytest.raises(VerifyError, match=r"^family \(5, 12, 1\) trial 1: puiseux crosscheck: "
                                              r"PuiseuxError: expansion exceeded the step budget$") as err:
            run_verification(cfg)
        assert isinstance(err.value.__cause__, puiseux.PuiseuxError)


def randint_fraction(rng, bound, nonzero=False) -> Fraction:
    """The draw as `randint` makes it: numerator, redrawn while it must not
    be 0, then denominator."""
    while True:
        num = rng.randint(-bound, bound)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, bound))


def choice_fraction(rng, bound, nonzero=False) -> Fraction:
    """The draw as `choice` over a range makes it: numerator, redrawn while
    it must not be 0, then denominator."""
    while True:
        num = rng.choice(range(-bound, bound + 1))
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.choice(range(1, bound + 1)))


def documented_draw_digest(fam, model, rng, bound) -> str:
    """A trial's draw digest as the verify docstring states the draw, with
    `choice` over ranges: the point, redrawn while the locus's pencil test
    is None, then (a, b), redrawn while that test fails."""
    while True:
        values = [choice_fraction(rng, bound, nonzero=v == fam.class_var) for v in fam.coeff_vars]
        test = model.locus.pencil_test(dict(zip(fam.coeff_vars, values)))
        if test is not None:
            break
    while True:
        a, b = choice_fraction(rng, bound), choice_fraction(rng, bound)
        if test(a.numerator * b.denominator, b.numerator * a.denominator):
            break
    text = ";".join(f"{v.name}={value}" for v, value in zip(fam.coeff_vars, values)) + f";a={a};b={b}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestDrawStream:
    # The pinned reports fix every draw; `choice` over a range must read the
    # generator exactly as `randint` over the same bounds.
    BOUNDS = (2, 10, 97, 10**12)

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_choice_over_a_range_draws_as_randint(self, bound):
        for seed in range(1000):
            old, new = random.Random(seed), random.Random(seed)
            for lo, hi in ((-bound, bound), (1, bound)) * 3:
                assert new.choice(range(lo, hi + 1)) == old.randint(lo, hi)
            assert new.getstate() == old.getstate()

    @pytest.mark.parametrize("bound", BOUNDS)
    def test_draws_and_class_redraws_match_randint(self, bound):
        fam = generic_member_g2(2, 3, 1)  # b[i0,j0] is drawn nonzero
        redraws = 0
        for seed in range(1000):
            old, new = random.Random(seed), random.Random(seed)
            point, texts = _draw_assignment(fam, new, bound)
            assignment = point_values(point)
            for v in fam.coeff_vars:
                if v == fam.class_var:
                    ahead = random.Random()
                    ahead.setstate(old.getstate())
                    redraws += ahead.randint(-bound, bound) == 0
                assert assignment[v] == randint_fraction(old, bound, nonzero=v == fam.class_var)
            assert texts == [str(assignment[v]) for v in fam.coeff_vars]
            for nonzero in (False, True):
                value, text = verify._drawn(*verify._rand_pairs(new, bound, (nonzero,))[0])
                assert value == randint_fraction(old, bound, nonzero) and text == str(value)
            assert new.getstate() == old.getstate()
        # a zero class numerator comes about once in 2*bound+1 draws
        assert redraws > 0 or bound == 10**12

    @pytest.mark.parametrize("family", [(7, 19), (5, 12, 1), (7, 19, 1), (3, 5, 1)])
    @pytest.mark.parametrize("coeff_range", [10, 2])
    def test_a_replayed_draw_is_the_reports_draw(self, family, coeff_range):
        # the tests replay trial n as `sample_off_locus` on "<seed>:<n>"; it
        # and the documented draw order give each record's digest
        fam = member_of(family)
        model = model_of(family)
        labels = [f"{v.name}=" for v in fam.coeff_vars]
        report = run_verification(SampleConfig(family=family, seed=42, trials=5, coeff_range=coeff_range))
        for rec in report["records"]:
            seed = f"42:{rec['trial']}"
            _, texts, (_, a_text), (_, b_text) = sample_off_locus(fam, model, random.Random(seed), coeff_range)
            assert verify._assignment_digest(labels, texts, a_text, b_text) == rec["digest"]
            assert documented_draw_digest(fam, model, random.Random(seed), coeff_range) == rec["digest"]

    @pytest.mark.parametrize("bound", range(2, 13))
    def test_bit_draws_match_choice_over_a_range(self, bound):
        # the draws read the generator's bits as `choice` does
        fam = generic_member_g2(2, 3, 1)  # b[i0,j0] is drawn nonzero
        for seed in range(300):
            old, new = random.Random(seed), random.Random(seed)
            point, texts = _draw_assignment(fam, new, bound)
            want = [choice_fraction(old, bound, nonzero=v == fam.class_var) for v in fam.coeff_vars]
            assert [point_values(point)[v] for v in fam.coeff_vars] == want
            assert [Fraction(s, point.m) for s in point.scaled] == want
            assert texts == [str(value) for value in want]
            for nonzero in (False, True):
                value, text = verify._drawn(*verify._rand_pairs(new, bound, (nonzero,))[0])
                assert value == choice_fraction(old, bound, nonzero) and text == str(value)
            assert new.getstate() == old.getstate()

    def test_draw_memo_is_bounded_for_wide_ranges(self):
        verify._drawn.cache_clear()
        rep = run_verification(SampleConfig(family=(7, 19), seed=1, trials=2, coeff_range=10**12))
        assert rep["summary"]["trials"] == 2
        info = verify._drawn.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize
        assert info.misses > 0


def count_exact_determinant(monkeypatch) -> list:
    """Records each exact squarefree determinant: an
    `algebra.integer_discriminant` of formal degree 3 or more."""
    calls = []
    real = algebra.integer_discriminant
    monkeypatch.setattr(algebra, "integer_discriminant", lambda g: (len(g) > 3 and calls.append(1)) or real(g))
    return calls


def count_certificates(monkeypatch) -> list:
    """Records the length of each entry list that `algebra.certify_squarefree`
    is given."""
    calls = []
    real = algebra.certify_squarefree
    monkeypatch.setattr(algebra, "certify_squarefree", lambda g: calls.append(len(g)) or real(g))
    return calls


class TestSquarefreeCertificateInTrials:
    # Models and generic verdicts are built before counting, so only the
    # trials are counted.  No timing is involved.
    BENCH_FAMILIES = ((7, 19), (5, 12, 1), (7, 19, 1))

    def test_bench_families_never_take_the_exact_route(self, monkeypatch):
        for family in self.BENCH_FAMILIES:
            model_of(family).generic_verdict
        calls = count_exact_determinant(monkeypatch)
        certified = count_certificates(monkeypatch)
        for family in self.BENCH_FAMILIES:
            rep = run_verification(SampleConfig(family=family, seed=42, trials=50))
            assert rep["summary"]["all_sides_squarefree"] == 50
        assert calls == []
        # every side has d <= 2 primitive steps, so a closed form decides it
        assert certified == []

    def test_a_side_with_three_steps_takes_the_certificate_on_its_cubic(self, monkeypatch):
        # the (7,10) polar's one side runs from (0, 6) to (9, 0), d = 3: its
        # deflated G is a cubic, 4 entries, where F has degree 6
        polar_model_g1(7, 10).generic_verdict
        calls = count_exact_determinant(monkeypatch)
        certified = count_certificates(monkeypatch)
        rep = run_verification(SampleConfig(family=(7, 10), seed=42, trials=50))
        assert rep["summary"]["all_sides_squarefree"] == 50
        assert calls == []
        assert len(certified) >= 50 and set(certified) == {4}

    def test_passing_trials_build_no_upoly(self, monkeypatch):
        for family in self.BENCH_FAMILIES:
            model_of(family).generic_verdict
        built = []
        real_init = algebra.UPoly.__init__
        monkeypatch.setattr(algebra.UPoly, "__init__", lambda self, *args: built.append(1) or real_init(self, *args))
        for family in self.BENCH_FAMILIES:
            s = run_verification(SampleConfig(family=family, seed=42, trials=50))["summary"]
            assert s["polygon_match"] == s["points_present"] == s["all_sides_squarefree"] == \
                s["topology_match"] == 50
        assert built == []

    def test_integer_side_test_matches_squarefree_info(self):
        # every side of the 150 bench trials, drawn as run_verification draws them
        sides = 0
        for family in self.BENCH_FAMILIES:
            fam = member_of(family)
            model = model_of(family)
            for trial in range(50):
                assignment, _, (a, _), (b, _) = sample_off_locus(fam, model, random.Random(f"42:{trial}"), 10)
                pol = polar(substitute(fam.generic, assignment), a, b)
                for v in is_nondegenerate(pol).sides:
                    assert (v.squarefree, v.path) == algebra.squarefree_info(v.associated)
                    sides += 1
        assert sides >= 300

    def test_degenerate_sides_are_decided_by_the_exact_route(self, monkeypatch):
        # the steep side of (2,3,1) deflates to c*(w - 1)^(e1 - 1): at e1 = 3
        # a quadratic, which the closed form decides; at e1 = 4 a cubic, which
        # the certificate declines, so the determinant decides each trial
        calls = count_exact_determinant(monkeypatch)
        for e1, determinants in ((3, 0), (4, 10)):
            calls.clear()
            rep = power_degeneracy(2, 3, 1, e1=e1)
            assert rep["summary"]["degenerate"] == rep["summary"]["steep_side_fails"] == rep["summary"]["trials"]
            assert len(calls) == determinants


class TestReadTimePolar:
    """The nondegeneracy test reads a trial polar's side numerators and
    builds no coefficient; the polar of the substituted member is the
    symbolic polar at the pencil point, substituted.  No timing is involved."""

    @pytest.mark.parametrize("family", TestSquarefreeCertificateInTrials.BENCH_FAMILIES)
    def test_side_points_only_then_the_substituted_polar(self, family, monkeypatch):
        read = []
        getitem = _IntegerTerms.__getitem__
        monkeypatch.setattr(_IntegerTerms, "__getitem__", lambda self, pt: read.append(pt) or getitem(self, pt))
        fam = member_of(family)
        model = model_of(family)
        for trial in range(5):
            assignment, _, (a, _), (b, _) = sample_off_locus(fam, model, random.Random(f"42:{trial}"), 10)
            pol = polar(substitute(fam.generic, assignment), a, b)
            read.clear()
            verdicts = [(v.squarefree, v.path) for v in is_nondegenerate(pol).sides]
            assert verdicts and all(ok for ok, _path in verdicts)
            assert read == []  # is_nondegenerate read numerators only
            ref = substitute(polar(fam.generic, a, b), assignment)
            assert pol == ref and ref == pol
            # each key's constant reads back as its numerator
            assert [(v.squarefree, v.path) for v in is_nondegenerate(pol).sides] == verdicts
            assert all(pol.terms.nums[pt] == pol.coeff(*pt).constant_value() * pol.terms.den
                       for pt in pol.terms)
            # the symbolic route keeps the generic member's key order, in
            # which a key whose x-derivative source vanished at the draw sits
            # earlier; the curve is the same
            assert pol.render() == ref.render()


def _row_minima(pol):
    """The term of least i in each row of a concrete series, by key."""
    low = {}
    for i, j in pol.terms:
        low[j] = min(i, low.get(j, i))
    return {(i, j) for j, i in low.items()}


class TestLowestPolarTerms:
    """`lowest_polar_terms` against the full polar of the substituted
    member, over the model-digest families with p <= 5, at draws from a
    range of 2, at pencil points with a = 0 and with b = 0, at pencil points
    that cancel the first candidate of each row, and at on-locus points
    where each lowest term of the locus vanishes in turn."""

    FAMILIES = [fam for fam in G1_BOX + G2_BOX if fam[0] <= 5]

    @staticmethod
    def first_candidates(member, concrete):
        """Per row j of the generic polar, its least key's two member
        coefficients (x-derivative source, y-derivative source) at the draw,
        read off the member's support."""
        keys = {(i - 1, j) for i, j in member.terms if i} | {(i, j - 1) for i, j in member.terms if j}
        nums = concrete.terms.nums
        for j in sorted({j for _, j in keys}):
            i = min(i for i, h in keys if h == j)
            yield j, i, nums.get((i + 1, j), 0), nums.get((i, j + 1), 0)

    @staticmethod
    def checks(series, model):
        report = is_nondegenerate(series)
        return (report.polygon.vertices() == model.predicted_polygon().vertices(),
                all(pt in series.terms for pt in model.predicted_points()),
                [(v.side, v.squarefree, v.path) for v in report.sides])

    def test_route_reads_the_full_polar_row_minima(self):
        failing = cancelled = 0
        for fam_key in self.FAMILIES:
            fam = member_of(fam_key)
            model = model_of(fam_key)
            rng = random.Random(f"lowest:{fam_key}")
            assignment, _ = _draw_assignment(fam, rng, 2)
            concrete = substitute(fam.generic, assignment)
            a, b = [Fraction(*pair) for pair in verify._rand_pairs(rng, 2, (True, True))]
            pencils = [(a, b), (Fraction(0), b), (a, Fraction(0))]
            # (a : b) that cancels a row's first candidate
            pencils += [(Fraction((j + 1) * cy), Fraction(-(i + 1) * cx))
                        for j, i, cx, cy in self.first_candidates(fam.generic, concrete) if cx or cy]
            # (a : b) that zeroes a lowest term of the locus, linear in a and b
            on_locus, values = [], point_values(assignment)
            for term in model.locus.lowest:
                parts = term.coefficients_in([A, B])
                ca, cb = (evaluate(parts.get(e, MPoly.zero()), values) for e in ((1, 0), (0, 1)))
                if ca or cb:
                    on_locus.append((cb, -ca))
            for k, (pa, pb) in enumerate(pencils + on_locus):
                got = lowest_polar_terms(fam.generic, pa, pb, assignment)
                want = polar(concrete, pa, pb)
                assert set(got.terms) == _row_minima(want)
                assert got.terms.den == want.terms.den
                assert all(got.terms.nums[pt] == want.terms.nums[pt] for pt in got.terms)
                if k >= 3:
                    cancelled += 1
                if k >= len(pencils):
                    got_checks, want_checks = self.checks(got, model), self.checks(want, model)
                    assert got_checks == want_checks
                    failing += not all(got_checks[:2])
        assert cancelled > 2000 and failing > 500

    def test_a_point_right_of_its_row_minimum_is_a_miss(self, monkeypatch):
        # (12, 2) is a term of the generic polar, one step right of the
        # predicted (11, 2): a trial polar may hold it, but never as its
        # row's least term, so a model predicting it fails the points check
        model = polar_model_g1(7, 19)
        points = model.predicted_points()
        assert (11, 2) in points and (12, 2) in polar(generic_member_g1(7, 19).generic).terms
        wrong = SimpleNamespace(predicted_polygon=model.predicted_polygon, locus=model.locus, topology=model.topology,
                                generic_verdict=model.generic_verdict,
                                predicted_points=lambda: tuple((12, 2) if pt == (11, 2) else pt for pt in points))
        monkeypatch.setattr(verify, "polar_model_g1", lambda p, q: wrong)
        summary = run_verification(SampleConfig(family=(7, 19), seed=42, trials=5))["summary"]
        assert summary["polygon_match"] == 5 and summary["points_present"] == 0


class TestCrosscheckExpansion:
    """The crosscheck expands each branch once, to its separating term.  No
    timing is involved."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"expand": [], "substituted": 0, "separates": 0}
        expand, substituted, separates = verify.puiseux_expand, puiseux._substituted, puiseux._separates

        def counting_expand(f, depth=0, min_order=None):
            calls["expand"].append((depth, min_order))
            return expand(f, depth=depth, min_order=min_order)

        def counting_substituted(*args):
            calls["substituted"] += 1
            return substituted(*args)

        def counting_separates(*args):
            calls["separates"] += 1
            return separates(*args)

        monkeypatch.setattr(verify, "puiseux_expand", counting_expand)
        monkeypatch.setattr(puiseux, "_substituted", counting_substituted)
        monkeypatch.setattr(puiseux, "_separates", counting_separates)
        return calls

    def test_bench_families_expand_once_per_trial_to_separation(self, monkeypatch):
        # the default tail (min_order 4, 2n steps past separation) made 1,320
        # substitutions here; separation needs one decision per branch and
        # no whole shift
        calls = self._count(monkeypatch)
        for family in TestSquarefreeCertificateInTrials.BENCH_FAMILIES:
            rep = run_verification(SampleConfig(family=family, seed=42, trials=5, puiseux_crosscheck=True))
            assert rep["summary"]["puiseux_match"] == 5
        assert calls["expand"] == [(None, None)] * 15
        assert (calls["separates"], calls["substituted"]) == (140, 0)

    def test_a_repeated_branch_fails_after_one_expansion(self, monkeypatch):
        x, y = MPoly.var(algebra.X), MPoly.var(algebra.Y)
        doubled = PlaneSeries.from_poly((y - x**2) ** 2 * (y - x**3))
        # three smooth branches, so the class keys agree and the contacts are read
        predicted = SimpleNamespace(expanded_keys=lambda: [(1, 1)] * 3,
                                    intersections=((0, 2, 2), (2, 0, 2), (2, 2, 0)))
        calls = self._count(monkeypatch)
        assert verify._puiseux_crosscheck(doubled, predicted)["stage"] == "contact"
        assert calls["expand"] == [(None, None)]


class TestCrosscheckExits:
    """Each way the crosscheck fails, on a concrete polar, and the `why`
    entry that names it."""

    KEYS = {"check": "puiseux_match", "stage": "class_keys"}

    def test_a_wrong_prediction_fails_the_key_comparison(self):
        # the polar of trial 0 at seed 42, drawn as run_verification draws it
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        assignment, _, (a, _), (b, _) = sample_off_locus(fam, model, random.Random("42:0"), 10)
        pol = polar(substitute(fam.generic, assignment), a, b)
        assert verify._puiseux_crosscheck(pol, model.topology) is None
        assert verify._puiseux_crosscheck(pol, polar_model_g2(5, 12, 1).topology) == self.KEYS

    def test_a_genus_two_branch_fails_the_key_comparison(self):
        x, y = MPoly.var(algebra.X), MPoly.var(algebra.Y)
        series = PlaneSeries.from_poly((y**2 - x**3) ** 2 - x**5 * y)
        assert [br.genus for br, _mult in puiseux_expand(series, depth=None)] == [2]
        assert verify._puiseux_crosscheck(series, polar_model_g1(7, 19).topology) == self.KEYS

    def test_an_unresolved_contact_fails_the_check(self, monkeypatch):
        x, y = MPoly.var(algebra.X), MPoly.var(algebra.Y)
        predicted = newton.oka_decomposition(newton_polygon(PlaneSeries.from_poly((y - x**2) * (y + x**2))))
        raised = []
        intersection = verify.intersection_numeric

        def recording(b1, b2):
            try:
                return intersection(b1, b2)
            except puiseux.InsufficientDepthError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(verify, "intersection_numeric", recording)
        why = verify._puiseux_crosscheck(PlaneSeries.from_poly((y - x**2) ** 2), predicted)
        assert len(raised) == 1
        assert why == {"check": "puiseux_match", "stage": "contact",
                       "error": f"InsufficientDepthError: {raised[0]}"}
        assert "contact order not resolved" in why["error"]

    def test_a_wrong_contact_fails_the_table(self):
        # y = x^2 and y = -x^2 meet with multiplicity 2, not the predicted 1
        x, y = MPoly.var(algebra.X), MPoly.var(algebra.Y)
        series = PlaneSeries.from_poly((y - x**2) * (y + x**2))
        predicted = SimpleNamespace(expanded_keys=lambda: [(1, 1)] * 2, intersections=((0, 1), (1, 0)))
        assert verify._puiseux_crosscheck(series, predicted) == {"check": "puiseux_match", "stage": "table"}
        right = SimpleNamespace(expanded_keys=lambda: [(1, 1)] * 2, intersections=((0, 2), (2, 0)))
        assert verify._puiseux_crosscheck(series, right) is None

    def test_a_failing_record_says_why_and_a_passing_one_keeps_its_keys(self, monkeypatch):
        model = polar_model_g1(7, 19)
        cfg = SampleConfig(family=(7, 19), seed=42, trials=2, puiseux_crosscheck=True)
        passing = run_verification(cfg)["records"]
        assert all(list(rec) == ["trial", "digest", "polygon_match", "points_present", "sides_squarefree",
                                 "topology_match", "puiseux_match"] for rec in passing)
        wrong = SimpleNamespace(predicted_polygon=model.predicted_polygon, locus=model.locus,
                                generic_verdict=model.generic_verdict, predicted_points=model.predicted_points,
                                topology=polar_model_g2(5, 12, 1).topology)
        monkeypatch.setattr(verify, "polar_model_g1", lambda p, q: wrong)
        for rec in run_verification(cfg)["records"]:
            assert rec["puiseux_match"] is False and rec["why"] == [self.KEYS]


class TestRunVerification:
    def test_reports_are_deterministic(self):
        cfg = SampleConfig(family=(5, 12, 1), seed=7, trials=3)
        r1 = report_to_json(run_verification(cfg))
        r2 = report_to_json(run_verification(cfg))
        assert r1 == r2

    def test_cached_generic_member_survives_a_run(self):
        run_verification(SampleConfig(family=(5, 12, 1), seed=42, trials=3))
        cached = generic_member_g2(5, 12, 1)
        assert cached is generic_member_g2(5, 12, 1)
        assert cached.generic.terms == generic_member_g2.__wrapped__(5, 12, 1).generic.terms

    def test_records_match_summary(self):
        cfg = SampleConfig(family=(3, 7), seed=11, trials=4)
        rep = run_verification(cfg)
        assert len(rep["records"]) == 4
        assert rep["summary"]["polygon_match"] == sum(r["polygon_match"] for r in rep["records"])

    @pytest.mark.parametrize("family", [(2, 3), (7, 19), (2, 3, 1), (3, 5, 1), (5, 12, 1)])
    def test_small_runs_fully_match(self, family):
        cfg = SampleConfig(family=family, seed=42, trials=4)
        rep = run_verification(cfg)
        s = rep["summary"]
        assert s["polygon_match"] == 4
        assert s["points_present"] == 4
        assert s["all_sides_squarefree"] == 4
        assert s["topology_match"] == 4

    def test_crosscheck_flag_adds_puiseux_column(self):
        cfg = SampleConfig(family=(2, 5), seed=3, trials=2, puiseux_crosscheck=True)
        rep = run_verification(cfg)
        assert rep["summary"]["puiseux_match"] == 2

    @pytest.mark.parametrize("family", [(11, 29), (8, 21, 1)])
    def test_crosscheck_on_must_finish_ladder_families(self, family):
        rep = run_verification(SampleConfig(family=family, seed=42, trials=3, puiseux_crosscheck=True))
        assert rep["summary"]["puiseux_match"] == 3

    def test_prng_is_pinned_in_the_header(self):
        cfg = SampleConfig(family=(2, 3), seed=1, trials=1)
        assert "mt19937" in run_verification(cfg)["prng"]

    def test_symbolic_generic_evidence_in_header(self):
        cfg = SampleConfig(family=(5, 12, 1), seed=1, trials=1)
        rep = run_verification(cfg)
        assert rep["generic_member_verdict"] == "generically_nondegenerate"

    def test_one_polygon_per_support_and_one_squarefree_test_per_side(self, monkeypatch):
        # a run builds one hull per distinct lowest support, at verify's call
        # site, plus the generic member's at newton's once per model; a
        # concrete side is decided by nonzero_discriminant on its numerators,
        # a symbolic one by squarefree_info on its associated polynomial,
        # once per side of each trial
        counts = {"polygons": 0, "sides": 0, "squarefree": 0}
        supports = set()
        real_hull, real_generic_hull = verify.newton_polygon, newton.newton_polygon
        real_lowest, real_report = verify.lowest_polar_terms, verify.is_nondegenerate
        real_squarefree, real_discriminant = newton.squarefree_info, newton.nonzero_discriminant

        def hull(f):
            counts["polygons"] += 1
            return real_hull(f)

        def generic_hull(f):
            counts["polygons"] += 1
            poly = real_generic_hull(f)
            counts["sides"] += len(poly.sides)
            return poly

        def lowest(*args):
            series = real_lowest(*args)
            supports.add(frozenset(series.terms))
            return series

        def report(f, polygon=None):
            rep = real_report(f, polygon)
            counts["sides"] += len(rep.sides)
            return rep

        def squarefree(F):
            counts["squarefree"] += 1
            return real_squarefree(F)

        def discriminant(nums):
            counts["squarefree"] += 1
            return real_discriminant(nums)

        monkeypatch.setattr(verify, "newton_polygon", hull)
        monkeypatch.setattr(newton, "newton_polygon", generic_hull)
        monkeypatch.setattr(verify, "lowest_polar_terms", lowest)
        monkeypatch.setattr(verify, "is_nondegenerate", report)
        monkeypatch.setattr(newton, "squarefree_info", squarefree)
        monkeypatch.setattr(newton, "nonzero_discriminant", discriminant)
        polar_model_g2(5, 12, 1).__dict__.pop("generic_verdict", None)
        for cfg, generic in ((SampleConfig(family=(5, 12, 1), seed=1, trials=3), 1),
                             # the generic verdict is kept on the model
                             (SampleConfig(family=(5, 12, 1), seed=1, trials=12, coeff_range=2), 0)):
            counts.update(polygons=0, sides=0, squarefree=0)
            supports.clear()
            run_verification(cfg)
            assert len(supports) > 1
            assert counts["polygons"] == len(supports) + generic
            assert counts["squarefree"] == counts["sides"]

    @pytest.mark.parametrize("key,seed,trials,coeff_range,forced", [
        ((7, 19), 42, 50, 10, None), ((5, 12, 1), 42, 50, 10, None), ((7, 19, 1), 42, 50, 10, None),
        # at range 2 most supports are new: 40 and 37 in 50 trials
        ((17, 45), 7, 50, 2, None), ((13, 34, 1), 7, 50, 2, None),
        # trial 2's a[17,1] set to 0: row 0's least term moves from (17,0) to (18,0)
        ((7, 19), 42, 5, 10, (2, avar(17, 1))),
    ])
    def test_support_memo_matches_a_from_scratch_check(self, key, seed, trials, coeff_range, forced,
                                                       monkeypatch):
        # each trial's record, and the polygon its sides are read on, are
        # those that its own lowest terms give from scratch
        model = model_of(key)
        predicted_vertices = model.predicted_polygon().vertices()
        seen, draws = [], []
        real_draw, real_report = verify.sample_off_locus, verify.is_nondegenerate

        def draw(*args):
            point, *rest = real_draw(*args)
            if forced is not None and len(draws) == forced[0]:
                scaled = tuple(0 if v == forced[1] else s for v, s in zip(point.variables, point.scaled))
                assert scaled != point.scaled
                point = dataclasses.replace(point, scaled=scaled)
            draws.append(point)
            return (point, *rest)

        def report(f, polygon=None):
            assert polygon == newton.newton_polygon_from_points(f.terms)
            seen.append(f)
            return real_report(f, polygon)

        monkeypatch.setattr(verify, "sample_off_locus", draw)
        monkeypatch.setattr(verify, "is_nondegenerate", report)
        records = run_verification(SampleConfig(family=key, seed=seed, trials=trials,
                                                coeff_range=coeff_range))["records"]
        assert len(seen) == trials
        for rec, lowest in zip(records, seen):
            polygon = newton.newton_polygon_from_points(lowest.terms)
            rep = is_nondegenerate(lowest)
            assert rec["polygon_match"] == (polygon.vertices() == predicted_vertices)
            assert rec["points_present"] == all(pt in lowest.terms for pt in model.predicted_points())
            assert rec["sides_squarefree"] == [v.squarefree for v in rep.sides]
            assert rec["topology_match"] == (rep.nondegenerate and verify._topology_matches(polygon, model.topology))
        if forced is not None:
            assert (18, 0) in seen[forced[0]].terms and (17, 0) not in seen[forced[0]].terms
            assert [r["polygon_match"] for r in records] == [n != forced[0] for n in range(trials)]

    def test_only_crosscheck_trials_take_a_polar(self, monkeypatch):
        # the generic verdict is the model's, so even a family's first run,
        # which builds the model, forms a polar only to crosscheck a trial,
        # and that of a concrete member
        polars, real = [], curves.polar

        def counted(f, a=None, b=None):
            polars.append(f)
            return real(f, a, b)

        monkeypatch.setattr(curves, "polar", counted)
        monkeypatch.setattr(verify, "polar", counted)
        for family in ((7, 19), (5, 12, 1)):
            for crosscheck in (False, True):
                polar_model_g1.cache_clear()
                polar_model_g2.cache_clear()
                polars.clear()
                report = run_verification(SampleConfig(family=family, seed=42, trials=3,
                                                       puiseux_crosscheck=crosscheck))
                assert report["generic_member_verdict"] == "generically_nondegenerate"
                assert len(polars) == 3 * crosscheck
                assert all(f.is_concrete() for f in polars)

    def test_topology_is_read_once_per_polygon(self, monkeypatch):
        # the three trials share one polygon, so its branch classes are read once
        calls = []
        oka = verify.oka_decomposition
        monkeypatch.setattr(verify, "oka_decomposition", lambda polygon: calls.append(polygon) or oka(polygon))
        report = run_verification(SampleConfig(family=(5, 12, 1), seed=1, trials=3))
        assert report["summary"]["topology_match"] == 3
        assert len(calls) == 1

    def test_the_locus_is_evaluated_once_per_draw(self, monkeypatch):
        # every family draw, rejected or accepted, evaluates the locus parts
        # once, into its pencil test; the pencil checks, rejected ones
        # included, call the accepted draw's test and evaluate nothing.
        # Every other draw and pencil is rejected on top of the locus's own
        # verdict.
        plan = polar_model_g2(5, 12, 1).locus._split[0]
        counts = {"at": 0, "draws": 0, "pencils": 0}
        at, pencil_test = algebra.IntegerPlan.at, DegeneracyLocus.pencil_test

        def counting_at(self, assignment):
            counts["at"] += self is plan
            return at(self, assignment)

        def rejecting_pencils(test, x, y):
            counts["pencils"] += 1
            return test(x, y) and counts["pencils"] % 2 == 0

        def rejecting_draws(self, assignment):
            counts["draws"] += 1
            test = pencil_test(self, assignment)
            return None if test is None or counts["draws"] % 2 == 1 else partial(rejecting_pencils, test)

        monkeypatch.setattr(algebra.IntegerPlan, "at", counting_at)
        monkeypatch.setattr(DegeneracyLocus, "pencil_test", rejecting_draws)
        run_verification(SampleConfig(family=(5, 12, 1), seed=42, trials=4))
        assert counts["draws"] >= 8 and counts["pencils"] >= 8
        assert counts["at"] == counts["draws"]

    def test_unexpected_topology_errors_propagate(self, monkeypatch):
        def broken(polygon):
            raise RuntimeError("broken decomposition")

        monkeypatch.setattr(verify, "oka_decomposition", broken)
        with pytest.raises(RuntimeError, match="broken decomposition"):
            run_verification(SampleConfig(family=(2, 3), seed=1, trials=1))

    def test_polygon_off_an_axis_is_a_topology_mismatch(self, monkeypatch):
        def off_axis(polygon):
            raise PolygonError("support must touch the vertical axis")

        monkeypatch.setattr(verify, "oka_decomposition", off_axis)
        rep = run_verification(SampleConfig(family=(2, 3), seed=1, trials=2))
        assert rep["summary"]["topology_match"] == 0
        assert rep["summary"]["polygon_match"] == 2


# sha256 of report_to_json(run_verification(...)) under
# "<family>/<seed>/<trials>[/crosscheck]", recorded while MPoly.evaluate still
# summed Fractions term by term and products by constants ran the full merge.
PINNED_REPORTS = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "verify_reports_sha256.json").read_text())


class TestPinnedReportBytes:
    @pytest.mark.parametrize("key", sorted(PINNED_REPORTS))
    def test_report_bytes_are_unchanged(self, key):
        family, seed, trials, *crosscheck = key.split("/")
        cfg = SampleConfig(family=tuple(map(int, family.split("_"))), seed=int(seed),
                           trials=int(trials), puiseux_crosscheck=bool(crosscheck))
        text = report_to_json(run_verification(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS[key]


@pytest.mark.parametrize("family", [(7, 19), (5, 12, 1)])
def test_hashlib_fallback_writes_the_same_report(monkeypatch, family):
    # the draw digest takes the interpreter's built-in SHA-256; hashlib's,
    # the route of a build without it, must give the same bytes
    cfg = SampleConfig(family=family, seed=42, trials=10)
    built_in = report_to_json(run_verification(cfg))
    monkeypatch.setattr(verify, "sha256", hashlib.sha256)
    assert report_to_json(run_verification(cfg)) == built_in


# the same digests under "<family>/<seed>/<trials>/range<coeff_range>": at
# ranges 2 and 3 a drawn member often loses a row's first polar candidate
PINNED_SMALL_RANGE = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "verify_small_range_sha256.json").read_text())


class TestPinnedSmallRangeReports:
    @pytest.mark.parametrize("key", sorted(PINNED_SMALL_RANGE))
    def test_report_bytes_are_unchanged(self, key):
        family, seed, trials, coeff_range = key.split("/")
        cfg = SampleConfig(family=tuple(map(int, family.split("_"))), seed=int(seed), trials=int(trials),
                           coeff_range=int(coeff_range.removeprefix("range")))
        text = report_to_json(run_verification(cfg))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SMALL_RANGE[key]


class TestPowerDegeneracy:
    def test_cube_members_always_fail_on_the_steep_side(self):
        rep = power_degeneracy(2, 3, d=1, e1=3, trials=4, seed=9)
        s = rep["summary"]
        assert s["degenerate"] == 4
        assert s["steep_side_fails"] == 4
        assert s["steep_side_power_shape"] == 4

    @pytest.mark.parametrize("p,q,d,e1", [(3, 5, 1, 4), (2, 5, 1, 5)])
    def test_higher_powers_fail_on_the_steep_side(self, p, q, d, e1):
        s = power_degeneracy(p, q, d=d, e1=e1, trials=4, seed=9)["summary"]
        assert (s["degenerate"], s["steep_side_fails"], s["steep_side_power_shape"]) == (4, 4, 4)

    def test_report_is_pinned(self):
        golden = pathlib.Path(__file__).parent / "golden" / "power_degeneracy_2_3_1_e1_3.json"
        rep = power_degeneracy(2, 3, d=1, e1=3, trials=10, seed=42)
        assert report_to_json(rep) + "\n" == golden.read_text()

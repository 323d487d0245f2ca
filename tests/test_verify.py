import hashlib
import json
import pathlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from polarnewton import algebra, newton, puiseux, verify
from polarnewton.algebra import MPoly, avar
from polarnewton.curves import (PlaneSeries, PolarParams, _IntegerTerms, generic_member_g1, generic_member_g2, polar,
                               substitute)
from polarnewton.genus1 import DegeneracyLocus, polar_model_g1
from polarnewton.genus2 import polar_model_g2
from polarnewton.newton import PolygonError, is_nondegenerate, newton_polygon
from polarnewton.puiseux import puiseux_expand
from polarnewton.verify import (
    SampleConfig,
    VerifyError,
    _draw_assignment,
    _draw_general_pencil,
    _family as _family_of,
    report_to_json,
    run_power_degeneracy,
    run_verification,
    sample_off_locus,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(VerifyError):
            SampleConfig(family=(7, 19), seed=1, trials=0)
        with pytest.raises(VerifyError):
            SampleConfig(family=(7, 19), seed=1, trials=1, coeff_range=1)
        with pytest.raises(VerifyError):
            SampleConfig(family=(7,), seed=1, trials=1)


class TestSampling:
    def test_off_locus_sample_avoids_every_generator(self):
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        rng = random.Random(0)
        assignment, _ = sample_off_locus(fam, model, rng, 10)
        assert not model.locus.vanishes_at(assignment)
        prod = Fraction(1)
        for v in (avar(17, 1), avar(14, 2), avar(11, 3)):
            prod *= assignment[v]
        assert prod != 0

    def test_empty_locus_family_takes_first_draw(self):
        fam = generic_member_g1(2, 3)
        rng = random.Random(0)
        assignment, _ = sample_off_locus(fam, polar_model_g1(2, 3), rng, 10)
        assert set(assignment) == set(fam.coeff_vars)

    def test_forced_on_locus_draw_breaks_the_polygon(self):
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        rng = random.Random(4)
        drawn, _ = _draw_assignment(fam, rng, 10)
        assignment = {**drawn, avar(17, 1): Fraction(0)}  # the drawn point is read-only
        series = substitute(fam.generic, assignment)
        pol = polar(series, PolarParams.concrete(1, 1))
        poly = newton_polygon(pol)
        assert (17, 0) not in pol.terms
        assert poly.vertices() != model.predicted_polygon().vertices()


class TestErrorsNameFamilyAndStage:
    def test_locus_rejection(self, monkeypatch):
        monkeypatch.setattr(DegeneracyLocus, "vanishes_at", lambda self, assignment: True)
        with pytest.raises(VerifyError, match=r"family \(7, 19\): locus rejection"):
            run_verification(SampleConfig(family=(7, 19), seed=1, trials=1))

    def test_pencil_draw(self):
        model = SimpleNamespace(locus=DegeneracyLocus(lowest=(MPoly.zero(),), sides=()))
        with pytest.raises(VerifyError, match=r"family \(7, 19\): pencil draw"):
            _draw_general_pencil(generic_member_g1(7, 19), model, random.Random(0), 10, {})

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
            assignment, texts = _draw_assignment(fam, new, bound)
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

    @pytest.mark.parametrize("bound", range(2, 13))
    def test_bit_draws_match_choice_over_a_range(self, bound):
        # the draws read the generator's bits as `choice` does
        fam = generic_member_g2(2, 3, 1)  # b[i0,j0] is drawn nonzero
        for seed in range(300):
            old, new = random.Random(seed), random.Random(seed)
            point, texts = _draw_assignment(fam, new, bound)
            want = [choice_fraction(old, bound, nonzero=v == fam.class_var) for v in fam.coeff_vars]
            assert [point[v] for v in fam.coeff_vars] == want
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


class TestSquarefreeCertificateInTrials:
    # Models and generic verdicts are built before counting, so only the
    # trials are counted.  No timing is involved.
    BENCH_FAMILIES = ((7, 19), (5, 12, 1), (7, 19, 1))

    def test_bench_families_never_take_the_exact_route(self, monkeypatch):
        for family in self.BENCH_FAMILIES:
            polar_model_g1(*family) if len(family) == 2 else polar_model_g2(*family)
            verify._generic_verdict(family)
        calls = count_exact_determinant(monkeypatch)
        for family in self.BENCH_FAMILIES:
            rep = run_verification(SampleConfig(family=family, seed=42, trials=50))
            assert rep["summary"]["all_sides_squarefree"] == 50
        assert calls == []

    def test_passing_trials_build_no_upoly(self, monkeypatch):
        for family in self.BENCH_FAMILIES:
            polar_model_g1(*family) if len(family) == 2 else polar_model_g2(*family)
            verify._generic_verdict(family)
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
            fam = _family_of(family)
            model = polar_model_g1(*family) if len(family) == 2 else polar_model_g2(*family)
            for trial in range(50):
                rng = random.Random(f"42:{trial}")
                assignment, _ = sample_off_locus(fam, model, rng, 10)
                (a, _), (b, _) = _draw_general_pencil(fam, model, rng, 10, assignment)
                pol = polar(fam.generic, PolarParams.concrete(a, b), assignment)
                for v in is_nondegenerate(pol).sides:
                    assert (v.squarefree, v.path) == algebra.squarefree_info(v.associated)
                    sides += 1
        assert sides >= 300

    def test_degenerate_sides_are_decided_by_the_exact_route(self, monkeypatch):
        calls = count_exact_determinant(monkeypatch)
        rep = run_power_degeneracy(2, 3, 1, e1=3)
        assert rep["summary"]["degenerate"] == rep["summary"]["steep_side_fails"] == rep["summary"]["trials"]
        assert len(calls) >= 1


class TestReadTimePolar:
    """The nondegeneracy test reads a trial polar's side numerators and
    builds no coefficient; the polar is that of the substituted member.
    No timing is involved."""

    @pytest.mark.parametrize("family", TestSquarefreeCertificateInTrials.BENCH_FAMILIES)
    def test_side_points_only_then_the_substituted_polar(self, family, monkeypatch):
        read = []
        getitem = _IntegerTerms.__getitem__
        monkeypatch.setattr(_IntegerTerms, "__getitem__", lambda self, pt: read.append(pt) or getitem(self, pt))
        fam = _family_of(family)
        model = polar_model_g1(*family) if len(family) == 2 else polar_model_g2(*family)
        for trial in range(5):
            rng = random.Random(f"42:{trial}")
            assignment, _ = sample_off_locus(fam, model, rng, 10)
            (a, _), (b, _) = _draw_general_pencil(fam, model, rng, 10, assignment)
            params = PolarParams.concrete(a, b)
            pol = polar(fam.generic, params, assignment)
            read.clear()
            verdicts = [(v.squarefree, v.path) for v in is_nondegenerate(pol).sides]
            assert verdicts and all(ok for ok, _path in verdicts)
            assert read == []  # is_nondegenerate read numerators only
            ref = polar(substitute(fam.generic, assignment), params)
            assert pol == ref and ref == pol
            # each key's constant reads back as its numerator
            assert [(v.squarefree, v.path) for v in is_nondegenerate(pol).sides] == verdicts
            assert all(pol.terms.nums[pt] == pol.coeff(*pt).constant_value() * pol.terms.den
                       for pt in pol.terms)
            assert pol.render() == ref.render() and repr(pol) == repr(ref)
            assert repr(puiseux_expand(pol, min_order=4)) == repr(puiseux_expand(ref, min_order=4))


class TestCrosscheckExpansion:
    """The crosscheck expands each branch once, to its separating term.  No
    timing is involved."""

    @staticmethod
    def _count(monkeypatch):
        calls = {"expand": [], "substituted": 0}
        expand, substituted = verify.puiseux_expand, puiseux._substituted

        def counting_expand(f, depth=0, min_order=None):
            calls["expand"].append((depth, min_order))
            return expand(f, depth=depth, min_order=min_order)

        def counting_substituted(*args):
            calls["substituted"] += 1
            return substituted(*args)

        monkeypatch.setattr(verify, "puiseux_expand", counting_expand)
        monkeypatch.setattr(puiseux, "_substituted", counting_substituted)
        return calls

    def test_bench_families_expand_once_per_trial_to_separation(self, monkeypatch):
        # the default tail (min_order 4, 2n steps past separation) made 1,320
        # substitutions here; separation needs one per branch
        calls = self._count(monkeypatch)
        for family in TestSquarefreeCertificateInTrials.BENCH_FAMILIES:
            rep = run_verification(SampleConfig(family=family, seed=42, trials=5, puiseux_crosscheck=True))
            assert rep["summary"]["puiseux_match"] == 5
        assert calls["expand"] == [(None, None)] * 15
        assert calls["substituted"] == 140

    def test_a_repeated_branch_fails_after_one_expansion(self, monkeypatch):
        x, y = MPoly.var(algebra.X), MPoly.var(algebra.Y)
        doubled = PlaneSeries.from_poly((y - x**2) ** 2 * (y - x**3))
        # three smooth branches, so the class keys agree and the contacts are read
        predicted = SimpleNamespace(expanded_keys=lambda: [(1, 1)] * 3,
                                    intersections=((0, 2, 2), (2, 0, 2), (2, 2, 0)))
        calls = self._count(monkeypatch)
        assert verify._puiseux_crosscheck(doubled, predicted) is False
        assert calls["expand"] == [(None, None)]


class TestCrosscheckExits:
    """Each way the crosscheck says False, on a concrete polar."""

    def test_a_wrong_prediction_fails_the_key_comparison(self):
        # the polar of trial 0 at seed 42, drawn as run_verification draws it
        fam, model = generic_member_g1(7, 19), polar_model_g1(7, 19)
        rng = random.Random("42:0")
        assignment, _ = sample_off_locus(fam, model, rng, 10)
        (a, _), (b, _) = _draw_general_pencil(fam, model, rng, 10, assignment)
        pol = polar(fam.generic, PolarParams.concrete(a, b), assignment)
        assert verify._puiseux_crosscheck(pol, model.topology) is True
        assert verify._puiseux_crosscheck(pol, polar_model_g2(5, 12, 1).topology) is False

    def test_a_genus_two_branch_fails_the_key_comparison(self):
        x, y = MPoly.var(algebra.X), MPoly.var(algebra.Y)
        series = PlaneSeries.from_poly((y**2 - x**3) ** 2 - x**5 * y)
        assert [br.genus for br, _mult in puiseux_expand(series, depth=None)] == [2]
        assert verify._puiseux_crosscheck(series, polar_model_g1(7, 19).topology) is False

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
        assert verify._puiseux_crosscheck(PlaneSeries.from_poly((y - x**2) ** 2), predicted) is False
        assert len(raised) == 1


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

    def test_one_polygon_and_one_squarefree_test_per_side(self, monkeypatch):
        # a concrete side is decided by nonzero_discriminant on its
        # numerators, a symbolic one by squarefree_info on its associated
        # polynomial
        counts = {"polygons": 0, "sides": 0, "squarefree": 0}
        real_polygon, real_squarefree = newton.newton_polygon, newton.squarefree_info
        real_discriminant = newton.nonzero_discriminant

        def polygon(f):
            poly = real_polygon(f)
            counts["polygons"] += 1
            counts["sides"] += len(poly.sides)
            return poly

        def squarefree(F):
            counts["squarefree"] += 1
            return real_squarefree(F)

        def discriminant(nums):
            counts["squarefree"] += 1
            return real_discriminant(nums)

        monkeypatch.setattr(newton, "newton_polygon", polygon)
        monkeypatch.setattr(newton, "squarefree_info", squarefree)
        monkeypatch.setattr(newton, "nonzero_discriminant", discriminant)
        verify._generic_verdict.cache_clear()
        run_verification(SampleConfig(family=(5, 12, 1), seed=1, trials=3))
        # one polygon per trial, plus the generic member's once per family
        assert counts["polygons"] == 3 + 1
        assert counts["squarefree"] == counts["sides"]
        counts.update(polygons=0, sides=0, squarefree=0)
        run_verification(SampleConfig(family=(5, 12, 1), seed=1, trials=3))
        # the generic verdict is cached per family
        assert counts["polygons"] == 3 + 0
        assert counts["squarefree"] == counts["sides"]

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
        # once; the pencil checks, rejected ones included, reuse the parts of
        # the accepted draw.  Every other draw and pencil is rejected on top
        # of the locus's own verdict.
        plan = polar_model_g2(5, 12, 1).locus._split[0]
        counts = {"at": 0, "draws": 0, "pencils": 0}
        at, vanishes_at, nonzero_at = algebra.IntegerPlan.at, DegeneracyLocus.vanishes_at, DegeneracyLocus.nonzero_at

        def counting_at(self, assignment):
            counts["at"] += self is plan
            return at(self, assignment)

        def rejecting_draws(self, assignment):
            counts["draws"] += 1
            return vanishes_at(self, assignment) or counts["draws"] % 2 == 1

        def rejecting_pencils(self, assignment, a, b):
            counts["pencils"] += 1
            return nonzero_at(self, assignment, a, b) and counts["pencils"] % 2 == 0

        monkeypatch.setattr(algebra.IntegerPlan, "at", counting_at)
        monkeypatch.setattr(DegeneracyLocus, "vanishes_at", rejecting_draws)
        monkeypatch.setattr(DegeneracyLocus, "nonzero_at", rejecting_pencils)
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


class TestPowerDegeneracy:
    def test_cube_members_always_fail_on_the_steep_side(self):
        rep = run_power_degeneracy(2, 3, d=1, e1=3, trials=4, seed=9)
        s = rep["summary"]
        assert s["degenerate"] == 4
        assert s["steep_side_fails"] == 4
        assert s["steep_side_power_shape"] == 4

    @pytest.mark.parametrize("p,q,d,e1", [(3, 5, 1, 4), (2, 5, 1, 5)])
    def test_higher_powers_fail_on_the_steep_side(self, p, q, d, e1):
        s = run_power_degeneracy(p, q, d=d, e1=e1, trials=4, seed=9)["summary"]
        assert (s["degenerate"], s["steep_side_fails"], s["steep_side_power_shape"]) == (4, 4, 4)

    def test_requires_a_genuine_power(self):
        with pytest.raises(VerifyError):
            run_power_degeneracy(2, 3, e1=2)

    def test_report_is_pinned(self):
        golden = pathlib.Path(__file__).parent / "golden" / "power_degeneracy_2_3_1_e1_3.json"
        rep = run_power_degeneracy(2, 3, d=1, e1=3, trials=10, seed=42)
        assert report_to_json(rep) + "\n" == golden.read_text()

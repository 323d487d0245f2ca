"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line.  All
tolerances are pinned here; the sampled checks use the stated seed and
coefficient range and must match in every trial.
"""

import random
import time
from fractions import Fraction

from polarnewton.algebra import (
    A,
    B,
    MPoly,
    UPoly,
    X,
    Y,
    Z,
    avar,
    bvar,
    discriminant,
    squarefree_info,
)
from polarnewton.cfrac import continued_fraction, convergents
from polarnewton.curves import PolarParams, parse_series, polar
from polarnewton.genus1 import polar_model_g1
from polarnewton.genus2 import classify_nondegenerate, polar_model_g2
from polarnewton.newton import newton_polygon_from_points
from polarnewton.puiseux import puiseux_expand
from polarnewton.verify import SampleConfig, run_power_degeneracy, run_verification

from _oracles import distinct_root_count, hull_oracle, reconstruction_residual

x = MPoly.var(X)
y = MPoly.var(Y)
a = MPoly.var(A)
b = MPoly.var(B)
z = MPoly.var(Z)


def report(number: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {status}{suffix}")
    return ok


def rational_multiple(f: MPoly, g: MPoly) -> bool:
    if f.is_zero() or g.is_zero():
        return f == g
    lm, lc = f.leading()
    gm, gc = g.leading()
    return lm == gm and f * (gc / lc) == g


def locus_matches(got, expected) -> bool:
    if len(got) != len(expected):
        return False
    return all(any(rational_multiple(g, e) for g in got) for e in expected)


def test_criterion_1_first_worked_example():
    t0 = time.perf_counter()
    cf = continued_fraction(19, 7)
    ok = cf.h == (2, 1, 2, 2)
    ok &= convergents(cf) == ((1, 2), (1, 3), (3, 8), (7, 19))

    model = polar_model_g1(7, 19)
    a11, a14, a17 = MPoly.var(avar(11, 3)), MPoly.var(avar(14, 2)), MPoly.var(avar(17, 1))
    F0 = UPoly.from_mpoly(3 * b * a11 * z**2 + 2 * b * a14 * z + b * a17)
    F1 = UPoly.from_mpoly(b * (7 * z**4 + 3 * a11))
    ok &= model.side_polys[0] == F0
    ok &= model.side_polys[1] == F1

    # Discriminant displays.  The quartic display equals our normalized
    # discriminant exactly; the quadratic display equals the raw Sylvester
    # determinant Res(F, F'), which is -lc times the normalized discriminant,
    # so the two printed values use different conventions and only the
    # quartic is a rational multiple of a fixed-convention discriminant.
    displayed_d0 = 12 * b**3 * a11 * (3 * a11 * a17 - a14**2)
    displayed_d1 = 4 * (84 * b**2 * a11) ** 3
    ok &= discriminant(F1) == displayed_d1
    ok &= discriminant(F0) * (-3 * b * a11) == displayed_d0

    got = polar_model_g1(7, 19).locus.generators
    expected = [a17, a14, a11, 3 * a11 * a17 - a14**2]
    ok &= locus_matches(got, expected)

    rep = model.topology
    ok &= [(c.a0, c.a1, c.count) for c in rep.branches] == [(1, 3, 2), (4, 11, 1)]
    ok &= rep.intersections == ((0, 3, 11), (3, 0, 11), (11, 11, 0))

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(1, ok, f"{elapsed:.3f}s; quadratic display pinned as -lc times the discriminant")


def test_criterion_2_second_worked_example():
    t0 = time.perf_counter()
    a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
    got = polar_model_g1(5, 12).locus.generators
    ok = locus_matches(got, [a101, a53, 9 * a53**2 - 20 * a101])

    f1 = parse_series("y^5 - x^12 + x^5*y^3 + x^8*y^2 + (9/20)*x^10*y")
    displayed = (5 * b * y**4 + 5 * a * x**4 * y**3
                 + (8 * a * x**7 + 3 * b * x**5) * y**2
                 + (Fraction(9, 2) * a * x**9 + 2 * b * x**8) * y
                 - 12 * a * x**11 + Fraction(9, 20) * b * x**10)
    ok &= polar(f1).poly == displayed  # with 2*b*x^8, correcting the printed 2*x^8

    pol = polar(f1, PolarParams.concrete(1, 1))
    branches = puiseux_expand(pol, min_order=12)
    ok &= len(branches) == 1
    br, mult = branches[0]
    ok &= mult == 1 and br.n == 4
    ok &= br.char_exponents == (4, 10, 11)
    ok &= br.genus == 2
    ok &= br.semigroup == (4, 10, 21)
    ok &= reconstruction_residual(pol, br) < 1e-8

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert report(2, ok, f"{elapsed:.3f}s")


def test_criterion_3_third_worked_example():
    t0 = time.perf_counter()
    model = polar_model_g2(5, 12, 1)
    poly = model.predicted_polygon()
    ok = poly.vertices() == ((0, 9), (12, 4), (22, 0))
    ok &= (17, 2) in poly.sides[1].lattice_points

    a53, a101 = MPoly.var(avar(5, 3)), MPoly.var(avar(10, 1))
    b173, b221 = MPoly.var(bvar(17, 3)), MPoly.var(bvar(22, 1))
    ok &= model.edge_terms[9] == 10 * b * y**9
    ok &= model.edge_terms[4] == -10 * b * x**12 * y**4
    ok &= model.edge_terms[2] == 3 * b * (b173 - 2 * a53) * x**17 * y**2
    ok &= model.edge_terms[0] == b * (b221 - 2 * a101) * x**22

    F0 = UPoly.from_mpoly(
        b * (-10 * z**4 + 3 * (b173 - 2 * a53) * z**2 + (b221 - 2 * a101))
    )
    ok &= model.side_polys[0] == F0

    got = polar_model_g2(5, 12, 1).locus.generators
    expected = [
        b173 - 2 * a53,
        b221 - 2 * a101,
        9 * b173**2 - 36 * a53 * b173 + 36 * a53**2 + 40 * b221 - 80 * a101,
    ]
    ok &= locus_matches(got, expected)

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    assert report(3, ok, f"{elapsed:.3f}s")


def test_criterion_4_sampled_genus_one_families():
    t0 = time.perf_counter()
    ok = True
    details = []
    for (p, q) in [(2, 3), (2, 5), (3, 7), (5, 12), (7, 19)]:
        rep = run_verification(SampleConfig(family=(p, q), seed=42, trials=50, coeff_range=10))
        s = rep["summary"]
        full = (s["polygon_match"] == 50 and s["points_present"] == 50
                and s["all_sides_squarefree"] == 50 and s["topology_match"] == 50)
        ok &= full
        details.append(f"({p},{q}): {s['topology_match']}/50")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    assert report(4, ok, f"{elapsed:.1f}s; " + ", ".join(details))


def test_criterion_5_sampled_genus_two_families():
    t0 = time.perf_counter()
    ok = True
    details = []
    for (p, q, d) in [(2, 3, 1), (2, 5, 1), (2, 5, 7), (5, 12, 1)]:
        model = polar_model_g2(p, q, d)
        rep = run_verification(SampleConfig(family=(p, q, d), seed=42, trials=50, coeff_range=10))
        s = rep["summary"]
        full = (s["polygon_match"] == 50 and s["points_present"] == 50
                and s["all_sides_squarefree"] == 50 and s["topology_match"] == 50)
        base_class = sum(c.count for c in model.topology.branches if (c.a0, c.a1) == (p, q))
        full &= base_class == 1
        ok &= full
        details.append(f"({p},{q},{d}): {s['topology_match']}/50")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    assert report(5, ok, f"{elapsed:.1f}s; " + ", ".join(details))


def test_criterion_6_tail_independence_for_large_d():
    ok = True
    for (p, q, d) in [(2, 5, 7), (2, 3, 5)]:
        for g in polar_model_g2(p, q, d).locus.generators:
            ok &= all(v.kind == "aij" for v in g.variables())
    assert report(6, ok)


def test_criterion_7_small_multiplicity_families():
    ok = True
    details = []
    for (k, d) in [(3, 1), (5, 1), (5, 3)]:
        locus = polar_model_g2(2, k, d).locus
        empty = not locus.groups
        rep = polar_model_g2(2, k, d).topology
        classes = [(c.a0, c.a1, c.count) for c in rep.branches]
        smooth = [c for c in rep.branches if c.a0 == 1]
        topo = (sum(c.count for c in rep.branches) == 2
                and any((a0, a1, n) == (2, k, 1) for (a0, a1, n) in classes)
                and len(smooth) == 1
                and rep.intersections[0][1] == k)
        ok &= empty and topo
        gens = [g.render() for g in locus.generators]
        details.append(f"K(4,{2*k},{4*k+d}): locus={'[]' if empty else gens}, topology={'ok' if topo else 'bad'}")
    assert report(7, ok, "; ".join(details))


def test_criterion_8_higher_power_members_degenerate():
    rep = run_power_degeneracy(2, 3, d=1, e1=3, trials=10, seed=42)
    s = rep["summary"]
    ok = s["degenerate"] == 10 and s["steep_side_fails"] == 10 and s["steep_side_power_shape"] == 10
    assert report(8, ok, f"10/10 degenerate, steep side carries (z^2-1)^2")


def test_criterion_9_classifier():
    ok = classify_nondegenerate([4, 9]).nondegenerate is True
    ok &= classify_nondegenerate([4, 6, 13]).nondegenerate is True
    res = classify_nondegenerate([6, 9, 19])
    ok &= res.nondegenerate is False and "e1=3" in res.reason
    genus3 = classify_nondegenerate([8, 12, 38, 103])  # from exponents (8; 12, 26, 53)
    ok &= genus3.nondegenerate is False and genus3.genus == 3
    assert report(9, ok)


def test_criterion_10_oracle_equivalences():
    t0 = time.perf_counter()
    # polygon versus the dominance-test hull
    rng = random.Random(1010)
    ok = True
    for _ in range(100):
        pts = {(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(rng.randint(1, 30))}
        ok &= list(newton_polygon_from_points(pts).vertices()) == hull_oracle(pts)

    # gcd squarefree test versus numeric root counting; half the draws carry
    # a squared factor so the comparison sees both verdicts
    agree = 0
    for trial in range(100):
        rng2 = random.Random(f"sqf:{trial}")
        deg = rng2.randint(2, 8)
        coeffs = [Fraction(rng2.randint(-9, 9), rng2.randint(1, 9)) for _ in range(deg)] + [Fraction(1)]
        if trial % 2 == 0:
            r = Fraction(rng2.randint(-4, 4), rng2.randint(1, 4))
            square = [r * r, -2 * r, Fraction(1)]  # (z - r)^2
            prod = [Fraction(0)] * (len(coeffs) + 2)
            for i, ci in enumerate(coeffs):
                for j, sj in enumerate(square):
                    prod[i + j] += ci * sj
            coeffs = prod
        F = UPoly.from_mpoly(
            sum((MPoly.const(c) * z**k for k, c in enumerate(coeffs)), MPoly.zero())
        )
        deg_f = F.deg
        numeric_sq = distinct_root_count(coeffs) == deg_f
        agree += int(squarefree_info(F)[0] == numeric_sq)
    ok &= agree == 100

    # expansion-based classes and intersections versus the combinatorial rule
    matched = 0
    for (p, q) in [(2, 3), (2, 5), (3, 7), (5, 12), (7, 19)]:
        cfg = SampleConfig(family=(p, q), seed=42, trials=2, coeff_range=10, puiseux_crosscheck=True)
        rep = run_verification(cfg)
        matched += rep["summary"]["puiseux_match"]
    ok &= matched == 10

    elapsed = time.perf_counter() - t0
    assert report(10, ok, f"{elapsed:.1f}s; hull 100/100, squarefree 100/100, expansion 10/10")

"""The Milnor number of a drawn polar against the model's Newton number.

The statement relied on (Kouchnirenko 1976; Płoski 1999): let P in C{x, y}
be *convenient*, i.e. its Newton polygon Γ(P) meets both axes, at (a, 0)
and (0, b), and let S be the area of the region between Γ(P) and the axes.
Then the Milnor number satisfies μ(P) >= ν(Γ(P)) = 2S - a - b + 1, and
equality holds if and only if P is Newton nondegenerate.  With Milnor's
formula μ = 2δ - r + 1 (Milnor 1968), r the number of branches, μ also
fixes δ, which for branch classes (v0, v1) and a pairwise intersection
table is Σ δ_i + Σ_{i<j} γ_i·γ_j, with δ_i = (v0 - 1)(v1 - 1)/2.

μ(P) is read as the local intersection number of P_x and P_y at 0, the
x-order of Res_y(P_y, P_x).  That is the local number because P_y(0, y) is
c·y^k with c != 0 and P_y's leading y-coefficient does not vanish at x = 0,
so every root y(x) of P_y tends to 0; both are asserted on every polar here.
P is formed with sympy's `diff` from the member rendered at the draw, never
with `polar`, and the order is `_oracles.milnor_mod`'s modulo two primes,
which must agree (reduction mod a prime can only raise it); on three cheap
cases sympy's own resultant gives the same order.  So the check shares no
code with the prediction.

A draw off the locus has the predicted polygon, convenient and with every
side squarefree, so μ(P) must be ν of the predicted polygon, and the δ
identity must hold on the model's topology.  An e1 = 3, 4 or 5 member's polar
is degenerate (the paper's "no" classes): there μ(P) exceeds ν(Γ(P)), and
equals 2δ - r + 1 on the polar's own topology, which no coordinate change
alters.
A drawn point with one lowest-term variable forced to 0 keeps P
nondegenerate, so μ(P) = ν(Γ(P)), which differs from ν of the predicted
polygon when Γ(P) moves.

Skipped when sympy is not installed (it is in the `test` extra).
"""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from polarnewton import verify  # noqa: E402
from polarnewton.algebra import Var  # noqa: E402
from polarnewton.curves import generic_member_g2, substitute  # noqa: E402

from _oracles import hull_oracle, milnor_mod  # noqa: E402
from _support import member_of, model_of  # noqa: E402

SX, SY = sympy.symbols("x y")


def polar_of_render(text: str, a: Fraction, b: Fraction):
    """a*F_x + b*F_y, F the rendered series, with sympy's `diff`, as a
    polynomial in x and y over QQ."""
    F = sympy.Poly(sympy.sympify(text.replace("^", "**"), locals={"x": SX, "y": SY}), SX, SY, domain="QQ")
    rat = sympy.Rational
    return F.diff(SX) * rat(a.numerator, a.denominator) + F.diff(SY) * rat(b.numerator, b.denominator)


PRIMES = (2**61 - 1, 2**31 - 1)


def milnor(P) -> int:
    """ord_x Res_y(P_y, P_x) modulo each of two primes, which must agree,
    after asserting that it is the local intersection number at 0."""
    Py = P.diff(SY)
    at_zero = Py.eval(SX, 0)
    assert len(at_zero.terms()) == 1 and at_zero.LC() != 0  # P_y(0, y) = c*y^k
    assert sympy.Poly(Py.as_expr(), SY).LC().subs(SX, 0) != 0
    den = math.lcm(*(int(c.q) for c in P.coeffs()))
    terms = {(i, j): int(c * den) for (i, j), c in P.terms()}
    mus = {milnor_mod(terms, prime) for prime in PRIMES}
    assert len(mus) == 1, f"the primes disagree: {mus}"
    return mus.pop()


def milnor_sympy(P) -> int:
    """ord_x Res_y(P_y, P_x), the resultant taken by sympy."""
    res = sympy.Poly(sympy.resultant(P.diff(SY).as_expr(), P.diff(SX).as_expr(), SY), SX)
    assert not res.is_zero
    return min(e for (e,), _c in res.terms())


def newton_number(vertices) -> int:
    """2S - a - b + 1 for a convenient polygon given by its vertices from
    (0, b) down to (a, 0)."""
    (x0, b), (a, y1) = vertices[0], vertices[-1]
    assert x0 == 0 and y1 == 0, "not convenient"
    twice_area = sum((u1 - u0) * (v0 + v1) for (u0, v0), (u1, v1) in zip(vertices, vertices[1:]))
    return twice_area - a - b + 1


def trial(key, n=0, zero=None):
    """The member rendered at the draw of trial `n` of `run_verification` at
    seed 42, its pencil point, and the model; with `zero`, that variable of
    the draw is set to 0 and the pencil point is kept."""
    family, model = member_of(key), model_of(key)
    point, _, (a, _), (b, _) = verify.sample_off_locus(family, model, random.Random(f"42:{n}"), 10)
    if zero is not None:
        scaled = tuple(0 if v == zero else s for v, s in zip(point.variables, point.scaled))
        assert scaled != point.scaled
        point = dataclasses.replace(point, scaled=scaled)
    return substitute(family.generic, point).render(), a, b, model


# (5,9) and (7,13) are q = -1 (mod p) polygons, one side each, whose side
# condition the locus listing drops unexpanded; in the p = 2, d = 1 families
# the class term undercuts the product part at height 0 (see genus2)
@pytest.mark.parametrize("key,n,mu", [((4, 9), 0, 12), ((4, 9), 1, 12), ((4, 9), 2, 12),
                                      ((5, 12), 0, 27), ((5, 12), 1, 27), ((5, 12), 2, 27),
                                      ((5, 13), 0, 29),
                                      ((3, 7, 1), 0, 43), ((3, 7, 1), 1, 43), ((3, 7, 1), 2, 43),
                                      ((4, 11, 1), 0, 111), ((4, 11, 1), 1, 111), ((4, 11, 1), 2, 111),
                                      ((5, 9), 0, 21), ((7, 13), 0, 55),
                                      ((3, 5, 1), 0, 30), ((3, 5, 1), 1, 30),
                                      ((2, 3, 1), 0, 7), ((2, 3, 1), 1, 7),
                                      ((2, 5, 1), 0, 13), ((2, 5, 1), 1, 13),
                                      ((2, 7, 1), 0, 19), ((2, 7, 1), 1, 19),
                                      ((3, 4, 1), 0, 23), ((3, 4, 1), 1, 23),
                                      ((4, 5, 1), 0, 47), ((4, 5, 1), 1, 47),
                                      ((5, 12, 1), 0, 166), ((5, 12, 1), 1, 166)])
def test_milnor_number_is_the_predicted_newton_number(key, n, mu):
    text, a, b, model = trial(key, n)
    got = milnor(polar_of_render(text, a, b))
    assert got == newton_number(model.predicted_polygon().vertices()) == mu

    # the δ identity on the predicted topology
    topo = model.topology
    keys = topo.expanded_keys()
    r = len(keys)
    deltas = sum((v0 - 1) * (v1 - 1) for v0, v1 in keys)  # twice Σ δ_i
    contacts = sum(topo.intersections[i][j] for i in range(r) for j in range(i + 1, r))
    assert got + r - 1 == deltas + 2 * contacts


@pytest.mark.parametrize("key", [(4, 9), (5, 12), (3, 7, 1)])
def test_modular_milnor_number_is_sympys(key):
    text, a, b, _model = trial(key)
    P = polar_of_render(text, a, b)
    assert milnor(P) == milnor_sympy(P)


@pytest.mark.parametrize("e1,mu,nu", [(3, 27, 26), (4, 59, 57), (5, 103, 100)])
def test_power_member_polar_exceeds_its_newton_number(e1, mu, nu):
    # the e1 member of (2,3,1), drawn as the first trial draws; its polar is
    # one smooth branch and one with semigroup <2k, 3k, 6k + 1>, k = e1 - 1,
    # meeting with multiplicity 3k, so δ = (3k^2 - 2k) + 3k, r = 2, and
    # Milnor's formula reads the degenerate polar's μ off that topology
    family = generic_member_g2(2, 3, 1, e1=e1)
    point, _ = verify._draw_assignment(family, random.Random("42:0"), 10)
    P = polar_of_render(substitute(family.generic, point).render(), Fraction(3), Fraction(-2, 5))
    support = [(i, j) for (i, j), c in P.terms() if c]
    got = milnor(P)
    assert (got, newton_number(hull_oracle(support))) == (mu, nu)
    k, r = e1 - 1, 2
    delta = (3 * k * k - 2 * k) + 3 * k
    assert got == 2 * delta - r + 1


@pytest.mark.parametrize("zero,absent,hull,mu", [
    # the lowest term 3*b*a[5,3] at (5,2) goes; the predicted polygon stays
    (Var("aij", 5, 3), (5, 2), [(0, 4), (10, 0)], 27),
    # the bottom vertex (10,0) goes, and P's own polygon moves
    (Var("aij", 10, 1), (10, 0), [(0, 4), (5, 2), (11, 0)], 28),
])
def test_forced_lowest_term_zero_has_its_own_newton_number(zero, absent, hull, mu):
    # (5,12)'s first draw with one variable set to 0: P stays nondegenerate,
    # so μ(P) = ν(Γ(P)), which is ν(predicted) + 1 once the polygon moves;
    # so μ = ν(predicted) is no polygon check
    text, a, b, model = trial((5, 12), zero=zero)
    P = polar_of_render(text, a, b)
    support = [(i, j) for (i, j), c in P.terms() if c]
    assert absent not in support
    assert hull_oracle(support) == hull
    assert milnor(P) == newton_number(hull) == mu
    assert newton_number(model.predicted_polygon().vertices()) == 27

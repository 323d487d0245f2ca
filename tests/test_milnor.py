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
with `polar`, and sympy takes the resultant, so the check shares no code
with the prediction.

A draw off the locus has the predicted polygon, convenient and with every
side squarefree, so μ(P) must be ν of the predicted polygon, and the δ
identity must hold on the model's topology.  An e1 = 3 member's polar is
degenerate (the paper's "no" classes), and there μ(P) exceeds ν(Γ(P)).

Skipped when sympy is not installed (it is in the `test` extra).
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from polarnewton import verify  # noqa: E402
from polarnewton.curves import generic_member_g2, substitute  # noqa: E402
from polarnewton.genus1 import polar_model_g1  # noqa: E402
from polarnewton.genus2 import polar_model_g2  # noqa: E402

from _oracles import hull_oracle  # noqa: E402

SX, SY = sympy.symbols("x y")


def polar_of_render(text: str, a: Fraction, b: Fraction):
    """a*F_x + b*F_y, F the rendered series, with sympy's `diff`."""
    F = sympy.sympify(text.replace("^", "**"), locals={"x": SX, "y": SY})
    rat = sympy.Rational
    return sympy.expand(rat(a.numerator, a.denominator) * sympy.diff(F, SX)
                        + rat(b.numerator, b.denominator) * sympy.diff(F, SY))


def milnor(P) -> int:
    """ord_x Res_y(P_y, P_x), after asserting that it is the local
    intersection number at 0."""
    Px, Py = sympy.diff(P, SX), sympy.diff(P, SY)
    at_zero = sympy.Poly(Py.subs(SX, 0), SY)
    assert len(at_zero.terms()) == 1 and at_zero.LC() != 0  # P_y(0, y) = c*y^k
    assert sympy.Poly(Py, SY).LC().subs(SX, 0) != 0
    res = sympy.Poly(sympy.resultant(Py, Px, SY), SX)
    assert not res.is_zero
    return min(e for (e,), _c in res.terms())


def newton_number(vertices) -> int:
    """2S - a - b + 1 for a convenient polygon given by its vertices from
    (0, b) down to (a, 0)."""
    (x0, b), (a, y1) = vertices[0], vertices[-1]
    assert x0 == 0 and y1 == 0, "not convenient"
    twice_area = sum((u1 - u0) * (v0 + v1) for (u0, v0), (u1, v1) in zip(vertices, vertices[1:]))
    return twice_area - a - b + 1


def first_trial(key):
    """The member rendered at the first draw of `run_verification` at seed
    42, its pencil point, and the model."""
    family = verify._family(key)
    model = polar_model_g1(*key) if len(key) == 2 else polar_model_g2(*key)
    rng = random.Random("42:0")
    point, _ = verify.sample_off_locus(family, model, rng, 10)
    (a, _), (b, _) = verify._draw_general_pencil(family, model, rng, 10, point)
    return substitute(family.generic, point).render(), a, b, model


@pytest.mark.parametrize("key,mu", [((4, 9), 12), ((5, 12), 27), ((3, 7, 1), 43)])
def test_milnor_number_is_the_predicted_newton_number(key, mu):
    text, a, b, model = first_trial(key)
    got = milnor(polar_of_render(text, a, b))
    assert got == newton_number(model.predicted_polygon().vertices()) == mu

    # the δ identity on the predicted topology
    topo = model.topology
    keys = topo.expanded_keys()
    r = len(keys)
    deltas = sum((v0 - 1) * (v1 - 1) for v0, v1 in keys)  # twice Σ δ_i
    contacts = sum(topo.intersections[i][j] for i in range(r) for j in range(i + 1, r))
    assert got + r - 1 == deltas + 2 * contacts


def test_cube_member_polar_exceeds_its_newton_number():
    # the e1 = 3 member of (2,3,1), drawn as the first trial draws
    family = generic_member_g2(2, 3, 1, e1=3)
    point, _ = verify._draw_assignment(family, random.Random("42:0"), 10)
    P = polar_of_render(substitute(family.generic, point).render(), Fraction(3), Fraction(-2, 5))
    support = [(i, j) for (i, j), c in sympy.Poly(P, SX, SY).terms() if c]
    nu = newton_number(hull_oracle(support))
    assert (milnor(P), nu) == (27, 26)

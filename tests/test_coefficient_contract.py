"""The coefficient contract of `MPoly`: every stored coefficient is an `int`
when it is integral and a `Fraction` otherwise, never a float, whichever
kernel operation made it, while `constant_value` and `leading` return a
`Fraction`.  A seeded battery runs the ring operations, exact division,
collection, `strip_content` and `discriminant` on random polynomials with
mostly integer and some rational coefficients, some of those integral
`Fraction`s, and checks each `discriminant` against `integer_discriminant`
at integer points.
"""

import math
import random
from fractions import Fraction

import pytest

from polarnewton.algebra import (A, B, MPoly, UPoly, avar, bvar, common_denominator, discriminant,
                                 integer_discriminant, strip_content)

from _oracles import evaluate

VARS = (A, B, avar(3, 1), bvar(5, 2))
SEEDS = range(25)


def canonical(p: MPoly) -> bool:
    """Every coefficient an int, or a Fraction that is not integral."""
    return all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in p.terms.values())


def scalar(rng: random.Random):
    """A nonzero coefficient: mostly an int, else a Fraction, integral in a
    third of those."""
    n = rng.choice([k for k in range(-9, 10) if k])
    if rng.random() < 0.6:
        return n
    d = rng.randrange(2, 7)
    return Fraction(n * d, d) if rng.random() < 0.33 else Fraction(n, d)


def poly(rng: random.Random, terms: int = 4, top: int = 2) -> MPoly:
    return sum((MPoly.monomial(scalar(rng), {v: rng.randrange(top + 1) for v in VARS})
                for _ in range(rng.randrange(1, terms + 1))), MPoly.zero())


def nonconstant(rng: random.Random) -> MPoly:
    while (g := poly(rng, terms=3, top=1)).is_constant():
        pass
    return g


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_store_canonical_coefficients(seed):
    rng = random.Random(seed)
    f, g, c = poly(rng), poly(rng), scalar(rng)
    half = Fraction(1, 2)
    results = [f + g, f - g, g - f, -f, f * g, f**rng.randrange(4), f * c, c * f, f + c, c - f,
               f * half + f * half, f * MPoly.const(c), (f - f) + g, f * Fraction(2, 2)]
    for got in results:
        assert canonical(got)
    assert f * half + f * half == f and canonical(MPoly.const(half) + MPoly.const(half))
    assert type(MPoly.var(A).terms[((A, 1),)]) is int


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_division_stores_canonical_coefficients(seed):
    rng = random.Random(seed)
    f, g, c = poly(rng), nonconstant(rng), scalar(rng)
    for divisor in (c, MPoly.const(c), 2, Fraction(3, 2)):
        got = (f * divisor).divexact(divisor)
        assert got == f and canonical(got)
        assert canonical(f.divexact(divisor))
    got = (f * g).divexact(g)
    assert got == f and canonical(got)


@pytest.mark.parametrize("seed", SEEDS)
def test_collection_and_content_store_canonical_coefficients(seed):
    rng = random.Random(seed)
    f = poly(rng, terms=6)
    split = f.coefficients_in([A, B])
    assert all(canonical(c) for c in split.values())
    keep = set(rng.sample(VARS[2:], rng.randrange(3)))
    for c in split.values():
        got = strip_content(c, keep)
        assert canonical(got)
        # integer coefficients with gcd 1, the leading one positive
        nums = list(got.terms.values())
        assert all(type(v) is int for v in nums) and math.gcd(*nums) == 1 and got.leading()[1] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_discriminant_is_canonical_and_agrees_with_integer_discriminant(seed):
    rng = random.Random(seed)
    deg = rng.randrange(2, 5)
    F = UPoly([poly(rng, terms=2, top=1) for _ in range(deg)] + [nonconstant(rng)])
    disc = discriminant(F)
    assert canonical(disc)
    for _ in range(3):
        point = {v: rng.randrange(-5, 6) for v in VARS}
        values = [evaluate(c, point) for c in F.coeffs]
        nums, den = common_denominator(values)
        # disc(den * F) = den^(2d - 2) disc(F), at formal degree d
        assert integer_discriminant(nums) == evaluate(disc, point) * den ** (2 * deg - 2)


def test_single_coefficient_accessors_return_fractions():
    for f in (MPoly.const(3), MPoly.const(Fraction(1, 2)), MPoly.var(A) * 4 - 1, MPoly.zero()):
        assert type(f.constant_value() if f.is_constant() else f.leading()[1]) is Fraction
    assert MPoly.const(3).constant_value() == 3 and (MPoly.var(B) * 4 - 1).leading() == (((B, 1),), 4)

import math
import random
from fractions import Fraction

import pytest

from polarnewton.cfrac import CFracError, continued_fraction, convergents


def test_pinned_quotients():
    assert continued_fraction(19, 7).h == (2, 1, 2, 2)


def test_integer_ratio():
    assert continued_fraction(3, 1).h == (3,)


def test_hand_run_euclid():
    assert continued_fraction(12, 5).h == (2, 2, 2)


def test_pinned_convergents():
    cf = continued_fraction(19, 7)
    assert convergents(cf) == ((1, 2), (1, 3), (3, 8), (7, 19))
    assert cf.s == 3


def test_single_entry_convergent():
    assert convergents(continued_fraction(3, 1)) == ((1, 3),)


def test_recurrence_by_hand():
    assert convergents(continued_fraction(12, 5)) == ((1, 2), (2, 5), (5, 12))


@pytest.mark.parametrize("q,p", [(6, 3), (7, 7), (3, 5), (5, 0)])
def test_invalid_inputs_rejected(q, p):
    with pytest.raises(CFracError):
        continued_fraction(q, p)


def test_round_trip_and_determinant_identity_on_sample():
    rng = random.Random(20240817)
    seen = 0
    while seen < 500:
        q = rng.randint(3, 10_000)
        p = rng.randint(1, q - 1)
        if math.gcd(p, q) != 1:
            continue
        seen += 1
        cf = continued_fraction(q, p)
        assert cf.h[-1] >= 2
        # nested-fraction evaluation
        val = Fraction(cf.h[-1])
        for h in reversed(cf.h[:-1]):
            val = h + 1 / val
        assert val == Fraction(q, p)
        conv = convergents(cf)
        pairs = [(0, 1)] + list(conv)
        for i in range(1, len(pairs)):
            p_prev, q_prev = pairs[i - 1]
            p_i, q_i = pairs[i]
            assert abs(p_prev * q_i - p_i * q_prev) == 1
            assert math.gcd(p_i, q_i) == 1
        assert conv[-1] == (p, q)

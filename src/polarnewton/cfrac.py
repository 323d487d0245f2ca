"""Continued fractions of q/p and their convergents."""

from __future__ import annotations

import math
from dataclasses import dataclass


class CFracError(ValueError):
    pass


@dataclass(frozen=True)
class ContinuedFraction:
    """q/p = [h0, ..., hs] in the canonical form with hs >= 2."""

    p: int
    q: int
    h: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.h) - 1


def continued_fraction(q: int, p: int) -> ContinuedFraction:
    if p < 1 or q <= p:
        raise CFracError(f"need 0 < p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise CFracError(f"p={p} and q={q} are not coprime")
    h = []
    a, b = q, p
    while b:
        h.append(a // b)
        a, b = b, a % b
    assert h[-1] >= 2  # last Euclid quotient, gcd(p, q) = 1
    return ContinuedFraction(p=p, q=q, h=tuple(h))


def convergents(cf: ContinuedFraction) -> tuple[tuple[int, int], ...]:
    """Coprime pairs (p_i, q_i) with q_i/p_i = [h0, ..., hi]."""
    pairs = []
    p_prev2, q_prev2 = 1, 0
    p_prev, q_prev = 0, 1
    for hi in cf.h:
        pi = hi * p_prev + p_prev2
        qi = hi * q_prev + q_prev2
        pairs.append((pi, qi))
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = pi, qi
    assert pairs[-1] == (cf.p, cf.q)
    return tuple(pairs)

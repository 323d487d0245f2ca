"""Independent reference computations used to check the library from scratch.

Nothing here shares code with the implementation paths it cross-checks, and
nothing here imports `polarnewton`: the hull oracle tests all support pairs
for dominance, the determinant oracle is plain fraction Gaussian elimination,
root counting goes through numpy, the tail polar's lowest exponents come from
listing the tail monomials, and derivatives, evaluations and the Puiseux
residual read a polynomial's `.terms` (or a `UPoly`'s `.coeffs`) directly.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def hull_oracle(points):
    """Compact lower-left hull vertices via the all-pairs dominance test.

    A pair (a, b) spans a hull edge iff every support point lies weakly above
    the line through a and b; the vertex chain is assembled from the maximal
    such edges sorted by slope, steepest first.
    """
    pts = sorted(set(points))
    top = min(pts, key=lambda p: (p[0], p[1]))
    bottom = min(pts, key=lambda p: (p[1], p[0]))
    if top == bottom:
        return [top]
    edges = []
    for a in pts:
        for b in pts:
            if a[0] < b[0] and a[1] > b[1]:
                above = all(
                    (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) >= 0
                    for c in pts
                )
                if above:
                    edges.append((a, b))
    maximal = []
    for a, b in edges:
        contained = False
        for c, d in edges:
            if (c, d) == (a, b):
                continue
            if (_collinear(c, d, a) and _collinear(c, d, b)
                    and _between(c, d, a) and _between(c, d, b)):
                contained = True
                break
        if not contained:
            maximal.append((a, b))
    maximal.sort(key=lambda e: Fraction(e[0][1] - e[1][1], e[1][0] - e[0][0]), reverse=True)
    chain = [maximal[0][0]]
    for a, b in maximal:
        assert a == chain[-1], "oracle edges must chain up"
        chain.append(b)
    assert chain[0] == top and chain[-1] == bottom
    return chain


def _collinear(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0])


def _between(a, b, c):
    return min(a[0], b[0]) <= c[0] <= max(a[0], b[0])


def det_fraction(matrix):
    """Determinant of a square Fraction matrix by ordinary elimination."""
    m = [list(map(Fraction, row)) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] * inv
            if f:
                for c in range(k, n):
                    m[r][c] -= f * m[k][c]
    return det


def sylvester_matrix(fc, gc, zero=Fraction(0)):
    """Sylvester matrix from descending coefficient lists, its entries the
    coefficients themselves and `zero` elsewhere."""
    n = len(fc) - 1
    m = len(gc) - 1
    size = n + m
    rows = []
    for r in range(m):
        row = [zero] * size
        for k, c in enumerate(fc):
            row[r + k] = c
        rows.append(row)
    for r in range(n):
        row = [zero] * size
        for k, c in enumerate(gc):
            row[r + k] = c
        rows.append(row)
    return rows


def distinct_root_count(coeffs, merge_tol=1e-6):
    """Number of distinct roots after merging numerically coincident ones.

    `coeffs` ascending.  Double roots of exact input split by about the
    square root of machine precision under companion-matrix root finding, so
    the merge radius sits well above that and below genuine separations.
    """
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return 0
    roots = np.roots(list(reversed(cs)))
    merged = []
    for r in roots:
        for c in merged:
            if abs(r - c) <= merge_tol * max(1.0, abs(c)):
                break
        else:
            merged.append(r)
    return len(merged)


def min_rule(c1, c2):
    return min(c1[0] * c2[1], c2[0] * c1[1])


def tail_polar_min_x(p, q, d):
    """Least x-exponent at each height 0..2p-2 of the polar of the genus-two
    tail of <2p, 2q, 2pq+d>.

    The tail is listed by weight w = 2pq + d, ..., 2pq + d + p: every
    x^i y^h with h <= 2p-2 and weight i*p + h*q above 2pq + d, and the one
    monomial of weight exactly 2pq + d with h < p.  Each lands its
    x-derivative at (i-1, h) and its y-derivative at (i, h-1).  Since
    h*q < 2pq at every height, each height has a monomial in this window, so
    a heavier one, further right on its row, sets no minimum.
    """
    threshold = 2 * p * q + d
    low = {}
    for w in range(threshold, threshold + p + 1):
        for h in range(2 * p - 1):
            if (w - h * q) % p or (w == threshold and h >= p):
                continue
            i = (w - h * q) // p
            for (x, j) in ((i - 1, h), (i, h - 1)):
                if x >= 0 and j >= 0:
                    low[j] = min(x, low.get(j, x))
    return [low[j] for j in range(2 * p - 1)]


def deriv(poly, v):
    """d poly / d v, term by term on `poly.terms`, as a polynomial of the same
    type.  A monomial is a tuple of (variable, exponent) pairs, so lowering
    one exponent keeps its order."""
    out = {}
    for m, c in poly.terms.items():
        e = dict(m).get(v, 0)
        if e:
            rest = tuple((w, ee - 1 if w == v else ee) for w, ee in m if not (w == v and ee == 1))
            out[rest] = out.get(rest, 0) + c * e
    return type(poly)(out)


def evaluate(poly, assignment):
    """The value of `poly` at `assignment` (variable -> int or Fraction), as a
    Fraction summed term by term; a missing variable raises KeyError."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        for v, e in m:
            c = c * Fraction(assignment[v]) ** e
        total += c
    return total


def reconstruction_residual(f, branch):
    """Largest relative coefficient of f(t^n, y(t)) below the branch's
    guaranteed order, with y(t) the branch's terms in complex floats; an
    exact parametrization (`reached` None) is substituted untruncated."""
    p = {pt: complex(evaluate(c, {})) for pt, c in f.terms.items()}
    n = branch.n
    if branch.reached is None:
        ymax = max((int(e * n) for e, _ in branch.terms), default=1)
        t_limit = 1 + max(i * n + j * ymax for (i, j) in p)
    else:
        t_limit = int(branch.reached * n)
    yt = {int(e * n): c for e, c in branch.terms}
    ypow = [{0: 1.0 + 0j}]
    for _ in range(max(j for (_i, j) in p)):
        ypow.append(_mul_trunc(ypow[-1], yt, t_limit))
    total = {}
    scale = 0.0
    for (i, j), c in p.items():
        for e, cv in ypow[j].items():
            te = i * n + e
            if te < t_limit:
                val = c * cv
                total[te] = total.get(te, 0j) + val
                scale = max(scale, abs(val))
    if scale == 0.0:
        return 0.0
    return max(abs(v) for v in total.values()) / scale


def _mul_trunc(s1, s2, limit):
    """Product of two {t-exponent: coefficient} series, dropping t^limit and up."""
    out = {}
    for e1, c1 in s1.items():
        for e2, c2 in s2.items():
            if e1 + e2 < limit:
                out[e1 + e2] = out.get(e1 + e2, 0j) + c1 * c2
    return out

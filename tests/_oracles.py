"""Independent reference computations used to check the library from scratch.

Nothing here shares code with the implementation paths it cross-checks, and
nothing here imports `polarnewton`: the hull oracle tests all support pairs
for dominance, the determinant oracle is plain fraction Gaussian elimination,
root counting goes through numpy, the tail polar's lowest exponents come from
listing the tail monomials and from the paper's closed forms, as do the
genus-one polar's and the steep side's points (`lpq_side_points`),
derivatives, evaluations and the Puiseux residual
read a polynomial's `.terms` (or a `UPoly`'s `.coeffs`) directly, as
`point_values` reads a drawn point's integers, and the Milnor number is a
resultant's x-order modulo a prime, by evaluation and interpolation.
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


def min_x_exponent(p, q, j):
    """Least x-exponent that can occur with y^j in the generic polar of
    <p, q>, in closed form.

    The y-derivative route (from x^i y^(j+1)) gives the least exponent at
    every height except j = p-2, whose y-route would need the y^(p-1) row
    that the normal form leaves empty; there the x-derivative of the lowest
    x^i y^(p-2) sets it (of -x^q itself when p = 2).
    """
    if not 0 <= j <= p - 1:
        raise ValueError(f"need 0 <= j <= {p - 1}, got {j}")
    if j == p - 2:
        return q - (j * q) // p - 1
    return q - ((j + 1) * q) // p


def tail_min_x_exponent(p, q, d, j):
    """Least x-exponent occurring with y^j in the polar of the weight->=2pq+d
    tail of <2p, 2q, 2pq+d>, in closed form.

    The tail at height h holds every x^i y^h from i = first(h) upward, where
    first(h) is the least i with i*p + h*q > 2pq + d, or i0 at the height j0
    < p of the one monomial of weight exactly 2pq + d; first(h) >= 1, since
    h*q < 2pq at every tail height.  The x-derivative lands at first(j) - 1,
    and the y-derivative at first(j + 1) when j + 1 <= 2p - 2; the least of
    the two is the answer.
    """
    if not 0 <= j <= 2 * p - 2:
        raise ValueError(f"need 0 <= j <= {2 * p - 2}, got {j}")
    threshold = 2 * p * q + d
    j0 = next(h for h in range(p) if (threshold - h * q) % p == 0)

    def first(h):
        i = (threshold - h * q) // p
        return i if h == j0 else i + 1

    return min(first(j) - 1, first(j + 1)) if j + 1 <= 2 * p - 2 else first(j) - 1


def lpq_side_points(p, q, e1=2):
    """Lattice points of the steep side that f1^(e1-1) * P(f1) contributes to
    the polar of f1^e1 + f2, in closed form, top first."""
    return tuple((i * q, (e1 - i) * p - 1) for i in range(e1))


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


def point_values(point):
    """A drawn point's values as a map of `Fraction`s, read off its
    `variables`, `scaled` and `m`."""
    return {v: Fraction(s, point.m) for v, s in zip(point.variables, point.scaled)}


def evaluate(poly, assignment):
    """The value of `poly` at `assignment` (variable -> int or Fraction), as a
    Fraction summed term by term; a missing variable raises KeyError."""
    total = Fraction(0)
    for m, c in poly.terms.items():
        for v, e in m:
            c = c * Fraction(assignment[v]) ** e
        total += c
    return total


def milnor_mod(terms, prime):
    """ord_x Res_y(P_y, P_x) modulo `prime`, for P = sum c x^i y^j given as
    {(i, j): int}.

    The resultant is taken at x = 1, 2, ..., skipping each point where P_y's
    leading y-coefficient vanishes mod `prime`, by Euclid on
    Res(f, g) = lc(f)^m * prod g(roots of f), m the y-degree of P_x, which
    stays exact where g's degree drops there.  It has x-degree at most
    (deg_y P_y + m) * deg_x P, so that many values plus one fix it by Newton
    interpolation.  Reduction mod `prime` can only raise the order, so a
    caller compares two primes.
    """
    px, py = {}, {}
    for (i, j), c in terms.items():
        if i:
            px[(i - 1, j)] = i * c % prime
        if j:
            py[(i, j - 1)] = j * c % prime
    m, n = max(j for _i, j in px), max(j for _i, j in py)
    xdeg = max(i for i, _j in terms)
    xs, values = [], []
    x0 = 0
    while len(xs) <= (n + m) * xdeg:
        x0 += 1
        f, g = _y_coefficients(py, n, x0, prime), _y_coefficients(px, m, x0, prime)
        if f[-1]:
            xs.append(x0)
            values.append(pow(f[-1], m, prime) * _product_at_roots(f, g, prime) % prime)
    coeffs = _interpolate(xs, values, prime)
    order = next((k for k, c in enumerate(coeffs) if c), None)
    assert order is not None, "the resultant vanishes modulo the prime"
    return order


def _y_coefficients(poly, deg, x0, prime):
    """poly's coefficients of y^0..y^deg at x = x0, mod `prime`."""
    out = [0] * (deg + 1)
    for (i, j), c in poly.items():
        out[j] = (out[j] + c * pow(x0, i, prime)) % prime
    return out


def _product_at_roots(f, g, prime):
    """prod g(a) over the roots a of f, mod `prime`; f's last entry is
    nonzero, both low degree first.  With r = g mod f of degree k,
    prod_f r = lc(r)^deg f * (-1)^(deg f * k) * prod_r f / lc(f)^k."""
    acc = 1
    while len(f) > 1:
        g = _trim_mod(g[:], f, prime)
        if not g:
            return 0
        n, k = len(f) - 1, len(g) - 1
        acc = acc * pow(g[-1], n, prime) * pow(f[-1], -k, prime) % prime
        if n * k % 2:
            acc = -acc % prime
        f, g = g, f
    return acc


def _trim_mod(g, f, prime):
    """g mod f over GF(prime), with no zero last entry."""
    while g and not g[-1]:
        g.pop()
    inv = pow(f[-1], -1, prime)
    while len(g) >= len(f):
        q, k = g[-1] * inv % prime, len(g) - len(f)
        for t, c in enumerate(f):
            g[k + t] = (g[k + t] - q * c) % prime
        while g and not g[-1]:
            g.pop()
    return g


def _interpolate(xs, values, prime):
    """Coefficients, low degree first, of the polynomial of degree < len(xs)
    through (xs, values) over GF(prime): Newton's divided differences, then
    the Newton form expanded."""
    c = list(values)
    inverse = {}
    for step in range(1, len(xs)):
        for t in range(len(xs) - 1, step - 1, -1):
            gap = xs[t] - xs[t - step]
            if gap not in inverse:
                inverse[gap] = pow(gap, -1, prime)
            c[t] = (c[t] - c[t - 1]) * inverse[gap] % prime
    out = [c[-1]]
    for t in range(len(xs) - 2, -1, -1):  # out * (x - xs[t]) + c[t]
        out = [(lo - xs[t] * hi) % prime for lo, hi in zip([0] + out, out + [0])]
        out[0] = (out[0] + c[t]) % prime
    return out


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

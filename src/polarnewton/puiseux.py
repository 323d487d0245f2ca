"""Numeric Newton-Puiseux expansion of concrete plane-curve polynomials.

Branches through the origin are developed side by side on successive Newton
polygons.  Exponent bookkeeping is exact (Fractions produced by polygon
slopes); coefficients start as integer numerators over one denominator,
are read as exact rationals only at the first level's side points, become
complex floats once per expansion, and a shift's x-powers and coefficients
are laid out once per side for all its roots.  Root multiplicities at the
first, still-exact level are read off a rational squarefree decomposition;
deeper levels fall back to clustering with a relative tolerance.

One loop walks every node.  A simple edge root separates its branch: the
substituted node holds the term y, and the rest of the branch is a chain of
steps on the single side (0,1)-(i*,0).  Along that chain a term x^i y^j can
only reach coefficients the chain still reads if i + j is below a budget
that each step lowers by i*, so every chain node carries its budget and its
substitution, the separating one included, forms only those terms; each
coefficient it keeps is the float the full substitution gives.  A chain's
last truncated node forms only its keys y^0 and y^1, all that its decision
reads.  A decision the kept terms cannot settle (no y^0 term or no y term
left, as when the budget is spent) restarts the chain from its first node
with the budget doubled; after three doublings the chain runs untruncated.
Every node, a chain step included, reads its sides from the module's own
lower-hull walk, and np.roots finds the roots of every float side.

From a finished expansion the module recovers the characteristic exponents,
the genus, the value semigroup and numeric pairwise intersection numbers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import qpoly_yun
from .curves import PlaneSeries

DROP_ACC = 1e-9  # cancellation cutoff relative to accumulated contributions
# Root clustering must merge the numeric splitting of an exact multiple root,
# which is about sqrt(machine epsilon) ~ 1.5e-8 for a double root, so the
# radius sits two decades above that and well below genuine separations.
CLUSTER_REL = 1e-6
COEFF_REL = 1e-8  # relative tolerance for coefficient comparisons

_MAX_STEPS = 4000
# Truncation of separated chains (see `puiseux_expand`): the least starting
# budget, in x-units of the chain, and the doublings tried before a chain runs
# untruncated.
_BUDGET0 = 8
_DOUBLINGS = 3


class PuiseuxError(ValueError):
    pass


class InsufficientDepthError(PuiseuxError):
    """Raised when a comparison would need terms beyond the computed order."""


@dataclass(frozen=True)
class PuiseuxBranch:
    """One branch: x = t^n, y = sum over terms of c * t^(n * exponent)."""

    n: int
    terms: tuple[tuple[Fraction, complex], ...]  # ascending exponents (in x-units)
    char_exponents: tuple[int, ...]  # (beta0; beta1, ..., beta_g)
    genus: int
    semigroup: tuple[int, ...] | None
    reached: Fraction | None  # terms are complete strictly below this x-order; None = exact

    def class_key(self):
        if self.genus == 0:
            return (1,)
        return tuple(self.semigroup[:2])


@dataclass
class _Raw:
    terms: list[tuple[Fraction, complex]]
    mult: int
    reached: Fraction | None


def _series_numerators(f: PlaneSeries) -> tuple[dict[tuple[int, int], int], int]:
    """A concrete series's integer numerators over its one positive
    denominator, its `curves._IntegerTerms` itself, with no copy, no
    `Fraction` and no `MPoly`; the expansion only reads them."""
    if not f.is_concrete():
        raise PuiseuxError("expansion needs a concrete series over the rationals")
    return f.terms.nums, f.terms.den


def _compact_sides(p: dict):
    """Compact sides of the Newton polygon of the support, steepest first,
    each as (its support points from the high-j end down, nbar, mbar)."""
    low: dict[int, int] = {}  # lowest j at each i
    for (i, j) in p:
        if j < low.get(i, j + 1):
            low[i] = j
    # lower hull along the staircase of dominance-minimal points; a middle
    # point on or above the chord of its neighbours is not a vertex
    hull: list[tuple[int, int]] = []
    for i in sorted(low):
        j = low[i]
        if hull and j >= hull[-1][1]:
            continue
        while len(hull) >= 2:
            (i0, j0), (i1, j1) = hull[-2], hull[-1]
            if (i1 - i0) * (j - j0) > (j1 - j0) * (i - i0):
                break
            hull.pop()
        hull.append((i, j))
    out = []
    for (i0, j0), (i1, j1) in zip(hull, hull[1:]):
        d = math.gcd(j0 - j1, i1 - i0)
        nbar, mbar = (j0 - j1) // d, (i1 - i0) // d
        pts = [pt for pt in ((i0 + k * mbar, j0 - k * nbar) for k in range(d + 1)) if pt in p]
        out.append((pts, nbar, mbar))
    return out


def _edge_roots(p: dict, pts, den: int | None):
    """Roots (value, multiplicity) of the associated polynomial of a side,
    given by its support points from the high-j end down.  With `den`, p
    holds the root's integer numerators over den and the multiplicities are
    exact; with None, p holds floats, np.roots finds the roots of any degree,
    one included, and roots within CLUSTER_REL merge into their mean."""
    import numpy as np  # here, so that importing the package does not load numpy

    j0 = pts[-1][1]
    deg = pts[0][1] - j0
    exact = den is not None
    coeffs = [Fraction(0) if exact else 0j] * (deg + 1)
    for (i, j) in pts:
        coeffs[j - j0] = Fraction(p[(i, j)], den) if exact else p[(i, j)]
    if exact:
        out = []
        for fac, mult in qpoly_yun(coeffs):
            if len(fac) == 2:
                roots = [complex(-fac[0] / fac[1])]
            else:
                roots = np.roots([complex(c) for c in reversed(fac)]).tolist()
            out.extend((r, mult) for r in roots)
        return out
    roots = np.roots([complex(c) for c in reversed(coeffs)]).tolist()
    roots.sort(key=lambda z: (z.real, z.imag))
    clusters: list[list[complex]] = []
    for r in roots:
        placed = False
        for cl in clusters:
            ref = cl[0]
            if abs(r - ref) <= CLUSTER_REL * max(1.0, abs(ref)):
                cl.append(r)
                placed = True
                break
        if not placed:
            clusters.append([r])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


@functools.lru_cache(maxsize=64)
def _binomial_rows(jmax: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(math.comb(j, k) for k in range(j + 1)) for j in range(jmax + 1))


def _shift_layout(p: dict, nbar: int, mbar: int) -> list:
    """(coefficient, x-power, j) of each term x^i y^j of p, in p's order, in
    p(x^nbar, x^mbar * (c + y)) / x^vmin for every root c of the side."""
    vmin = min(i * nbar + j * mbar for (i, j) in p)
    return [(coeff, i * nbar + j * mbar - vmin, j) for (i, j), coeff in p.items()]


def _substituted(layout: list, c: complex, budget: int | None = None, decide: bool = False) -> dict:
    """p(x^nbar, x^mbar * (c + y)) divided by the minimal x-power, from the
    `_shift_layout` of p on the side (nbar, mbar) of the root c.

    With a `budget`, only the keys (e, k) with e + k < budget are formed; a
    parent that is complete below its own budget gives each of them every
    contribution, in the same order as the full shift.  With `decide`, only
    those with k <= 1 are: all that decides whether a truncated child that
    ends its chain is a plain separated step.

    A coefficient that is tiny relative to the total magnitude that flowed
    into it is floating-point debris from an exact cancellation and is
    dropped; a coefficient that is small outright but arrived clean is kept.
    A float overflow is reported as a PuiseuxError.
    """
    kept = []  # (coefficient, x-power, j, highest k formed)
    for coeff, xpow, j in layout:
        top = j if budget is None or xpow + j < budget else budget - 1 - xpow
        if top >= 0:
            kept.append((coeff, xpow, j, 1 if decide and top > 1 else top))
    jmax = max((j for _coeff, _xpow, j, _top in kept), default=0)
    rows = _binomial_rows(jmax)
    acc: dict[tuple[int, int], list] = {}  # key -> [sum, sum of magnitudes]
    try:
        cpow = [c ** e for e in range(jmax + 1)]
        for coeff, xpow, j, top in kept:
            row = rows[j]
            for k in range(top + 1):
                val = coeff * row[k] * cpow[j - k]
                s = acc.get((xpow, k))
                if s is None:
                    acc[xpow, k] = [0j + val, abs(val)]
                else:
                    s[0] += val
                    s[1] += abs(val)
        out = {key: v for key, (v, mag) in acc.items() if v != 0 and abs(v) > DROP_ACC * mag}
    except OverflowError as exc:
        raise PuiseuxError("coefficient magnitudes overflowed; request a smaller order") from exc
    if (0, 0) in out:
        raise PuiseuxError("substituted root does not vanish on the side; tolerance failure")
    return out


def puiseux_expand(f: PlaneSeries, depth: int | None = 0,
                   min_order: Fraction | int | None = None) -> list[tuple[PuiseuxBranch, int]]:
    """All branches at the origin, grouped up to conjugacy, with multiplicities.

    `depth` adds polygon iterations past the point where a branch separates;
    by default each branch runs 2n extra steps, which is more than enough for
    the characteristic data (no new ramification can appear after separation).
    `depth=None` runs none: each branch ends at its separating term, where
    its characteristic exponents are all known and it differs from every
    other branch, and its `reached` is one x-unit 1/n past that term.
    `min_order` makes every branch's terms complete below that x-order.
    """
    if f.is_zero():
        raise PuiseuxError("cannot expand the zero series")
    p0, den = _series_numerators(f)
    xval = min(i for (i, _j) in p0)
    if xval > 0:  # divide out the x-axis component; it carries no y-branch
        p0 = {(i - xval, j): c for (i, j), c in p0.items()}
    if (0, 0) in p0:
        raise PuiseuxError("series does not vanish at the origin")
    if all(j == 0 for (_i, j) in p0):
        raise PuiseuxError("series has no y-dependence")
    weier_deg = min(j for (i, j) in p0 if i == 0)
    min_order = Fraction(min_order) if min_order is not None else Fraction(0)

    raws: list[_Raw] = []
    # A stack node is (p, u, offset, terms, post_sep, shift, budget, chain);
    # only the root has no terms, and only its coefficients are exact.  With a
    # shift c, p is its parent's `_shift_layout` on the side of the simple root
    # c, the node is the not yet computed shift, a child that c separates, and
    # `budget` bounds the keys that substitution forms (None: all of them).
    # `chain` is (first node, step count when it was popped, budgets left),
    # or None outside a separated chain.  A chain node with budget L holds
    # exactly the keys (i, j) with i + j < L that the full node holds, with
    # identical values.  The chain's first node has the starting budget; every
    # later one is the child of a plain separated step, whose single side
    # (0,1)-(i*,0) has nbar = 1, keeps the x-unit u and gives its child budget
    # L - i*.  Keys at or past the budget never decide a step: with j >= 1 they
    # are dominated by (0,1), with j = 0 they lie right of the known bottom
    # vertex.  A truncated node that is not a plain separated step ((0,1) or
    # every y^0 term missing from its known keys, as a budget of 1 or less
    # always makes it) restarts the chain from its first node with the next
    # budget; only the attempt that goes on counts its steps.
    stack = [(p0, Fraction(1), Fraction(0), [], 0, None, None, None)]
    steps = 0
    while stack:
        node = stack.pop()
        p, u, offset, terms, post_sep, shift, budget, chain = node
        done = _chain_done(u, offset, post_sep, depth, min_order)
        if shift is not None:
            if chain is None:
                later = iter(_chain_budgets(u, offset, post_sep, depth, min_order))
                budget, chain = next(later, None), (node, steps, later)
            p = _substituted(p, shift, budget, done and budget is not None)
            if (0, 1) not in p or all(j > 0 for (_i, j) in p):  # not a plain separated step
                if budget is not None:
                    first, steps, later = chain
                    stack.append(first[:6] + (next(later, None), chain))
                    continue
                chain = None
        steps += 1
        if steps > _MAX_STEPS:
            raise PuiseuxError("expansion exceeded the step budget")
        if chain is None:  # else a plain separated step: a y^0 term, y and no constant
            jmin = min(j for (_i, j) in p)
            if jmin > 0:
                raws.append(_Raw(terms=list(terms), mult=jmin, reached=None))
                p = {(i, j - jmin): c for (i, j), c in p.items()}
            if all(j == 0 for (_i, j) in p):
                continue
            if (0, 0) in p:
                continue  # unit times x-powers: no branch through the origin left
        separated = (0, 1) in p
        if separated and done:
            raws.append(_Raw(terms=list(terms), mult=1, reached=offset + u))
            continue
        sides = ((nbar, mbar, _edge_roots(p, pts, None if terms else den))
                 for pts, nbar, mbar in _compact_sides(p))
        # the root's numerators become floats once; int true division rounds
        # correctly, so each is the float of its Fraction
        cp = p if terms else {pt: complex(num / den) for pt, num in p.items()}
        for nbar, mbar, roots in sides:
            layout = _shift_layout(cp, nbar, mbar)
            for c, mult in roots:
                new_u = u if nbar == 1 else u / nbar
                new_offset = offset + u * Fraction(mbar, nbar)
                new_terms = terms + [(new_offset, complex(c))]
                new_post_sep = post_sep + 1 if separated else 0
                if mult == 1:  # separates; a plain separated step hands on its chain
                    stack.append((layout, new_u, new_offset, new_terms, new_post_sep, c,
                                  None if budget is None else budget - mbar, chain))
                else:
                    stack.append((_substituted(layout, c), new_u, new_offset, new_terms,
                                  new_post_sep, None, None, None))
    total = sum(r.mult for r in raws)
    if total != weier_deg:
        raise PuiseuxError(f"expansion count {total} does not match the y-order {weier_deg}")
    branches = _group_conjugates(raws)
    return branches


def _tail(u: Fraction, depth: int | None) -> int:
    """Steps a separated branch runs past separation: none for depth None,
    else at least twice its ramification."""
    return 0 if depth is None else max(2 * u.denominator, depth)


def _chain_done(u: Fraction, offset: Fraction, post_sep: int, depth: int | None,
                min_order: Fraction) -> bool:
    return post_sep >= _tail(u, depth) and offset >= min_order


def _chain_budgets(u: Fraction, offset: Fraction, post_sep: int, depth: int | None,
                   min_order: Fraction):
    """Truncation budgets a chain tries in turn before it runs untruncated,
    each doubled only when the chain restarts.

    Each step advances the chain by one x-unit or more, and the last node
    needs a budget of 2 to hold (0,1) and a y^0 term (1,0); the first budget
    covers that, and each later one doubles it.
    """
    advance = _tail(u, depth) - post_sep
    if offset < min_order:
        advance = max(advance, math.ceil((min_order - offset) / u))
    first = max(_BUDGET0, advance + 2)
    return (first << k for k in range(_DOUBLINGS + 1))


def _conjugate_terms(terms, n: int, k: int):
    w = cmath.exp(2j * cmath.pi * k / n)
    return [(e, c * w ** (e.numerator * (n // e.denominator))) for (e, c) in terms]


def _terms_close(t1, t2) -> bool:
    """The coefficients agree; the caller has already matched the exponents."""
    for (_e1, c1), (_e2, c2) in zip(t1, t2):
        if abs(c1 - c2) > COEFF_REL * max(1.0, abs(c1), abs(c2)):
            return False
    return True


def _group_conjugates(raws: list[_Raw]) -> list[tuple[PuiseuxBranch, int]]:
    used = [False] * len(raws)
    out: list[tuple[PuiseuxBranch, int]] = []
    for idx, raw in enumerate(raws):
        if used[idx]:
            continue
        n = math.lcm(*[e.denominator for (e, _c) in raw.terms])
        members = [idx]
        for jdx in range(idx + 1, len(raws)):
            if used[jdx]:
                continue
            other = raws[jdx]
            if other.mult != raw.mult:
                continue
            if [e for e, _ in other.terms] != [e for e, _ in raw.terms]:
                continue
            if any(_terms_close(other.terms, _conjugate_terms(raw.terms, n, k)) for k in range(n)):
                members.append(jdx)
                used[jdx] = True
        used[idx] = True
        if len(members) != n:
            raise PuiseuxError(
                f"conjugacy class size {len(members)} does not match ramification {n}"
            )
        rep = min((raws[m] for m in members),
                  key=lambda r: [(float(e), round(cmath.phase(c), 9) % (2 * math.pi), abs(c))
                                 for (e, c) in r.terms])
        reached = None
        for m in members:
            r = raws[m].reached
            if r is not None:
                reached = r if reached is None else min(reached, r)
        char = _char_exponents(rep.terms, n)
        genus = len(char) - 1
        semi = semigroup_from_char(char)
        out.append((PuiseuxBranch(n=n, terms=tuple(rep.terms), char_exponents=char,
                                  genus=genus, semigroup=semi, reached=reached), raw.mult))
    out.sort(key=lambda bm: (bm[0].n, [float(e) for e, _ in bm[0].terms[:1]],
                             [round(cmath.phase(c), 6) for _, c in bm[0].terms[:1]]))
    return out


def _char_exponents(terms, n: int) -> tuple[int, ...]:
    lam = sorted({int(e * n) for (e, _c) in terms})
    if lam and lam[0] < n:
        # branch tangent to the vertical axis: its y-order is below its
        # x-order, so the standard characteristic reading does not apply
        if lam[0] == 1:
            return (1,)  # multiplicity one: smooth regardless of orientation
        raise PuiseuxError(
            "singular branch tangent to the vertical axis; expand the series "
            "with x and y exchanged to read its characteristic exponents"
        )
    chars = [n]
    e = n
    for l in lam:
        if e == 1:
            break
        if l % e != 0:
            chars.append(l)
            e = math.gcd(e, l)
    assert e == 1 or not terms, "exponent gcd chain must reach 1"
    return tuple(chars)


def semigroup_from_char(char) -> tuple[int, ...]:
    """Minimal semigroup generators from the characteristic sequence."""
    ch = [int(c) for c in char]
    if not ch or ch[0] < 1:
        raise PuiseuxError("invalid characteristic sequence")
    if len(ch) == 1:
        if ch[0] != 1:
            raise PuiseuxError("a singular branch needs at least one characteristic exponent")
        return (1,)
    if any(ch[k] >= ch[k + 1] for k in range(len(ch) - 1)):
        raise PuiseuxError("characteristic exponents must increase strictly")
    e = [ch[0]]
    for b in ch[1:]:
        e.append(math.gcd(e[-1], b))
        if e[-1] == e[-2]:
            raise PuiseuxError("each characteristic exponent must drop the gcd chain")
    if e[-1] != 1:
        raise PuiseuxError("characteristic exponents must be globally coprime")
    v = [ch[0], ch[1]]
    for k in range(1, len(ch) - 1):
        v.append((e[k - 1] // e[k]) * v[k] + ch[k + 1] - ch[k])
    return tuple(v)


def intersection_numeric(b1: PuiseuxBranch, b2: PuiseuxBranch, tol: float = COEFF_REL) -> int:
    """Intersection number of two distinct branches from their parametrizations.

    Sums, over the conjugates of the second branch, the contact order with
    the first, and scales by the first ramification index.  Raises when the
    computed terms cannot separate a pair of conjugates.
    """
    limit_candidates = [r for r in (b1.reached, b2.reached) if r is not None]
    limit = min(limit_candidates) if limit_candidates else None
    unit = math.lcm(b1.n, b2.n)  # exponents below are integers, in x-units / unit

    def scaled(terms) -> dict[int, complex]:
        return {e.numerator * (unit // e.denominator): c for (e, c) in terms}

    total = 0
    t1 = scaled(b1.terms)
    for k in range(b2.n):
        t2 = scaled(_conjugate_terms(b2.terms, b2.n, k))
        contact = None
        for e in sorted(t1.keys() | t2.keys()):
            c1 = t1.get(e, 0j)
            c2 = t2.get(e, 0j)
            if abs(c1 - c2) > tol * max(1.0, abs(c1), abs(c2)):
                contact = e
                break
        if contact is None or (limit is not None and contact >= limit * unit):
            raise InsufficientDepthError(
                "contact order not resolved by the computed terms; expand deeper"
            )
        total += contact
    value = Fraction(total * b1.n, unit)
    if value.denominator != 1:
        raise PuiseuxError(f"intersection number came out fractional: {value}")
    return int(value)

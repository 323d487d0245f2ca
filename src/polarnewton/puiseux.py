"""Numeric Newton-Puiseux expansion of concrete plane-curve polynomials.

Branches through the origin are developed side by side on successive Newton
polygons.  Every x-order is an exact integer over L = lcm(1..d), d the
y-order, since each ramification divides some branch's, at most d; it
becomes a Fraction only in the finished branches.  Coefficients start as
integer numerators over one denominator, and the first level reads its side
roots and their exact multiplicities from them (see `_edge_roots`); they
become complex floats once per expansion, and a shift's x-powers and
coefficients are laid out once per side for all its roots.  Deeper levels
cluster roots with a relative tolerance.

One loop walks every node.  A simple edge root separates its branch: the
substituted node holds the term y, and the rest of the branch is a chain of
steps on the single side (0,1)-(i*,0).  Along that chain a term x^i y^j can
only reach coefficients the chain still reads if i + j is below a budget
that each step lowers by i*, so every chain node carries its budget and its
substitution, the separating one included, forms only those terms; each
coefficient it keeps is the float the full substitution gives.  A chain's
last truncated node is decided, not formed: its constant term must vanish,
then its term y and its y^0 terms in rising x-power up to the first that
survives are summed as the full substitution sums them, so the decision is
the full one's.  A decision the kept terms cannot settle (no y^0 term or no
y term left, as when the budget is spent or the branch is exact) restarts
the chain once, from its first node, untruncated.
Every node, a chain step included, reads its sides from newton's one
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

from .algebra import certify_squarefree, qpoly_yun
from .curves import PlaneSeries
from .newton import newton_polygon_from_points

DROP_ACC = 1e-9  # cancellation cutoff relative to accumulated contributions
# Root clustering must merge the numeric splitting of an exact multiple root,
# which is about sqrt(machine epsilon) ~ 1.5e-8 for a double root, so the
# radius sits two decades above that and well below genuine separations.
CLUSTER_REL = 1e-6
COEFF_REL = 1e-8  # relative tolerance for coefficient comparisons

_MAX_STEPS = 4000
# Truncation of separated chains (see `puiseux_expand`): the least budget, in
# x-units of the chain, of a chain's one truncated attempt.
_BUDGET0 = 8
_OVERFLOWED = "coefficient magnitudes overflowed; request a smaller order"
_NOT_A_ROOT = "substituted root does not vanish on the side; tolerance failure"


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
class _Raw:  # x-orders are integers over the expansion's denominator L
    terms: list[tuple[int, complex]]
    mult: int
    reached: int | None


def _compact_sides(p: dict):
    """Compact sides of the Newton polygon of the support, steepest first,
    each as (its support points from the high-j end down, nbar, mbar)."""
    return [([pt for pt in side.lattice_points if pt in p], side.n // side.d, side.m // side.d)
            for side in newton_polygon_from_points(p).sides]


def _edge_roots(p: dict, pts, den: int | None):
    """Roots (value, multiplicity) of the associated polynomial of a side,
    given by its support points from the high-j end down.  With `den`, p
    holds integer numerators (over den) and the multiplicities are exact: a
    linear side's root is -c0/c1, a side `certify_squarefree` proves
    squarefree has simple roots from np.roots of its numerators over the
    leading one, each the float of its monic coefficient, and any other side
    is decomposed by `qpoly_yun`.  With None, p holds floats, np.roots finds
    the roots of any degree, one included, and roots within CLUSTER_REL
    merge into their mean."""
    import numpy as np  # here, so that importing the package does not load numpy

    j0 = pts[-1][1]
    deg = pts[0][1] - j0
    exact = den is not None
    coeffs = [0 if exact else 0j] * (deg + 1)
    for (i, j) in pts:
        coeffs[j - j0] = p[(i, j)]
    if exact:
        if deg == 1:
            return [(complex(-coeffs[0] / coeffs[1]), 1)]
        if certify_squarefree(coeffs):
            lead = coeffs[-1]
            # a zero stays 0j: 0 / lead is -0.0 when lead < 0
            monic = [complex(c / lead) if c else 0j for c in reversed(coeffs)]
            return [(r, 1) for r in np.roots(monic).tolist()]
        out = []
        for fac, mult in qpoly_yun([Fraction(c, den) for c in coeffs]):
            if len(fac) == 2:
                roots = [complex(-fac[0])]  # the factor is monic
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


def _substituted(layout: list, c: complex, budget: int | None = None) -> dict:
    """p(x^nbar, x^mbar * (c + y)) divided by the minimal x-power, from the
    `_shift_layout` of p on the side (nbar, mbar) of the root c.

    With a `budget`, only the keys (e, k) with e + k < budget are formed; a
    parent that is complete below its own budget gives each of them every
    contribution, in the same order as the full shift.

    A coefficient that is tiny relative to the total magnitude that flowed
    into it is floating-point debris from an exact cancellation and is
    dropped; a coefficient that is small outright but arrived clean is kept.
    A float overflow is reported as a PuiseuxError.
    """
    kept = []  # (coefficient, x-power, j, highest k formed)
    for coeff, xpow, j in layout:
        top = j if budget is None or xpow + j < budget else budget - 1 - xpow
        if top >= 0:
            kept.append((coeff, xpow, j, top))
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
        raise PuiseuxError(_OVERFLOWED) from exc
    if (0, 0) in out:
        raise PuiseuxError(_NOT_A_ROOT)
    return out


def _separates(layout: list, c: complex, budget: int, low: dict) -> bool:
    """Whether `_substituted(layout, c, budget)` holds (0, 1) and a y^0
    term, a plain separated step.  It forms only (0, 0), which raises if it
    survives, (0, 1) and (e, 0) for rising e < budget up to the first that
    survives, each summed as the full shift sums it.  `low` keeps, for one
    expansion, the layout's terms below each budget grouped by x-power; an
    entry holds its layout, so that no other layout takes its id.
    """
    key = (id(layout), budget)
    if key not in low:
        by_xpow: dict[int, list] = {}
        jmax = 0
        for coeff, xpow, j in layout:
            if xpow < budget:
                by_xpow.setdefault(xpow, []).append((coeff, j))
                jmax = max(jmax, j)
        low[key] = layout, jmax, by_xpow.pop(0, []), sorted(by_xpow.items())
    _layout, jmax, bottom, rest = low[key]
    rows = _binomial_rows(jmax)

    def survives(terms, k):
        s = None
        for coeff, j in terms:
            if j >= k:
                val = coeff * rows[j][k] * cpow[j - k]
                if s is None:
                    s, mag = 0j + val, abs(val)
                else:
                    s += val
                    mag += abs(val)
        return s is not None and s != 0 and abs(s) > DROP_ACC * mag

    try:
        cpow = [c ** e for e in range(jmax + 1)]
        if survives(bottom, 0):
            raise PuiseuxError(_NOT_A_ROOT)
        return survives(bottom, 1) and any(survives(terms, 0) for _e, terms in rest)
    except OverflowError as exc:
        raise PuiseuxError(_OVERFLOWED) from exc


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
    if not f.is_concrete():
        raise PuiseuxError("expansion needs a concrete series over the rationals")
    p0, den = f.terms.nums, f.terms.den  # read only, never copied
    if (0, 0) in p0:
        raise PuiseuxError("series does not vanish at the origin")
    xval = min(i for (i, _j) in p0)
    if xval > 0:  # divide out the x-axis component; it carries no y-branch
        p0 = {(i - xval, j): c for (i, j), c in p0.items()}
    if all(j == 0 for (_i, j) in p0):
        raise PuiseuxError("series has no y-dependence")
    if (0, 0) in p0:
        raise PuiseuxError("no branch other than x = 0 passes through the origin")
    weier_deg = min(j for (i, j) in p0 if i == 0)
    # every node's ramification divides some branch's, at most weier_deg, so
    # the x-unit u and every x-order are integers over L
    L = math.lcm(*range(1, weier_deg + 1))
    least = 0 if min_order is None else math.ceil(Fraction(min_order) * L)

    raws: list[_Raw] = []
    # A stack node is (p, u, offset, terms, post_sep, shift, budget, chain);
    # only the root has no terms, and only its coefficients are exact.  With a
    # shift c, p is its parent's `_shift_layout` on the side of the simple root
    # c, the node is the not yet computed shift, a child that c separates, and
    # `budget` bounds the keys that substitution forms (None: all of them).
    # `chain` is (first node, step count when it was popped), or None outside
    # a separated chain.  A chain node with budget B holds exactly the keys
    # (i, j) with i + j < B that the full node holds, with identical values.
    # The chain's first node has the `_chain_budget`; every later one is the
    # child of a plain separated step, whose single side (0,1)-(i*,0) has
    # nbar = 1, keeps the x-unit u and gives its child budget B - i*.  Keys at
    # or past the budget never decide a step: with j >= 1 they are dominated
    # by (0,1), with j = 0 they lie right of the known bottom vertex.  A
    # truncated node that is not a plain separated step ((0,1) or every y^0
    # term missing from its known keys, as a budget of 1 or less always makes
    # it) restarts the chain from its first node untruncated; only the
    # attempt that goes on counts its steps.
    stack = [(p0, L, 0, [], 0, None, None, None)]
    steps = 0
    low: dict = {}  # `_separates`' grouped layouts
    while stack:
        node = stack.pop()
        p, u, offset, terms, post_sep, shift, budget, chain = node
        # steps left before a separated branch may end: none for depth None,
        # else at least twice its ramification L // u
        left = (0 if depth is None else max(2 * (L // u), depth)) - post_sep
        done = left <= 0 and offset >= least
        if shift is not None:
            if chain is None:
                budget, chain = _chain_budget(u, offset, left, least), (node, steps)
            if done and budget is not None:  # the chain's last node: only its decision
                plain = _separates(p, shift, budget, low)
            else:
                p = _substituted(p, shift, budget)
                plain = (0, 1) in p and any(j == 0 for (_i, j) in p)
            if not plain:  # not a plain separated step
                if budget is not None:
                    first, steps = chain
                    stack.append(first[:6] + (None, chain))
                    continue
                chain = None
        steps += 1
        if steps > _MAX_STEPS:
            raise PuiseuxError("expansion exceeded the step budget")
        split = False  # an exact branch splits off here
        if chain is None:  # else a plain separated step: a y^0 term, y and no constant
            jmin = min(j for (_i, j) in p)
            if jmin > 0:
                raws.append(_Raw(terms=list(terms), mult=jmin, reached=None))
                p = {(i, j - jmin): c for (i, j), c in p.items()}
                split = True
            if all(j == 0 for (_i, j) in p):
                continue
            if (0, 0) in p:
                continue  # unit times x-powers: no branch through the origin left
        separated = chain is not None or (0, 1) in p
        if separated and done and not split:  # else it still has the exact branch's terms
            raws.append(_Raw(terms=list(terms), mult=1, reached=offset + u))
            continue
        sides = ((nbar, mbar, _edge_roots(p, pts, None if terms else den))
                 for pts, nbar, mbar in _compact_sides(p))
        # the root's numerators become floats once; int true division rounds
        # correctly, so each is the float of its Fraction
        cp = p if terms else {pt: complex(num / den) for pt, num in p.items()}
        for nbar, mbar, roots in sides:
            layout = _shift_layout(cp, nbar, mbar)
            new_u, rest = divmod(u, nbar)
            if rest:
                raise PuiseuxError(f"ramification {L // u * nbar} does not divide {L}")
            new_offset = offset + new_u * mbar
            new_post_sep = post_sep + 1 if separated else 0
            new_budget = None if budget is None else budget - mbar
            for c, mult in roots:
                new_terms = terms + [(new_offset, complex(c))]
                if mult == 1:  # separates; a plain separated step hands on its chain
                    stack.append((layout, new_u, new_offset, new_terms, new_post_sep, c, new_budget, chain))
                else:
                    stack.append((_substituted(layout, c), new_u, new_offset, new_terms,
                                  new_post_sep, None, None, None))
    total = sum(r.mult for r in raws)
    if total != weier_deg:
        raise PuiseuxError(f"expansion count {total} does not match the y-order {weier_deg}")
    return _group_conjugates(raws, L)


def _chain_budget(u: int, offset: int, left: int, least: int) -> int:
    """The budget of a chain's one truncated attempt, at least _BUDGET0.

    Each step advances the chain by one x-unit u or more, so `left` steps
    and ceil((least - offset) / u) steps reach its end, and the last node
    needs a budget of 2 to hold (0,1) and a y^0 term (1,0).
    """
    return max(_BUDGET0, left + 2, 2 - (offset - least) // u)


def _conjugate_terms(terms, den: int, n: int, k: int):
    """The k-th conjugate, t -> w^k t with w = exp(2 pi i / n), of terms
    whose x-orders are integers over den and have denominators dividing n."""
    w = cmath.exp(2j * cmath.pi * k / n)
    return [(e, c * w ** (e * n // den)) for (e, c) in terms]


def _terms_close(t1, t2) -> bool:
    """The coefficients agree; the caller has already matched the exponents."""
    for (_e1, c1), (_e2, c2) in zip(t1, t2):
        if abs(c1 - c2) > COEFF_REL * max(1.0, abs(c1), abs(c2)):
            return False
    return True


def _group_conjugates(raws: list[_Raw], L: int) -> list[tuple[PuiseuxBranch, int]]:
    """Conjugacy classes of the raws, whose x-orders are integers over L;
    only here do the x-orders become Fractions."""
    used = [False] * len(raws)
    out: list[tuple[PuiseuxBranch, int]] = []
    for idx, raw in enumerate(raws):
        if used[idx]:
            continue
        n = math.lcm(*[L // math.gcd(e, L) for (e, _c) in raw.terms])
        exps = [e for e, _ in raw.terms]
        rotations = [_conjugate_terms(raw.terms, L, n, k) for k in range(n)]
        members = [idx]
        for jdx in range(idx + 1, len(raws)):
            if used[jdx]:
                continue
            other = raws[jdx]
            if other.mult != raw.mult:
                continue
            if [e for e, _ in other.terms] != exps:
                continue
            if any(_terms_close(other.terms, rotation) for rotation in rotations):
                members.append(jdx)
                used[jdx] = True
        used[idx] = True
        if len(members) != n:
            raise PuiseuxError(
                f"conjugacy class size {len(members)} does not match ramification {n}"
            )
        # the members share their exponents, so their coefficients decide
        rep = min((raws[m].terms for m in members),
                  key=lambda terms: [(round(cmath.phase(c), 9) % (2 * math.pi), abs(c))
                                     for (_e, c) in terms])
        reached = min((r for m in members if (r := raws[m].reached) is not None), default=None)
        char = _char_exponents(rep, n, L)
        out.append((PuiseuxBranch(n=n, terms=tuple((Fraction(e, L), c) for e, c in rep),
                                  char_exponents=char, genus=len(char) - 1,
                                  semigroup=semigroup_from_char(char),
                                  reached=None if reached is None else Fraction(reached, L)), raw.mult))
    out.sort(key=lambda bm: (bm[0].n, [float(e) for e, _ in bm[0].terms[:1]],
                             [round(cmath.phase(c), 6) for _, c in bm[0].terms[:1]]))
    return out


def _char_exponents(terms, n: int, L: int) -> tuple[int, ...]:
    lam = sorted({e * n // L for (e, _c) in terms})
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
    limit = min((r for r in (b1.reached, b2.reached) if r is not None), default=None)
    unit = math.lcm(b1.n, b2.n)  # exponents below are integers, in x-units / unit

    def scaled(terms) -> list[tuple[int, complex]]:
        return [(e.numerator * (unit // e.denominator), c) for (e, c) in terms]

    total = 0
    t1 = dict(scaled(b1.terms))
    s2 = scaled(b2.terms)
    for k in range(b2.n):
        t2 = dict(_conjugate_terms(s2, unit, b2.n, k))
        contact = None
        for e in sorted(t1.keys() | t2.keys()):
            c1 = t1.get(e, 0j)
            c2 = t2.get(e, 0j)
            if abs(c1 - c2) > tol * max(1.0, abs(c1), abs(c2)):
                contact = e
                break
        if contact is None or (limit is not None
                               and contact * limit.denominator >= limit.numerator * unit):
            raise InsufficientDepthError(
                "contact order not resolved by the computed terms; expand deeper"
            )
        total += contact
    value, rest = divmod(total * b1.n, unit)
    if rest:
        raise PuiseuxError(f"intersection number came out fractional: {Fraction(total * b1.n, unit)}")
    return value

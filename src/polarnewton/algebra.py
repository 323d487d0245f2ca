"""Exact computer-algebra kernel.

Coefficients are `fractions.Fraction` throughout and nothing in this module
rounds.  Multivariate polynomials are sparse maps from monomials to nonzero
rationals; univariate polynomials in z over that ring (`UPoly`) get a dense
layout, which is what the discriminant's determinant wants.  Evaluation at a
rational point is exact too: it sums an integer numerator over one common
denominator and normalises once, and a product with a constant scales the
coefficients without the monomial merge.  `IntegerPlan` compiles a sequence of
polynomials once for the many points of a sampling run and evaluates them
over integers only, at a point kept over integers (`IntegerPoint`) without
a `Fraction`.  `discriminant` over `MPoly` and `integer_discriminant` over
int take one division-free determinant of the same matrix.  There is no
multivariate gcd: the locus listing only strips monomial factors and the
rational content of a condition (`strip_content`).

The variable alphabet is closed: x, y, z, the two pencil parameters a, b, and
the doubly indexed family coefficients a[i,j], b[i,j].
"""

from __future__ import annotations

import heapq
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AlgebraError",
    "Var",
    "X",
    "Y",
    "Z",
    "A",
    "B",
    "avar",
    "bvar",
    "MPoly",
    "IntegerPoint",
    "IntegerPlan",
    "common_denominator",
    "UPoly",
    "discriminant",
    "integer_discriminant",
    "nonzero_discriminant",
    "deflate",
    "certify_squarefree",
    "squarefree_info",
    "strip_content",
    "qpoly_gcd",
    "qpoly_yun",
]

# Render/sort order: pencil and family coefficients first, geometry last.
_KIND_ORDER = {"a": 0, "b": 1, "aij": 2, "bij": 3, "x": 4, "y": 5, "z": 6}
_INDEXED = ("aij", "bij")


class AlgebraError(ValueError):
    """Raised on domain errors in the exact kernel."""


@dataclass(frozen=True)
class Var:
    """An indeterminate from the closed alphabet.

    Equality is by name; the total order is lexicographic on (kind, i, j),
    which keeps printing deterministic.  The sort key and hash are hot paths
    of the polynomial arithmetic, so both are precomputed.
    """

    kind: str
    i: int = -1
    j: int = -1

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise AlgebraError(f"unknown variable kind {self.kind!r}")
        if self.kind in _INDEXED:
            if self.i < 0 or self.j < 0:
                raise AlgebraError("indexed variables need i, j >= 0")
        elif (self.i, self.j) != (-1, -1):
            raise AlgebraError(f"variable {self.kind!r} takes no indices")
        key = (_KIND_ORDER[self.kind], self.i, self.j)
        object.__setattr__(self, "sort_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash

    @property
    def name(self) -> str:
        if self.kind in _INDEXED:
            return f"{self.kind[0]}[{self.i},{self.j}]"
        return self.kind

    def __lt__(self, other: "Var") -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        return self.name


X = Var("x")
Y = Var("y")
Z = Var("z")
A = Var("a")
B = Var("b")


def avar(i: int, j: int) -> Var:
    return Var("aij", i, j)


def bvar(i: int, j: int) -> Var:
    return Var("bij", i, j)


# A monomial is a tuple of (Var, exponent) pairs, sorted by variable, with
# strictly positive exponents.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        k1, k2 = v1.sort_key, v2.sort_key
        if k1 == k2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_deg(m: Mono) -> int:
    return sum(e for _, e in m)


def _mono_div(m1: Mono, m2: Mono) -> Mono | None:
    """m1 / m2, or None when not divisible."""
    out = dict(m1)
    for v, e in m2:
        r = out.get(v, 0) - e
        if r < 0:
            return None
        if r == 0:
            out.pop(v, None)
        else:
            out[v] = r
    return tuple(sorted(out.items(), key=lambda ve: ve[0].sort_key))


# Graded lexicographic order over the Var order, as a flat sortable key:
# total degree first, then (negated var rank, exponent) for each variable.
# At equal degree no key can be a strict prefix of another, so plain tuple
# comparison realizes the lexicographic rule "a positive exponent on an
# earlier variable wins", and negating every entry reverses the order.
def _MONO_KEY(m: Mono) -> tuple:
    key = [_mono_deg(m)]
    for v, e in m:
        r0, r1, r2 = v.sort_key
        key += (-r0, -r1, -r2, e)
    return tuple(key)


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    return Fraction(math.gcd(a.numerator, b.numerator), math.lcm(a.denominator, b.denominator))


class MPoly:
    """Sparse multivariate polynomial with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Mono, Fraction] | None = None):
        self._terms: dict[Mono, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = Fraction(c)
                if c != 0:
                    self._terms[m] = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def _wrap(cls, terms: dict[Mono, Fraction]) -> "MPoly":
        """The polynomial on a map of nonzero Fractions, taken without a copy."""
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "MPoly":
        if not isinstance(c, Fraction):
            c = Fraction(c)
        return cls._wrap({(): c} if c else {})

    @classmethod
    def var(cls, v: Var, e: int = 1) -> "MPoly":
        if e < 0:
            raise AlgebraError("negative exponent")
        if e == 0:
            return cls.const(1)
        return cls({((v, e),): Fraction(1)})

    @classmethod
    def monomial(cls, coeff, powers: Mapping[Var, int]) -> "MPoly":
        mono = tuple(sorted(((v, e) for v, e in powers.items() if e), key=lambda ve: ve[0].sort_key))
        if any(e < 0 for _, e in mono):
            raise AlgebraError("negative exponent")
        return cls({mono: Fraction(coeff)})

    # -- queries -----------------------------------------------------------

    @property
    def terms(self) -> dict[Mono, Fraction]:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and () in self._terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise AlgebraError("not a constant polynomial")
        return self._terms[()]

    def variables(self) -> frozenset[Var]:
        out = set()
        for m in self._terms:
            for v, _ in m:
                out.add(v)
        return frozenset(out)

    def min_degree_in(self, v: Var) -> int:
        if not self._terms:
            return 0
        best = None
        for m in self._terms:
            e = 0
            for w, ee in m:
                if w == v:
                    e = ee
            best = e if best is None else min(best, e)
        return best or 0

    def total_degree(self) -> int:
        return max((_mono_deg(m) for m in self._terms), default=0)

    def leading(self) -> tuple[Mono, Fraction]:
        if not self._terms:
            raise AlgebraError("zero polynomial has no leading term")
        m = max(self._terms, key=_MONO_KEY)
        return m, self._terms[m]

    # -- ring operations ----------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, MPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MPoly.const(other)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in o._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return MPoly._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._wrap({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    def _scaled(self, c: int | Fraction) -> "MPoly":
        """self * c for a rational c: no monomial merge, no zero seeds."""
        return MPoly._wrap({m: v * c for m, v in self._terms.items()} if c else {})

    def __mul__(self, other):
        if isinstance(other, MPoly):
            if other.is_constant():
                return self._scaled(other._terms.get((), 0))
            if self.is_constant():
                return other._scaled(self._terms.get((), 0))
        elif isinstance(other, (int, Fraction)):
            return self._scaled(other)
        else:
            return NotImplemented
        out: dict[Mono, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        return MPoly._wrap(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("exponent must be a non-negative integer")
        out = MPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- collection ------------------------------------------------------------

    def coefficients_in(self, vars: Sequence[Var]) -> dict[tuple[int, ...], "MPoly"]:
        """Collect by the exponents of `vars`: {exponent-tuple: coefficient}."""
        vs = list(vars)
        out: dict[tuple[int, ...], dict[Mono, Fraction]] = {}
        for m, c in self._terms.items():
            exps = []
            rest = []
            md = dict(m)
            for v in vs:
                exps.append(md.pop(v, 0))
            rest = tuple(sorted(md.items(), key=lambda ve: ve[0].sort_key))
            bucket = out.setdefault(tuple(exps), {})
            bucket[rest] = bucket.get(rest, Fraction(0)) + c
        result = {}
        for k, terms in out.items():
            p = MPoly(terms)
            if not p.is_zero():
                result[k] = p
        return result

    # -- normalization ---------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational content (gcd of the coefficients)."""
        if not self._terms:
            return Fraction(0)
        return reduce(_frac_gcd, (abs(c) for c in self._terms.values()))

    def primitive_normalized(self) -> "MPoly":
        """Divide by the content and make the leading coefficient positive."""
        if self.is_zero():
            return self
        c = self.content()
        _, lead = self.leading()
        if lead < 0:
            c = -c
        return MPoly._wrap({m: v / c for m, v in self._terms.items()})

    def divexact(self, other: "MPoly | Fraction | int") -> "MPoly":
        """Exact division; raises AlgebraError when the quotient is not exact.

        Leading terms are consumed in descending order through a heap, so a
        reduction step costs the divisor size, not the remainder size.
        """
        o = self._coerced(other)
        if o is None or o.is_zero():
            raise AlgebraError("division by zero polynomial")
        if o.is_constant():
            c = o.constant_value()
            return MPoly._wrap({m: v / c for m, v in self._terms.items()})
        rem = dict(self._terms)
        out: dict[Mono, Fraction] = {}
        gm, gc = o.leading()
        rest = [(m2, c2) for m2, c2 in o._terms.items() if m2 != gm]
        def neg_key(m: Mono) -> tuple:
            return tuple([-k for k in _MONO_KEY(m)])

        heap = [(neg_key(m), m) for m in rem]
        heapq.heapify(heap)
        while heap:
            _, rm = heapq.heappop(heap)
            c = rem.pop(rm, None)
            if c is None:  # stale heap entry
                continue
            qm = _mono_div(rm, gm)
            if qm is None:
                raise AlgebraError("not an exact multiple")
            qc = c / gc
            out[qm] = qc
            for m2, c2 in rest:
                m = _mono_mul(qm, m2)
                if m in rem:
                    s = rem[m] - qc * c2
                    if s == 0:
                        del rem[m]
                    else:
                        rem[m] = s
                else:
                    rem[m] = -qc * c2
                    heapq.heappush(heap, (neg_key(m), m))
        return MPoly._wrap(out)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms in descending graded-lex order."""
        if not self._terms:
            return "0"
        parts = []
        for m in sorted(self._terms, key=_MONO_KEY, reverse=True):
            c = self._terms[m]
            factors = "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in m)
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag}*{factors}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"MPoly({self.render()})"


def common_denominator(values: Iterable[int | Fraction]) -> tuple[list[int], int]:
    """Integer numerators of `values` over their least common denominator,
    in order, and that denominator."""
    values = list(values)
    den = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (den // v.denominator) for v in values], den


class IntegerPoint(Mapping):
    """A rational point over integers: `variables[k]` takes `scaled[k] / m`,
    m > 0.  `IntegerPlan.at` reads the integers; as a mapping the point gives
    each value as a `Fraction`."""

    def __init__(self, variables: tuple[Var, ...], scaled: list[int], m: int):
        self.variables, self.scaled, self.m = variables, scaled, m

    def __getitem__(self, v: Var) -> Fraction:
        if v not in self.variables:
            raise KeyError(v)
        return Fraction(self.scaled[self.variables.index(v)], self.m)

    def __iter__(self):
        return iter(self.variables)

    def __len__(self) -> int:
        return len(self.variables)


class IntegerPlan:
    """Polynomials compiled once for exact evaluation at many points, over
    integers only: coefficients are scaled by `den`, the lcm of their
    denominators, and every term is read as padded to the top total degree
    `degree`, so at values with least common denominator m each polynomial
    is its numerator over den * m^degree, and zero exactly when that
    numerator is.

    The terms are kept flat and split by degree, each naming its polynomial
    `poly` by position: `constant` holds every polynomial's constant term
    (0 where it has none), `linear` holds (poly, c, k) for c * v[k],
    `quadratic` (poly, c, k, l) for c * v[k] * v[l], and `higher` one list
    per degree 3, ..., `degree` of (poly, c, indices), the variable indices
    repeated by exponent.  `at` sums the degree layers by Horner's rule in m,
    so no term multiplies by a power of m.
    """

    __slots__ = ("variables", "den", "degree", "constant", "linear", "quadratic", "higher", "_reads")

    def __init__(self, polys: Iterable[MPoly]):
        maps = [p.terms for p in polys]
        self.variables = tuple(sorted({v for terms in maps for m in terms for v, _ in m}))
        index = {v: k for k, v in enumerate(self.variables)}
        self.den = math.lcm(*[c.denominator for terms in maps for c in terms.values()])
        self.degree = max([_mono_deg(m) for terms in maps for m in terms], default=0)
        constant = [0] * len(maps)
        layers: list[list] = [[] for _ in range(max(self.degree, 2) + 1)]
        for poly, terms in enumerate(maps):
            for m, c in terms.items():
                c = c.numerator * (self.den // c.denominator)
                idx = tuple(index[v] for v, e in m for _ in range(e))
                if not idx:
                    constant[poly] = c
                else:
                    layers[len(idx)].append((poly, c, *idx) if len(idx) <= 2 else (poly, c, idx))
        self.constant = tuple(constant)
        self.linear, self.quadratic = tuple(layers[1]), tuple(layers[2])
        self.higher = tuple(tuple(layer) for layer in layers[3:])
        self._reads = (None, None)  # an `IntegerPoint` order and the plan's positions in it

    def at(self, assignment: Mapping[Var, int | Fraction]) -> tuple[list[int], int]:
        """Every polynomial's numerator at `assignment`, in order, and their
        one positive denominator.  An `IntegerPoint` builds no `Fraction`: it
        is read as it is when its variables are the plan's, else through the
        positions of the plan's variables in its order, fixed when the plan
        first reads that order."""
        try:
            if isinstance(assignment, IntegerPoint):
                scaled, m = assignment.scaled, assignment.m
                if assignment.variables != self.variables:
                    if self._reads[0] is not assignment.variables:
                        index = {v: k for k, v in enumerate(assignment.variables)}
                        self._reads = assignment.variables, [index[v] for v in self.variables]
                    scaled = [scaled[k] for k in self._reads[1]]
            else:
                scaled, m = common_denominator([assignment[v] for v in self.variables])
        except KeyError:
            missing = [v.name for v in self.variables if v not in assignment]
            raise AlgebraError("missing values for: " + ", ".join(missing)) from None
        # Horner in m over the degree layers: each layer's sum is added after
        # the layers below it are multiplied by m
        nums = list(self.constant)
        if self.degree >= 1:
            nums = [num * m for num in nums]
            for poly, c, k in self.linear:
                nums[poly] += c * scaled[k]
        if self.degree >= 2:
            nums = [num * m for num in nums]
            for poly, c, k, l in self.quadratic:
                nums[poly] += c * scaled[k] * scaled[l]
        for layer in self.higher:
            nums = [num * m for num in nums]
            for poly, c, idx in layer:
                for k in idx:
                    c *= scaled[k]
                nums[poly] += c
        return nums, self.den * m**self.degree


class UPoly:
    """Dense univariate polynomial in z over the multivariate ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[MPoly]):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        for c in cs:
            if Z in c.variables():
                raise AlgebraError("coefficient contains z")
        self.coeffs = tuple(cs)

    @classmethod
    def from_mpoly(cls, p: MPoly) -> "UPoly":
        split = p.coefficients_in([Z])
        deg = max((e for (e,) in split), default=-1)
        return cls([split.get((e,), MPoly.zero()) for e in range(deg + 1)])

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> MPoly:
        if self.is_zero():
            raise AlgebraError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> MPoly:
        return self.coeffs[k] if 0 <= k <= self.deg else MPoly.zero()

    def __eq__(self, other):
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def render(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e in range(self.deg, -1, -1):
            c = self.coeffs[e]
            if c.is_zero():
                continue
            zpow = "" if e == 0 else ("z" if e == 1 else f"z^{e}")
            if c.is_constant() and not zpow:
                parts.append(str(c.constant_value()))
            elif c == MPoly.const(1):
                parts.append(zpow)
            elif c.is_constant():
                parts.append(f"{c.constant_value()}*{zpow}")
            else:
                parts.append(f"({c.render()})*{zpow}" if zpow else f"({c.render()})")
        return " + ".join(parts)

    def __repr__(self):
        return f"UPoly({self.render()})"


# -- discriminants --------------------------------------------------------


def _bareiss_det(mat: list[list], exact_div):
    """Fraction-free determinant over `MPoly` with `exact_div` its exact
    division or over int with floor division; every intermediate division
    is exact."""
    n = len(mat)
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return m[k][k]  # a zero column below the diagonal
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
        prev = m[k][k]
    return m[n - 1][n - 1] if sign > 0 else -m[n - 1][n - 1]


def deflate(F: UPoly) -> UPoly:
    """G with F(z) = G(z^s), where s is the gcd of the exponents that carry a
    nonzero coefficient; F itself when s <= 1.

    For s >= 2, disc F = +-s^(s*d) * G(0)^(s-1) * lc(G)^(s-1) * (disc G)^s with
    d = deg G, so once G(0) and lc(G) are nonzero, disc F vanishes exactly
    where disc G does, and disc G has degree d rather than s*d.
    """
    s = reduce(math.gcd, (k for k, c in enumerate(F.coeffs) if not c.is_zero()), 0)
    if s <= 1:
        return F
    return UPoly(F.coeffs[::s])


def _discriminant_det(c: list, zero, exact_div):
    """The discriminant of the polynomial with descending coefficients c, of
    formal degree d = len(c) - 1 >= 2, in its coefficients; it holds also
    where c[0] = 0.

    Subtracting d times the first row of F from the first row of F' in the
    Sylvester matrix of (F, F') leaves c[0] alone in the first column, so
    disc F = (-1)^(d(d-1)/2) * det M with M that matrix less its first row
    and column, of size 2d - 2: no division by c[0].  M's rows are stacked
    as the other rows of F, the other rows of F', then that combined row,
    which costs the sign (-1)^(d-1) and keeps the first pivots of the
    elimination at c[0]; over `MPoly` that takes about half the time of the
    Sylvester row order on the locus sides of degree 5 to 7.
    """
    d = len(c) - 1
    dc = [(d - k) * c[k] for k in range(d)]
    rows = [[zero] * (r - 1) + c + [zero] * (d - 2 - r) for r in range(1, d - 1)]
    rows += [[zero] * (r - 1) + dc + [zero] * (d - 1 - r) for r in range(1, d)]
    rows.append([-k * c[k] for k in range(1, d + 1)] + [zero] * (d - 2))
    det = _bareiss_det(rows, exact_div)
    return -det if ((d - 1) * (d + 2) // 2) % 2 else det


def discriminant(F: UPoly) -> MPoly:
    """The discriminant of F in z, as `integer_discriminant` forms it: one
    division-free determinant over the coefficients of F."""
    n = F.deg
    if n < 1:
        raise AlgebraError("discriminant needs degree >= 1")
    if n == 1:
        return MPoly.const(1)
    return _discriminant_det(list(reversed(F.coeffs)), MPoly.zero(), MPoly.divexact)


def integer_discriminant(g: Sequence[int]) -> int:
    """The discriminant of sum g[k] z^k as a polynomial of formal degree
    d = len(g) - 1 in its coefficients, evaluated at the integers g; it holds
    also where g[d] = 0 (`_discriminant_det`)."""
    d = len(g) - 1
    if d < 1:
        raise AlgebraError("discriminant needs degree >= 1")
    if d == 1:
        return 1
    if d == 2:
        return g[1] * g[1] - 4 * g[0] * g[2]
    return _discriminant_det(list(reversed(g)), 0, operator.floordiv)


def nonzero_discriminant(g: Sequence[int]) -> bool:
    """`integer_discriminant(g) != 0`, decided fast where it can be.

    Formal degree d <= 2 takes the closed forms.  For d >= 3,
    `certify_squarefree` first: when _P does not divide g[d] and gcd(g, g')
    = 1 modulo _P, g has degree d and is squarefree over Q, so its
    discriminant is nonzero.  Every other outcome, g[d] = 0 included, takes
    the exact determinant.
    """
    if len(g) <= 3:
        return integer_discriminant(g) != 0
    return certify_squarefree(g) or integer_discriminant(g) != 0


# -- univariate rational helpers ---------------------------------------------


def _qtrim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def qpoly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    a = list(a)
    b = _qtrim(list(b))
    if not b:
        raise AlgebraError("division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = _qtrim(a)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, bc in enumerate(b):
            r[k + i] -= f * bc
        r = _qtrim(r)
    return q, r


def qpoly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd over the rationals."""
    f, g = _qtrim(list(a)), _qtrim(list(b))
    while g:
        _, r = qpoly_divmod(f, g)
        f, g = g, r
    if f:
        lead = f[-1]
        f = [c / lead for c in f]
    return f


def _qderiv(c: Sequence[Fraction]) -> list[Fraction]:
    return [c[k] * k for k in range(1, len(c))]


def _qsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, v in enumerate(a):
        out[i] += v
    for i, v in enumerate(b):
        out[i] -= v
    return _qtrim(out)


def qpoly_yun(c: Sequence[Fraction]) -> list[tuple[list[Fraction], int]]:
    """Yun squarefree decomposition: list of (monic factor, multiplicity).

    The modular certificate `certify_squarefree` settles a squarefree input
    without the exact gcd; any other outcome takes the exact path.
    """
    f = _qtrim(list(c))
    if len(f) <= 1:
        return []
    g = [1] if certify_squarefree(common_denominator(f)[0]) else qpoly_gcd(f, _qderiv(f))
    if len(g) == 1:
        lead = f[-1]
        return [([x / lead for x in f], 1)]
    ci = _qtrim(qpoly_divmod(f, g)[0])
    di = _qsub(qpoly_divmod(_qderiv(f), g)[0], _qderiv(ci))
    out = []
    i = 1
    while len(ci) > 1:
        ai = qpoly_gcd(ci, di)
        if len(ai) > 1:
            out.append((ai, i))
        ci = _qtrim(qpoly_divmod(ci, ai)[0])
        di = _qsub(qpoly_divmod(di, ai)[0], _qderiv(ci))
        i += 1
    return out


_P = 2**61 - 1  # a Mersenne prime, the modulus of the squarefree certificate


def _coprime_mod_p(f: list[int], g: list[int]) -> bool:
    """gcd(f, g) = 1 over GF(_P), for residues listed low degree first with
    nonzero last entries."""
    while g:
        inv = pow(g[-1], -1, _P)
        while len(f) >= len(g):
            q, k = f[-1] * inv % _P, len(f) - len(g)
            f[k:] = [(x - q * y) % _P for x, y in zip(f[k:], g)]
            while f and not f[-1]:
                f.pop()
        f, g = g, f
    return len(f) == 1


def certify_squarefree(nums: Sequence[int]) -> bool:
    """True proves sum nums[k] z^k (integers, low degree first, degree >= 1)
    squarefree over Q; False decides nothing.  If _P does not divide the
    leading entry and gcd(N mod _P, N' mod _P) = 1, N is squarefree, since a
    repeated factor G^2 of N over Z keeps its degree mod _P (lc(G) divides
    lc(N)) and divides both N and N' there."""
    f = [x % _P for x in nums]
    return bool(f[-1]) and _coprime_mod_p(f, [k * f[k] % _P for k in range(1, len(f))])


def squarefree_info(F: UPoly) -> tuple[bool, str]:
    """Squarefree verdict plus which route decided it.

    Constant coefficients ("concrete"): F scaled to integers goes to
    `nonzero_discriminant`, the one exact test of a concrete side (closed
    forms to degree 2, then the modular certificate, then the determinant);
    lc(F) is nonzero, so F is squarefree exactly when its discriminant is
    nonzero.  Otherwise ("symbolic"), a statement about the generic member
    only: with F(z) = G(z^s) and G = deflate(F), the discriminant of G must
    be nonzero as a polynomial and, when s >= 2, so must G(0), since z = 0 is
    then a root of F of multiplicity at least s.  One nonzero
    `integer_discriminant` of G's coefficients at a fixed integer point
    proves disc G != 0; disc G is expanded only when every fixed point
    gives 0.
    """
    if F.is_zero():
        raise AlgebraError("squarefree test on the zero polynomial")
    if all(c.is_constant() for c in F.coeffs):
        nums = common_denominator(c.constant_value() for c in F.coeffs)[0]
        return len(nums) == 1 or nonzero_discriminant(nums), "concrete"
    if F.deg < 1:
        return True, "symbolic"
    G = deflate(F)
    if G.deg < F.deg and G.coeff(0).is_zero():
        return False, "symbolic"
    return _generic_discriminant_nonzero(G), "symbolic"


def _generic_discriminant_nonzero(G: UPoly) -> bool:
    """disc G != 0 as a polynomial.  One nonzero integer value at a fixed
    point proves it; only when every fixed point gives 0 is disc G expanded."""
    plan = IntegerPlan(G.coeffs)
    for seed in range(2):
        rng = random.Random(seed)
        point = {v: rng.randrange(1, 1 << 20) for v in plan.variables}
        if nonzero_discriminant(plan.at(point)[0]):
            return True
    return not discriminant(G).is_zero()


# -- content ---------------------------------------------------------------


def strip_content(g: MPoly, keep: Iterable[Var]) -> MPoly:
    """Drop the monomial factor on variables outside `keep` and the rational
    content, then normalize the leading sign."""
    if g.is_zero():
        raise AlgebraError("strip_content of zero")
    keep_set = set(keep)
    out = g
    for v in sorted(g.variables()):
        if v in keep_set:
            continue
        e = out.min_degree_in(v)
        if e > 0:
            out = out.divexact(MPoly.var(v, e))
    return out.primitive_normalized()

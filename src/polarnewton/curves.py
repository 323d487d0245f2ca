"""Plane-curve series, the normal-form families, the polar operator and the
text parser for curve expressions.

A `PlaneSeries` is a polynomial in x, y stored as its coefficient at each
lattice point (i, j); the coefficients may involve the pencil parameters a, b
and the family coefficients a[i,j], b[i,j].  Every concrete series (constant
coefficients), parsed, substituted or a polar, holds one form,
`_IntegerTerms`, whose numerators the nondegeneracy test and the Puiseux
expansion read.

Both families are in Tschirnhausen normal form: a monic polynomial of degree
n in y with no y^(n-1) term.  The shift y -> y - c(x)/n removes that term and
keeps the equisingularity class, so a coefficient there describes the
coordinates, not the class.  The genus-one family y^p - x^q + sum a[i,j] x^i y^j
runs over j <= p-2; the genus-two family f1^e1 + f2 takes f1 from it and a tail
f2 with y-exponents up to e1*p-2, so f and f1 are Tschirnhausen together.
The families carry only the coefficient variables below a weight bound; the
polygon predictions are insensitive to the omitted higher-weight terms.
Each `Family` is built once per argument list and shared, so callers must
not mutate it.  `check_family` is the one test of (p, q[, d, e1]).

The polar rule lives once, as `polar_coefficient`: the coefficient at
(i, j) is a*(i+1)*c(i+1,j) + b*(j+1)*c(i,j+1).  `polar` reads it over
`MPoly`s for symbolic input, and the model builders of genus1 and genus2
read it at the symbolic pencil point; at a rational pencil point `polar`
forms a concrete series's polar, a drawn member's after `substitute`, over
integers.  Both routes give the keys in one order, the x-derivative keys in
the member's order and then the y-derivative keys that are new, because the
Puiseux expansion adds floats in that order; a series caches that order,
with the positions of each key's two source terms, as its `polar_layout`.
`lowest_polar_terms` forms only the least term in each row of a drawn
member's polar, all a trial reads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import A, B, AlgebraError, IntegerPlan, IntegerPoint, MPoly, Var, X, Y, avar, bvar, common_denominator


class CurveError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


Point = tuple[int, int]


@dataclass(frozen=True)
class PlaneSeries:
    """Polynomial in x, y as the map {(i, j): coefficient of x^i y^j}.

    Every stored coefficient is a nonzero polynomial in the variables other
    than x and y: a zero one handed in is dropped.  A concrete series, one
    with constant coefficients only, always holds them as `_IntegerTerms`: a
    map of constant `MPoly`s is turned into one when the series is made.
    """

    terms: Mapping[Point, MPoly]

    def __post_init__(self):
        terms = self.terms
        if isinstance(terms, _IntegerTerms):
            return
        terms = {pt: c for pt, c in terms.items() if not c.is_zero()}
        if all(c.is_constant() for c in terms.values()):
            nums, den = common_denominator(c.constant_value() for c in terms.values())
            terms = _IntegerTerms(dict(zip(terms, nums)), den)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def from_poly(cls, poly: MPoly) -> "PlaneSeries":
        return cls(poly.coefficients_in([X, Y]))

    @property
    def poly(self) -> MPoly:
        # x and y sort after every coefficient variable, so x^i y^j extends
        # each monomial of a coefficient, and distinct (i, j) never merge
        out = {}
        for (i, j), c in self.terms.items():
            xy = ((X, i),) * (i > 0) + ((Y, j),) * (j > 0)
            out.update((m + xy, v) for m, v in c.terms.items())
        return MPoly(out)

    def coeff(self, i: int, j: int) -> MPoly:
        """Coefficient of x^i y^j as a polynomial in the remaining variables."""
        return self.terms.get((i, j), MPoly.zero())

    def is_zero(self) -> bool:
        return not self.terms

    def is_concrete(self) -> bool:
        return isinstance(self.terms, _IntegerTerms)

    @cached_property
    def integer_plan(self) -> IntegerPlan:
        """The coefficients compiled for integer evaluation, once per series."""
        return IntegerPlan(self.terms.values())

    @cached_property
    def polar_layout(self) -> dict[Point, tuple[int, int]]:
        """The polar's keys in `polar`'s order, the x-derivative keys in term
        order and then the new y-derivative keys: each key (i, j) to the
        positions k and l of the terms x^(i+1) y^j and x^i y^(j+1), -1 where
        absent."""
        keys = list(self.terms)
        layout = {(i - 1, j): (k, -1) for k, (i, j) in enumerate(keys) if i}
        for l, (i, j) in enumerate(keys):
            if j:
                k, _ = layout.get((i, j - 1), (-1, -1))
                layout[(i, j - 1)] = (k, l)
        return layout

    @cached_property
    def polar_rows(self) -> dict[int, list[tuple[int, int, int]]]:
        """`polar_layout` by row, rows ascending: row j lists (i, k, l) per
        key (i, j) in increasing i."""
        rows: dict[int, list[tuple[int, int, int]]] = {}
        for (i, j), (k, l) in sorted(self.polar_layout.items(), key=lambda item: item[0][::-1]):
            rows.setdefault(j, []).append((i, k, l))
        return rows

    def render(self) -> str:
        return self.poly.render()


class _IntegerTerms(Mapping):
    """Read-only terms of a concrete series: integer numerators `nums` over
    one positive denominator `den`, in key order.  Reading a key builds its
    constant `MPoly` afresh; keys, length, membership, `nums` and `den`
    build none, and the checks read only those.  Nothing mutates `nums`.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict[Point, int], den: int):
        self.nums = nums
        self.den = den

    def __getitem__(self, pt: Point) -> MPoly:
        return MPoly.const(Fraction(self.nums[pt], self.den))

    def __contains__(self, pt) -> bool:
        return pt in self.nums

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def polar_coefficient(coeff, i: int, j: int, a: MPoly | Fraction = MPoly.var(A),
                      b: MPoly | Fraction = MPoly.var(B)) -> MPoly:
    """Coefficient of x^i y^j in a*f_x + b*f_y at the pencil point (a : b),
    where a and b are `MPoly`s or rationals and coeff(i, j) is the
    coefficient of x^i y^j in f (untruncated)."""
    return (i + 1) * a * coeff(i + 1, j) + (j + 1) * b * coeff(i, j + 1)


def polar_low_points(starts) -> tuple[Point, ...]:
    """The generic polar's lowest point (x, j) at each height j below the
    top row, where `starts[j]` is the least x-exponent in row y^j of a
    generic member (None if empty): the lesser of row j's start - 1, for a
    start >= 1, and row j+1's start; a and b are free, so none cancels."""
    low = []
    for j in range(len(starts) - 1):
        routes = []
        if starts[j]:
            routes.append(starts[j] - 1)
        if starts[j + 1] is not None:
            routes.append(starts[j + 1])
        low.append((min(routes), j))
    return tuple(low)


def polar(f: PlaneSeries, a: int | Fraction | None = None, b: int | Fraction | None = None) -> PlaneSeries:
    """a*df/dx + b*df/dy for the pencil point (a : b): symbolic (A : B) when
    neither is given, else rational with a missing coordinate 0, not (0 : 0).

    The coefficient at (i-1, j) is a*i*c(i,j) + b*(j+1)*c(i-1,j+1); a zero sum
    is dropped.  Keys come in a fixed order: the x-derivative keys in the
    member's order, then the y-derivative keys not already present: f's
    `polar_layout`.  At a rational pencil point, for a concrete series, the
    integer route reads each key's two source numerators at the layout's
    positions, with no key formed per call; the polar's terms are
    `_IntegerTerms`.  Otherwise each key takes `polar_coefficient`.
    """
    if a is None and b is None:
        a, b = MPoly.var(A), MPoly.var(B)
    else:
        a, b = Fraction(a or 0), Fraction(b or 0)
        if not (a or b):
            raise CurveError("(a, b) must not be (0, 0)")
        if f.is_concrete():
            nums = [*f.terms.nums.values(), 0]
            ax, by = a.numerator * b.denominator, b.numerator * a.denominator
            out = {(i, j): num for (i, j), (k, l) in f.polar_layout.items()
                   if (num := ax * (i + 1) * nums[k] + by * (j + 1) * nums[l])}
            return PlaneSeries(_IntegerTerms(out, a.denominator * b.denominator * f.terms.den))
    return PlaneSeries({pt: polar_coefficient(f.coeff, *pt, a, b) for pt in f.polar_layout})


def lowest_polar_terms(f: PlaneSeries, a: Fraction, b: Fraction, assignment: IntegerPoint) -> PlaneSeries:
    """The least term in each row of polar(substitute(f, assignment), (a : b)),
    over `polar`'s denominator: a row's keys are tried in increasing i until one
    is nonzero, each member coefficient evaluated when first read."""
    numerator, den = f.integer_plan.lazy_at(assignment)
    ax, by = a.numerator * b.denominator, b.numerator * a.denominator
    out: dict[Point, int] = {}
    for j, row in f.polar_rows.items():
        for i, k, l in row:
            if num := ax * (i + 1) * numerator(k) + by * (j + 1) * numerator(l):
                out[(i, j)] = num
                break
    return PlaneSeries(_IntegerTerms(out, a.denominator * b.denominator * den))


def substitute(f: PlaneSeries, assignment: Mapping[Var, int | Fraction]) -> PlaneSeries:
    """Instantiate every non-x,y variable, over integers through f's
    `integer_plan`; the result is a concrete series in f's key order."""
    try:
        nums, den = f.integer_plan.at(assignment)
    except AlgebraError as exc:  # a missing value
        raise CurveError(str(exc)) from None
    return PlaneSeries(_IntegerTerms({pt: num for pt, num in zip(f.terms, nums) if num}, den))


# -- normal-form families -----------------------------------------------------


def coefficient_g1(p: int, q: int, i: int, j: int) -> MPoly:
    """Coefficient of x^i y^j in the generic normal form y^p - x^q + sum a[i,j] x^i y^j.

    The two distinguished monomials carry the constants +1 and -1; every
    monomial of weight i*p + j*q above p*q with j <= p-2 carries a free family
    variable; every other coefficient is zero.  So the member is monic of
    degree p in y with an empty y^(p-1) row (Tschirnhausen).  No weight
    bound applies here.
    """
    if (i, j) == (0, p):
        return MPoly.const(1)
    if (i, j) == (q, 0):
        return MPoly.const(-1)
    if i >= 0 and 0 <= j <= p - 2 and i * p + j * q > p * q:
        return MPoly.var(avar(i, j))
    return MPoly.zero()


def row_starts_g1(p: int, q: int) -> list[int | None]:
    """Least x-exponent in each row y^j, j = 0..p, of the member of
    `coefficient_g1`: x^q in row 0, the least weight above p*q in rows
    1..p-2, none in the empty row p-1, and y^p in row p."""
    return [q] + [q * (p - j) // p + 1 for j in range(1, p - 1)] + [None, 0]


def tail_start(p: int, q: int, d: int, e1: int = 2) -> tuple[int, int]:
    """The class-defining tail monomial (i0, j0): the unique point with
    i0*p + j0*q = e1*p*q + d and 0 <= j0 < p.  Its coefficient b[i0,j0] is
    nonzero exactly on the members of the class <e1*p, e1*q, e1*p*q + d>."""
    threshold = e1 * p * q + d
    j0 = next(j for j in range(p) if (threshold - j * q) % p == 0)
    i0 = (threshold - j0 * q) // p
    assert i0 >= 0
    return i0, j0


def coefficient_tail(p: int, q: int, d: int, i: int, j: int, e1: int = 2) -> MPoly:
    """Coefficient of x^i y^j in the generic tail f2 of the genus-two family.

    The tail starts with b[i0,j0] x^i0 y^j0 at weight e1*p*q + d and carries
    a free variable on every monomial of larger weight with j <= e1*p - 2;
    every other coefficient is zero.  No weight bound applies here.
    """
    if (i, j) == tail_start(p, q, d, e1):
        return MPoly.var(bvar(i, j))
    if i >= 0 and 0 <= j <= e1 * p - 2 and i * p + j * q > e1 * p * q + d:
        return MPoly.var(bvar(i, j))
    return MPoly.zero()


def row_starts_g2(p: int, q: int, d: int) -> list[int | None]:
    """Least x-exponent in each row y^j, j = 0..2p, of the genus-two member
    f1^2 + f2: in f1^2 the least sum of two f1 row starts whose rows add up
    to j, as distinct products of family variables never cancel; the tail
    reaches further left only at its class monomial (i0, j0)."""
    f1 = row_starts_g1(p, q)
    starts = []
    for j in range(2 * p + 1):
        sums = [f1[k] + f1[j - k] for k in range(max(0, j - p), min(j, p) + 1)
                if f1[k] is not None and f1[j - k] is not None]
        starts.append(min(sums, default=None))
    i0, j0 = tail_start(p, q, d)
    if starts[j0] is None or i0 < starts[j0]:
        starts[j0] = i0
    return starts


def check_family(p: int, q: int, d: int | None = None, e1: int = 2) -> None:
    """Raise CurveError unless (p, q) or (p, q, d) with e1 names a modelled
    class: coprime 2 <= p < q and, in genus two, d >= 1, e1 >= 2 and
    gcd(e1, d) = 1."""
    if not (2 <= p < q) or math.gcd(p, q) != 1:
        raise CurveError(f"need coprime 2 <= p < q, got ({p}, {q})")
    if d is not None and (d < 1 or e1 < 2 or math.gcd(e1, d) != 1):
        raise CurveError(f"need d >= 1, e1 >= 2 and gcd(e1, d) = 1, got d={d}, e1={e1}")


@dataclass(frozen=True)
class Family:
    """The generic member of one class and the variables a draw assigns.

    `key` is (p, q) in genus one and (p, q, d) in genus two, whose member is
    f1^e1 + f2 (e1 is 1 in genus one).  `coeff_vars` holds every family
    variable of the member, sorted; a draw assigns all of them and keeps
    `class_var`, the tail's class coefficient b[i0,j0] (None in genus one),
    nonzero.
    """

    key: tuple[int, ...]
    e1: int
    weight_bound: int
    generic: PlaneSeries
    class_var: Var | None = None
    coeff_vars: tuple[Var, ...] = field(init=False)

    def __post_init__(self):
        variables = {v for c in self.generic.terms.values() for v in c.variables()}
        object.__setattr__(self, "coeff_vars", tuple(sorted(variables)))

    @cached_property
    def class_flags(self) -> tuple[bool, ...]:
        """Per variable of `coeff_vars`, whether it is `class_var`."""
        return tuple(v == self.class_var for v in self.coeff_vars)


def _bounded_terms(p: int, q: int, bound: int, coeff, max_j: int) -> PlaneSeries:
    """Sum of coeff(i, j) x^i y^j over the weights i*p + j*q <= bound; coeff
    must vanish on the rows j > max_j, which are not visited."""
    terms = {}
    for i in range(0, bound // p + 1):
        for j in range(0, min(max_j, (bound - i * p) // q) + 1):
            c = coeff(i, j)
            if not c.is_zero():
                terms[(i, j)] = c
    return PlaneSeries(terms)


@lru_cache(maxsize=32)
def generic_member_g1(p: int, q: int, weight_bound: int | None = None) -> Family:
    check_family(p, q)
    bound = weight_bound if weight_bound is not None else p * q + p + q
    if bound < p * q:
        raise CurveError(f"weight bound {bound} is below p*q = {p * q}, which drops y^{p} and x^{q}")
    generic = _bounded_terms(p, q, bound, lambda i, j: coefficient_g1(p, q, i, j), p)
    return Family(key=(p, q), e1=1, weight_bound=bound, generic=generic)


@lru_cache(maxsize=32)
def generic_member_g2(p: int, q: int, d: int, e1: int = 2,
                      weight_bound: int | None = None) -> Family:
    """Generic f1^e1 + f2 with value semigroup <e1*p, e1*q, e1*p*q + d>."""
    check_family(p, q, d, e1)
    threshold = e1 * p * q + d
    bound = weight_bound if weight_bound is not None else threshold + 2 * p
    # the class-defining monomial stays even below a smaller bound
    f2 = _bounded_terms(p, q, max(bound, threshold), lambda i, j: coefficient_tail(p, q, d, i, j, e1),
                        e1 * p - 2)
    # tail monomials carry a b variable: they merge with none of f1^e1 and come last, as in a sum
    terms = (generic_member_g1(p, q).generic.poly ** e1).coefficients_in([X, Y])
    for pt, c in f2.terms.items():
        terms[pt] = terms[pt] + c if pt in terms else c
    generic = PlaneSeries(terms)
    return Family(key=(p, q, d), e1=e1, weight_bound=bound, generic=generic,
                  class_var=bvar(*tail_start(p, q, d, e1)))


# -- expression parser ---------------------------------------------------------
#
# expr    := ('+'|'-')? term (('+'|'-') term)*
# term    := factor ('*' factor)*
# factor  := base ('^' natural)?
# base    := rational | var | '(' expr ')'
# var     := 'x' | 'y' | 'a' | 'b' | ('a'|'b') '[' natural ',' natural ']'
# rational:= natural ('/' natural)?
# '(' nests at most _MAX_NESTING deep (four frames a level), so an input
# fails at the same '(' whatever the caller's stack depth.

_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def natural(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        return int(self.text[start:self.pos])

    def expr(self) -> MPoly:
        sign = 1
        c = self.peek()
        if c in "+-":
            self.pos += 1
            sign = -1 if c == "-" else 1
        out = self.term() * sign
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                out = out + self.term()
            elif c == "-":
                self.pos += 1
                out = out - self.term()
            else:
                return out

    def term(self) -> MPoly:
        out = self.factor()
        while self.peek() == "*":
            self.pos += 1
            out = out * self.factor()
        return out

    def factor(self) -> MPoly:
        base = self.base()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.natural()
        return base

    def base(self) -> MPoly:
        c = self.peek()
        if c == "(":
            if self.depth == _MAX_NESTING:
                raise self.error("expression nested too deeply")
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            self.take(")")
            self.depth -= 1
            return inner
        if c.isdigit():
            num = self.natural()
            if self.peek() == "/":
                self.pos += 1
                den = self.natural()
                if den == 0:
                    raise self.error("zero denominator")
                return MPoly.const(Fraction(num, den))
            return MPoly.const(num)
        if c.isalpha():
            name = c
            self.pos += 1
            if name not in ("x", "y", "a", "b"):
                self.pos -= 1
                raise self.error(f"unknown identifier {name!r}")
            if name in ("a", "b") and self.peek() == "[":
                self.pos += 1
                i = self.natural()
                self.take(",")
                j = self.natural()
                self.take("]")
                return MPoly.var(avar(i, j) if name == "a" else bvar(i, j))
            return MPoly.var(Var(name))
        raise self.error("expected a number, a variable or '('")


def parse_series(text: str) -> PlaneSeries:
    parser = _Parser(text)
    parser.skip_ws()
    if parser.pos >= len(text):
        raise ParseError("empty expression", 0)
    poly = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return PlaneSeries.from_poly(poly)

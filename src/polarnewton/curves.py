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
read it at the symbolic pencil point; at a constant pencil point `polar`
forms a concrete series's or a drawn member's polar over integers instead.
Both routes give the keys in one order, the x-derivative keys in the
member's order and then the y-derivative keys that are new, because the
Puiseux expansion adds floats in that order.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .algebra import A, B, AlgebraError, IntegerPlan, MPoly, Var, X, Y, avar, bvar, common_denominator


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
    than x and y.  A concrete series, one with constant coefficients only,
    always holds them as `_IntegerTerms`: a map of constant `MPoly`s is
    turned into one when the series is made.
    """

    terms: Mapping[Point, MPoly]

    def __post_init__(self):
        terms = self.terms
        if not isinstance(terms, _IntegerTerms) and all(c.is_constant() for c in terms.values()):
            nums, den = common_denominator(c.constant_value() for c in terms.values())
            object.__setattr__(self, "terms", _IntegerTerms(dict(zip(terms, nums)), den))

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
    def polar_targets(self) -> tuple[tuple[tuple[int, Point, int], ...], ...]:
        """Where the derivatives of the terms land, in term order: for each
        term x^i y^j with i > 0, its position k among the terms, the key
        (i-1, j) and the factor i; then the same for each term with j > 0,
        the key (i, j-1) and the factor j."""
        keys = list(self.terms)
        return (tuple((k, (i - 1, j), i) for k, (i, j) in enumerate(keys) if i),
                tuple((k, (i, j - 1), j) for k, (i, j) in enumerate(keys) if j))

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


@dataclass(frozen=True)
class PolarParams:
    """The pencil point (a : b); not both coordinates zero."""

    a: MPoly
    b: MPoly

    def __post_init__(self):
        if self.a.is_zero() and self.b.is_zero():
            raise CurveError("(a, b) must not be (0, 0)")

    @classmethod
    def symbolic(cls) -> "PolarParams":
        return cls(MPoly.var(A), MPoly.var(B))

    @classmethod
    def concrete(cls, a, b) -> "PolarParams":
        return cls(MPoly.const(Fraction(a)), MPoly.const(Fraction(b)))


def polar_coefficient(coeff, i: int, j: int, a: MPoly = MPoly.var(A), b: MPoly = MPoly.var(B)) -> MPoly:
    """Coefficient of x^i y^j in a*f_x + b*f_y at the pencil point (a : b),
    where coeff(i, j) is the coefficient of x^i y^j in f (untruncated)."""
    return (i + 1) * a * coeff(i + 1, j) + (j + 1) * b * coeff(i, j + 1)


def polar(f: PlaneSeries, params: PolarParams | None = None,
          assignment: Mapping[Var, int | Fraction] | None = None) -> PlaneSeries:
    """a*df/dx + b*df/dy for the pencil point (a : b), at `assignment` if given.

    The coefficient at (i-1, j) is a*i*c(i,j) + b*(j+1)*c(i-1,j+1); a zero sum
    is dropped.  Keys come in a fixed order: the x-derivative keys in the
    member's order, then the y-derivative keys not already present.  At a
    constant pencil point, for a concrete series or one whose variables
    `assignment` all fixes, the integer route takes the series's own
    numerators, or the member's at `assignment` from its `integer_plan`, and
    sends each nonzero one to its `polar_targets`, with no key formed per
    call; the polar's terms are `_IntegerTerms`, and the result equals
    `polar(substitute(f, assignment), params)`.  Otherwise each key takes
    `polar_coefficient` over `MPoly`s.
    """
    if params is None:
        params = PolarParams.symbolic()
    if params.a.is_constant() and params.b.is_constant() and (assignment is not None or f.is_concrete()):
        a, b = params.a.constant_value(), params.b.constant_value()
        nums, den = _numerators(f, assignment or {})
        ax, by = a.numerator * b.denominator, b.numerator * a.denominator
        x_targets, y_targets = f.polar_targets
        # every x-derivative key of a nonzero term is placed, zero or not, so
        # a key keeps its position when a y-derivative term lands on it
        out: dict[Point, int] = {}
        for k, pt, i in x_targets:
            if num := nums[k]:
                out[pt] = ax * i * num
        for k, pt, j in y_targets:
            if num := nums[k]:
                out[pt] = out.get(pt, 0) + by * j * num
        common = a.denominator * b.denominator * den
        return PlaneSeries(_IntegerTerms({pt: num for pt, num in out.items() if num}, common))
    if assignment is not None:
        f = substitute(f, assignment)
    keys = dict.fromkeys([(i - 1, j) for i, j in f.terms if i] + [(i, j - 1) for i, j in f.terms if j])
    coeffs = {pt: polar_coefficient(f.coeff, *pt, params.a, params.b) for pt in keys}
    return PlaneSeries({pt: c for pt, c in coeffs.items() if not c.is_zero()})


def _numerators(f: PlaneSeries, assignment: Mapping[Var, int | Fraction]) -> tuple[list[int], int]:
    """Every coefficient of f at `assignment` over integers, in member order,
    and their one denominator: a concrete series's own numerators, else from
    its `integer_plan`."""
    if f.is_concrete():
        return list(f.terms.nums.values()), f.terms.den
    try:
        return f.integer_plan.at(assignment)
    except AlgebraError as exc:  # a missing value
        raise CurveError(str(exc)) from None


def substitute(f: PlaneSeries, assignment: Mapping[Var, int | Fraction]) -> PlaneSeries:
    """Instantiate every non-x,y variable; the result is a concrete series."""
    nums, den = _numerators(f, assignment)
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
    generic = PlaneSeries.from_poly(generic_member_g1(p, q).generic.poly ** e1 + f2.poly)
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

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
            self.pos += 1
            inner = self.expr()
            self.take(")")
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
    try:
        poly = parser.expr()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input")
    return PlaneSeries.from_poly(poly)

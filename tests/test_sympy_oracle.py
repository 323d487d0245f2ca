"""Sylvester determinants, discriminants (also of integer vectors), deflation, the symbolic squarefree
verdict, the modular squarefree certificate, exact division, univariate gcds and Yun
decompositions, checked against sympy, which shares no code with polarnewton.algebra; and the
evaluation oracle of `_oracles`, which the other tests read, checked against sympy as well.

Skipped when sympy is not installed (it is in the `test` extra).
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from polarnewton import algebra  # noqa: E402
from polarnewton.curves import PlaneSeries, _IntegerTerms  # noqa: E402
from polarnewton.newton import is_nondegenerate  # noqa: E402
from polarnewton.algebra import (  # noqa: E402
    A,
    B,
    AlgebraError,
    MPoly,
    UPoly,
    X,
    Y,
    Z,
    avar,
    bvar,
    deflate,
    discriminant,
    integer_discriminant,
    qpoly_gcd,
    qpoly_yun,
    squarefree_info,
)

from _oracles import evaluate, sylvester_matrix  # noqa: E402

PARAMS = (A, B, avar(3, 1), bvar(5, 2))
SZ = sympy.Symbol("z")


def to_sympy(p: MPoly):
    return sympy.Add(*(sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*(sympy.Symbol(v.name) ** e for v, e in m))
                       for m, c in p.terms.items()))


def same(ours: MPoly, theirs) -> bool:
    return sympy.expand(to_sympy(ours) - theirs) == 0


def random_coeff(rng, nvars=2, terms=2) -> MPoly:
    """A sparse polynomial of degree <= 2 in the first `nvars` parameters."""
    out = MPoly.zero()
    for _ in range(terms):
        powers = {v: rng.randint(0, 1) for v in rng.sample(PARAMS[:nvars], 2)}
        out = out + MPoly.monomial(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), powers)
    return out


def random_upoly(rng, deg, nvars=2, density=0.6, terms=2) -> UPoly:
    coeffs = [random_coeff(rng, nvars, terms) if rng.random() < density else MPoly.zero()
              for _ in range(deg)]
    lead = random_coeff(rng, nvars, terms)
    while lead.is_zero():
        lead = random_coeff(rng, nvars, terms)
    return UPoly(coeffs + [lead])


def upoly_to_sympy(F: UPoly):
    return sympy.Add(*(to_sympy(c) * SZ**k for k, c in enumerate(F.coeffs)))


def inflate(G: UPoly, s: int) -> UPoly:
    """F(z) = G(z^s)."""
    coeffs = [MPoly.zero()] * (s * G.deg + 1)
    for k, c in enumerate(G.coeffs):
        coeffs[s * k] = c
    return UPoly(coeffs)


# ints and Fractions, 0 and negatives included
RATIONALS = st.one_of(st.integers(-40, 40), st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)))
# each term: a coefficient and one exponent per parameter, up to 6
TERMS = st.lists(st.tuples(RATIONALS, st.lists(st.integers(0, 6), min_size=4, max_size=4)),
                 max_size=6)


def sympy_rational(r):
    r = Fraction(r)
    return sympy.Rational(r.numerator, r.denominator)


class TestEvaluateAgainstSympy:
    @given(TERMS, st.lists(RATIONALS, min_size=4, max_size=4))
    @settings(max_examples=120, deadline=None)
    def test_matches_rational_substitution(self, terms, values):
        poly = MPoly.zero()
        expr = sympy.Integer(0)
        for coeff, exps in terms:
            poly = poly + MPoly.monomial(coeff, dict(zip(PARAMS, exps)))
            expr += sympy_rational(coeff) * sympy.Mul(*(sympy.Symbol(v.name) ** e
                                                        for v, e in zip(PARAMS, exps)))
        want = expr.xreplace({sympy.Symbol(v.name): sympy_rational(val)
                              for v, val in zip(PARAMS, values)})
        got = evaluate(poly, dict(zip(PARAMS, values)))
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (int(want.p), int(want.q))

    def test_zero_and_constant_polynomials(self):
        assert evaluate(MPoly.zero(), {}) == 0
        assert type(evaluate(MPoly.zero(), {})) is Fraction
        assert evaluate(MPoly.const(Fraction(-7, 3)), {A: 5}) == Fraction(-7, 3)
        assert evaluate(MPoly.const(4), {}) == 4


class TestAgainstSympy:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 3), (4, 2), (5, 3), (7, 2)])
    def test_sylvester_determinant(self, n, m):
        # `_bareiss_det`, which every discriminant reduces to, on the Sylvester
        # matrix of two different symbolic polynomials against sympy's resultant
        rng = random.Random(100 * n + m)
        for _ in range(2):
            F, G = random_upoly(rng, n), random_upoly(rng, m)
            mat = sylvester_matrix(F.coeffs[::-1], G.coeffs[::-1], MPoly.zero())
            theirs = sympy.resultant(upoly_to_sympy(F), upoly_to_sympy(G), SZ)
            assert same(algebra._bareiss_det(mat, MPoly.divexact), theirs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_discriminant(self, n):
        rng = random.Random(n)
        for _ in range(2 if n > 4 else 3):
            # monomial coefficients keep the higher-degree determinants small
            F = random_upoly(rng, n, density=0.8, terms=1 if n > 4 else 2)
            theirs = sympy.discriminant(upoly_to_sympy(F), SZ)
            assert same(discriminant(F), theirs)

    def test_discriminant_of_a_side_polynomial(self):
        # the (7,19) steep side, as displayed in the paper's first example
        b, a11 = MPoly.var(B), MPoly.var(avar(11, 3))
        F = UPoly.from_mpoly(7 * b * MPoly.var(Z) ** 4 + 3 * b * a11)
        sb, sa = sympy.Symbol("b"), sympy.Symbol("a[11,3]")
        assert same(discriminant(F), sympy.discriminant(7 * sb * SZ**4 + 3 * sb * sa, SZ))


def integer_vectors(rng, d):
    """Coefficient vectors of formal degree d, low degree first: random ones,
    ones with leading coefficient 0, and ones with a repeated root."""
    out = []
    for kind in range(9):
        g = [rng.randint(-6, 6) for _ in range(d + 1)]
        if kind % 3 == 1:
            g[d] = 0
        elif kind % 3 == 2 and d >= 2:
            r = rng.randint(-3, 3)
            g = [r * r, -2 * r, 1]  # (z - r)^2 times d - 2 random linear factors
            for _ in range(d - 2):
                h = rng.randint(-3, 3)
                g = [x + h * y for x, y in zip([0] + g, g + [0])]
            g = [rng.choice([-2, -1, 1, 2]) * c for c in g]
        out.append(g)
    return out


class TestIntegerDiscriminant:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_the_symbolic_discriminant_at_the_pencil_points(self, d):
        # G = sum (g_k * u + h_k * w) z^k with fresh u, w has formal degree d;
        # its discriminant, expanded once, is read at (u, w) = (1, 0), (0, 1),
        # a point where the leading coefficient is 0, and (2, -3)
        u, w = MPoly.var(avar(0, 0)), MPoly.var(bvar(0, 0))
        vectors = integer_vectors(random.Random(f"pencil:{d}"), d)
        # g with leading coefficient 0, then g with a repeated root
        for g, h in [(vectors[1], vectors[0]), (vectors[2], vectors[3])]:
            if not (g[d] or h[d]):
                h = h[:d] + [1]
            disc = discriminant(UPoly([u * x + w * y for x, y in zip(g, h)]))
            for su, sw in [(1, 0), (0, 1), (h[d], -g[d]), (2, -3)]:
                want = evaluate(disc, {avar(0, 0): Fraction(su), bvar(0, 0): Fraction(sw)})
                assert integer_discriminant([x * su + y * sw for x, y in zip(g, h)]) == want

    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_sympy(self, d):
        # a leading coefficient t + g_d keeps sympy at formal degree d at t = 0
        t = sympy.Symbol("t")
        for g in integer_vectors(random.Random(f"sympy:{d}"), d):
            expr = sum(c * SZ**k for k, c in enumerate(g[:d])) + (t + g[d]) * SZ**d
            assert integer_discriminant(g) == sympy.discriminant(expr, SZ).subs(t, 0)
            if g[d]:
                assert integer_discriminant(g) == sympy.discriminant(sympy.Poly(g[::-1], SZ))

    def test_repeated_roots_give_zero_and_constants_are_rejected(self):
        assert integer_discriminant([4, -4, 1]) == 0
        assert integer_discriminant([0, 0, 0, 5]) == 0
        assert integer_discriminant([3, 0, 0, 0]) == 0  # formal degree 3: a triple root at infinity
        with pytest.raises(AlgebraError):
            integer_discriminant([7])


class TestDeflation:
    @pytest.mark.parametrize("d,s", [(1, 2), (1, 5), (2, 2), (3, 2), (2, 3), (1, 7)])
    def test_identity_up_to_sign(self, d, s):
        rng = random.Random(10 * d + s)
        for _ in range(2):
            G0 = random_upoly(rng, d, density=1.0, terms=1 if s * d > 5 else 2)
            if G0.coeff(0).is_zero():
                continue
            F = inflate(G0, s)
            G = deflate(F)
            step = F.deg // G.deg  # a multiple of s: G0 may deflate further
            assert step % s == 0
            assert sympy.expand(upoly_to_sympy(F) - upoly_to_sympy(G).subs(SZ, SZ**step)) == 0
            lhs = sympy.discriminant(upoly_to_sympy(F), SZ)
            rhs = (step ** (step * G.deg) * to_sympy(G.coeff(0)) ** (step - 1)
                   * to_sympy(G.lc) ** (step - 1) * to_sympy(discriminant(G)) ** step)
            assert sympy.expand(lhs - rhs) == 0 or sympy.expand(lhs + rhs) == 0

    def test_step_is_the_gcd_of_the_exponents(self):
        u, v = MPoly.var(avar(3, 1)), MPoly.var(bvar(5, 2))
        z = MPoly.var(Z)
        for expr, step in [(u * z**6 + v * z**4 + 1, 2), (u * z**6 + v * z**3, 3), (u * z**5, 5),
                           (u * z**3 + v * z**2 + 1, 1), (u * z + v, 1), (3 * u, 0)]:
            F = UPoly.from_mpoly(expr)
            G = deflate(F)
            if step <= 1:
                assert G is F
                continue
            exps = [k for k, c in enumerate(F.coeffs) if not c.is_zero()]
            assert math.gcd(*exps) == step
            assert inflate(G, step) == F


def sympy_squarefree(F: UPoly) -> bool:
    """Squarefree over the field of rational functions in the parameters: by
    Gauss's lemma, gcd(F, F') over the polynomial ring has the same z-degree."""
    expr = upoly_to_sympy(F)
    return sympy.degree(sympy.gcd(expr, sympy.diff(expr, SZ)), SZ) == 0


class TestSymbolicSquarefreeVerdict:
    def test_pinned_deflatable_inputs(self):
        a, b = MPoly.var(A), MPoly.var(B)
        u = MPoly.var(avar(3, 1))
        z = MPoly.var(Z)
        cases = [
            (a * z**4 + b * z**2, False),  # G(0) = 0, so z = 0 is a double root
            (a * z**6 + b * z**3, False),
            (a * z**4 + b, True),
            (a * z**4 + b * z**2 + u, True),
            ((a * z**2 + b) ** 2, False),  # G = (a*w + b)^2
            (a * z**2 + b * z, True),  # no deflation, G(0) = 0 is a simple root
            (b * z**5, False),
            (b * z, True),
        ]
        for expr, expected in cases:
            F = UPoly.from_mpoly(expr)
            assert sympy_squarefree(F) is expected
            assert squarefree_info(F) == (expected, "symbolic")

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_random_deflatable_inputs(self, s):
        rng = random.Random(s)
        z = MPoly.var(Z)
        for _ in range(8):
            G0 = random_upoly(rng, rng.randint(1, 2))
            if rng.random() < 0.3:  # a repeated factor in G
                G0 = sum((c * z**e for e, c in enumerate(G0.coeffs)), MPoly.zero())
                G0 = UPoly.from_mpoly(G0 * (z - MPoly.var(A)) ** 2)
            F = inflate(G0, s)
            route = "concrete" if all(c.is_constant() for c in F.coeffs) else "symbolic"
            assert squarefree_info(F) == (sympy_squarefree(F), route)


P = 2**61 - 1  # the certificate's modulus


def concrete(coeffs) -> UPoly:
    return UPoly([MPoly.const(c) for c in coeffs])


def exact_route(F: UPoly) -> tuple[bool, str]:
    """The exact test the certificate falls through to: gcd(F, F') over Q."""
    c = [k.constant_value() for k in F.coeffs]
    return len(algebra.qpoly_gcd(c, [k * c[k] for k in range(1, len(c))])) == 1, "concrete"


def sympy_concrete_squarefree(F: UPoly) -> bool:
    return all(mult == 1 for _f, mult in sympy.sqf_list(upoly_to_sympy(F))[1])


@pytest.fixture
def gcd_calls(monkeypatch):
    calls = []
    real = algebra.qpoly_gcd
    monkeypatch.setattr(algebra, "qpoly_gcd", lambda f, g: calls.append(1) or real(f, g))
    return calls


@pytest.fixture
def det_calls(monkeypatch):
    """Records each exact determinant: an `integer_discriminant` of formal
    degree 3 or more (degrees 1 and 2 take closed forms)."""
    calls = []
    real = algebra.integer_discriminant

    def counting(g):
        if len(g) > 3:
            calls.append(1)
        return real(g)

    monkeypatch.setattr(algebra, "integer_discriminant", counting)
    return calls


class TestModularSquarefreeCertificate:
    def test_random_concrete_polynomials(self, gcd_calls, det_calls):
        rng = random.Random(17)
        z = MPoly.var(Z)
        seen = set()
        for _ in range(120):
            deg = rng.randint(1, 8)
            lead = rng.choice([-3, 1, Fraction(5, 2)])
            F = concrete([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)] + [lead])
            if rng.random() < 0.3 and deg <= 6:  # a true repeated factor
                F = sum((c * z**e for e, c in enumerate(F.coeffs)), MPoly.zero())
                F = UPoly.from_mpoly(F * (z - rng.randint(-3, 3)) ** 2)
            want = exact_route(F)
            assert want[0] is sympy_concrete_squarefree(F)
            before, gcds = len(det_calls), len(gcd_calls)
            assert squarefree_info(F) == want
            # small coefficients: the certificate decides every squarefree
            # case of degree 3 or more, and the determinant every other one
            assert len(det_calls) - before == (0 if want[0] or F.deg <= 2 else 1)
            assert len(gcd_calls) == gcds  # no Euclid over Q
            seen.add(want[0])
        assert seen == {True, False}

    ADVERSARIAL = [
        ("P*z**2 + 1", True),  # P divides lc(F)
        ("2*P*z**3 + 1", True),
        ("z**2/P + 1", True),  # the integer scaling z^2 + P is z^2 mod P: a double root at 0
        ("z*(z - P)", True),  # squarefree, but P divides disc F
        ("(z - 1)*(z - 1 - P)", True),
        ("(z - 1)*(z - 1 - P)*(z - P)*(z + 3)", True),
        ("(z - 1)**2", False),  # true repeated factors
        ("(z**2 + P)**2", False),
        ("(z - 1)**2*(z - 2)*(3*z + 5)", False),
        ("z**2*(P*z + 1)", False),  # P divides lc(F) too
    ]

    @staticmethod
    def coefficients(text: str) -> list[Fraction]:
        expr = sympy.expand(sympy.sympify(text, locals={"z": SZ, "P": P}))
        return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, SZ).all_coeffs())]

    @pytest.mark.parametrize("text,squarefree", ADVERSARIAL)
    def test_adversarial_cases_fall_through_to_the_exact_route(self, gcd_calls, det_calls, text, squarefree):
        F = concrete(self.coefficients(text))
        assert sympy_concrete_squarefree(F) is squarefree
        assert squarefree_info(F) == exact_route(F) == (squarefree, "concrete")
        # the certificate declined; the determinant decided, or the closed form at degree 2
        assert len(det_calls) == (1 if F.deg >= 3 else 0)
        assert len(gcd_calls) == 1  # the oracle's own

    @pytest.mark.parametrize("text,squarefree", ADVERSARIAL)
    def test_adversarial_side_of_an_integer_polar_takes_the_exact_route(self, gcd_calls, det_calls,
                                                                         text, squarefree):
        # A side's associated polynomial has nonzero end coefficients, so an
        # input with a root at 0 is shifted by z -> z - 1 first; the shift
        # keeps the squarefree verdict.
        c = self.coefficients(text)
        if c[0] == 0:
            c = self.coefficients(f"({text}).subs(z, z - 1)")
        # the single side (0, n)-(n, 0): the point (n - k, k) carries c[k]
        den = math.lcm(*[v.denominator for v in c])
        n = len(c) - 1
        series = PlaneSeries(_IntegerTerms({(n - k, k): int(v * den) for k, v in enumerate(c) if v}, den))
        report = is_nondegenerate(series)
        assert [(v.squarefree, v.path) for v in report.sides] == [(squarefree, "concrete")]
        # the certificate declined the numerators; the determinant decided, or the closed form
        assert len(det_calls) == (1 if n >= 3 else 0)
        assert gcd_calls == []
        assert report.sides[0].associated == concrete(c)

    def test_certified_case_takes_no_exact_gcd(self, gcd_calls, det_calls):
        F = concrete([Fraction(c) for c in (-2, 1, 0, 1)])  # z^3 + z - 2 = (z - 1)(z^2 + z + 2)
        assert squarefree_info(F) == (True, "concrete")
        assert gcd_calls == det_calls == []


def sparse_poly(rng) -> MPoly:
    """Two terms, each in two of a, b, x, y with exponents up to 3: degrees
    with gaps, where one reduction step can drop several degrees."""
    out = MPoly.zero()
    while out.is_zero():
        for _ in range(2):
            powers = {v: rng.randint(0, 3) for v in rng.sample((A, B, X, Y), 2)}
            out = out + MPoly.monomial(rng.choice([-3, -2, -1, 1, 2, 3]), powers)
    return out


def qpoly_to_sympy(c):
    return sympy.Add(*(sympy_rational(v) * SZ**k for k, v in enumerate(c)))


def qpoly_mul(f, g) -> list[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, u in enumerate(f):
        for j, v in enumerate(g):
            out[i + j] += u * v
    return out


def monic(expr):
    return sympy.Poly(expr, SZ, domain="QQ").monic().as_expr()


def assert_yun_matches_sympy(ours, f):
    """`ours`, a Yun decomposition of f, has one monic factor per
    multiplicity, the product of sympy's squarefree factors of that multiplicity."""
    want = sympy.sqf_list(qpoly_to_sympy(f))[1]
    assert len({m for _c, m in ours}) == len(ours)
    for mult in {m for _c, m in ours} | {m for _p, m in want}:
        got = [qpoly_to_sympy(c) for c, m in ours if m == mult]
        expected = monic(sympy.Mul(*(p for p, m in want if m == mult)))
        assert got and sympy.expand(got[0] - expected) == 0


def exact_yun(monkeypatch, f):
    """qpoly_yun(f) with the modular certificate declining every input."""
    with monkeypatch.context() as m:
        m.setattr(algebra, "certify_squarefree", lambda nums: False)
        return qpoly_yun(f)


class TestYunCertificate:
    """qpoly_yun returns [(monic f, 1)] on the modular certificate, without
    an exact gcd; that is the exact path's output, and sympy's."""

    def test_random_inputs(self, monkeypatch, gcd_calls):
        rng = random.Random(23)
        seen = set()
        for _ in range(150):
            deg = rng.randint(1, 7)
            f = ([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
                 + [Fraction(rng.choice([-3, 1, 7]), rng.randint(1, 4))])
            if rng.random() < 0.4:  # a true repeated factor
                r = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(1, 2))]
                f = qpoly_mul(f, qpoly_mul(r, r))
            squarefree = all(m == 1 for _p, m in sympy.sqf_list(qpoly_to_sympy(f))[1])
            before = len(gcd_calls)
            ours = qpoly_yun(f)
            # small coefficients: the certificate decides every squarefree case
            assert (len(gcd_calls) == before) is squarefree
            assert ours == exact_yun(monkeypatch, f)
            assert_yun_matches_sympy(ours, f)
            seen.add(squarefree)
        assert seen == {True, False}

    @pytest.mark.parametrize("text", [
        "P*z**2 + 1",  # P divides the leading coefficient
        "(z - 1)*(z - 1 - P)",  # squarefree over Q, a double root mod P
    ])
    def test_fall_back_cases_take_the_exact_path(self, monkeypatch, gcd_calls, text):
        expr = sympy.expand(sympy.sympify(text, locals={"z": SZ, "P": P}))
        f = [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, SZ).all_coeffs())]
        assert not algebra.certify_squarefree(algebra.common_denominator(f)[0])
        ours = qpoly_yun(f)
        assert len(gcd_calls) == 1  # the exact gcd decided
        assert ours == exact_yun(monkeypatch, f) == [([c / f[-1] for c in f], 1)]
        assert_yun_matches_sympy(ours, f)


class TestDivisionAgainstSympy:
    def test_sparse_exact_quotients(self):
        rng = random.Random(6)
        for _ in range(25):
            g, h = sparse_poly(rng), sparse_poly(rng)
            f = g * h
            assert f.divexact(h) == g
            assert same(f.divexact(h), sympy.cancel(to_sympy(f) / to_sympy(h)))
            if not h.is_constant():
                with pytest.raises(AlgebraError):
                    (f + 1).divexact(h)

    def test_univariate_gcd_and_squarefree_parts(self):
        rng = random.Random(0)
        for _ in range(25):
            factors = [[Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))] + [Fraction(rng.randint(1, 3))]
                       for _ in range(3)]
            f = [Fraction(1)]
            for k, factor in enumerate(factors):  # the k-th factor to the power k + 1
                for _ in range(k + 1):
                    f = qpoly_mul(f, factor)
            fprime = [f[k] * k for k in range(1, len(f))]
            theirs = monic(sympy.gcd(qpoly_to_sympy(f), qpoly_to_sympy(fprime)))
            assert sympy.expand(qpoly_to_sympy(qpoly_gcd(f, fprime)) - theirs) == 0
            assert_yun_matches_sympy(qpoly_yun(f), f)

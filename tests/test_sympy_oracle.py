"""Differential tests against sympy, an oracle that shares no code with
equijet.  Skipped when sympy is not installed."""

import math
import random
from fractions import Fraction

import pytest

from equijet import polygcd
from equijet.jets import INFINITE_ORDER, Jet, VarContext, hankel_images
from equijet.polygcd import (
    exact_divide,
    jet_gcd,
    rational_roots,
    squarefree_decomposition,
    sturm_real_root_count,
)
from equijet.pseudopoly import (
    PseudoPolynomial,
    generalized_discriminants,
    hankel_minors,
    resultant_jets,
)
from equijet.scalars import NumberField

sympy = pytest.importorskip("sympy")

YX = VarContext.make(["x1", "y"])
X1, Y = sympy.symbols("x1 y")


def to_jet(expr) -> Jet:
    """An exact jet of a polynomial in ``x1, y`` with rational coefficients."""
    poly = sympy.Poly(expr, X1, Y)
    terms = {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}
    return Jet.polynomial(YX, terms, 16)


def to_sympy(j: Jet):
    """The polynomial of an exact jet in ``x1, y``, up to a nonzero scalar."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X1 ** e1 * Y ** e2
               for (e1, e2), c in j.graded_items())
    return sympy.Poly(expr, X1, Y).monic()


def monic_with_repeated_factors(rng):
    """A monic polynomial in ``y`` of degree 2..5 over ``Q[x1]``, mostly with
    a repeated root ``y = r(x1)``, sometimes times ``y^2 - c*x1^k`` (or its
    square)."""
    p = rng.randrange(2, 6)
    quadratics = []
    if p >= 4 and rng.random() < 0.5:
        q = Y ** 2 - rng.choice([1, 2, -3]) * X1 ** rng.randrange(1, 4)
        quadratics = [q, q] if p == 4 and rng.random() < 0.5 else [q]
    roots = [sum(rng.randrange(-2, 3) * X1 ** e for e in range(2))
             for _ in range(p - 2 * len(quadratics))]
    if len(roots) > 1 and rng.random() < 0.7:
        roots[-1] = rng.choice(roots[:-1])
    f = sympy.expand(sympy.Mul(*quadratics) * sympy.Mul(*[Y - r for r in roots]))
    return f, p


CASES = [monic_with_repeated_factors(random.Random(53 + n)) for n in range(20)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_gendisc_against_sympy(case):
    f, p = CASES[case]
    P = PseudoPolynomial.from_jet(to_jet(f), "y")
    assert P.exact and P.degree == p
    gd = generalized_discriminants(P)
    # Delta_1 is the classical discriminant of a monic polynomial
    delta1 = gd.entries[0]
    assert delta1 == to_jet(sympy.discriminant(f, Y)).with_order(delta1.order)
    # the first nonzero index counts the distinct roots
    distinct = sympy.degree(sympy.sqf_part(f), Y)
    assert gd.first_nonzero == p - distinct + 1
    assert gd.certified


def companion_hankel_minors(f, p):
    """``d_1..d_p`` by sympy alone: the power sums are the traces of the
    powers of the companion matrix of ``f``, and each ``d_k`` the
    determinant of the k-by-k Hankel matrix of them."""
    a = sympy.Poly(f, Y).all_coeffs()
    C = sympy.zeros(p, p)
    for i in range(p):
        C[i, p - 1] = -a[p - i]
        if i:
            C[i, i - 1] = 1
    s, power = [], sympy.eye(p)
    for _ in range(2 * p - 1):
        s.append(sympy.expand(power.trace()))
        power = (power * C).applyfunc(sympy.expand)
    return [sympy.expand(sympy.Matrix(k, k, lambda i, j: s[i + j]).det())
            for k in range(1, p + 1)]


def test_hankel_minors_of_sparse_inputs_against_sympy():
    # y^a * (y^b + c*x1^k)^m: exact zeros among the coefficients and the
    # power sums, and repeated roots when a > 1 or m > 1
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def sparse(draw):
        b, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        a = draw(st.integers(0, 5 - b * m)) if b * m < 5 else 0
        c, k = draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 4))
        return a + b * m, sympy.expand(Y ** a * (Y ** b + c * X1 ** k) ** m)

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @hypothesis.given(sparse())
    def check(case):
        p, f = case
        P = PseudoPolynomial.from_jet(to_jet(f), "y")
        assert P.exact and P.degree == p
        got = hankel_minors(P, p)
        assert all(d.exact for d in got)
        assert got == [to_jet(d) for d in companion_hankel_minors(f, p)]

    check()


def integer_monic_with_repeated_roots(rng):
    """A monic polynomial in ``y`` of degree 2..6 over ``Z[x1]``: roots
    ``y = a + b*x1 + c*x1^2`` with ``a, b, c`` up to 2^12 in magnitude,
    some of them repeated, sometimes times an irreducible ``y^2 - d*x1^k``."""
    p = rng.randrange(2, 7)
    quadratic = Y ** 2 - rng.choice([1, 2, -3, 7]) * X1 ** rng.randrange(1, 4) \
        if p >= 3 and rng.random() < 0.4 else 1
    count = p - (2 if quadratic != 1 else 0)
    distinct = [sum(rng.randrange(-2 ** 12, 2 ** 12) * X1 ** e for e in range(3))
                for _ in range(rng.randrange(1, count + 1))]
    roots = distinct + [rng.choice(distinct) for _ in range(count - len(distinct))]
    return sympy.expand(quadratic * sympy.Mul(*[Y - r for r in roots])), p


@pytest.mark.parametrize("seed", range(12))
def test_discriminant_on_integer_images_against_sympy(seed):
    # exact integer input takes the pass on Kronecker images
    f, p = integer_monic_with_repeated_roots(random.Random(311 + seed))
    P = PseudoPolynomial.from_jet(to_jet(f), "y")
    assert P.exact and P.degree == p
    assert hankel_images([a.with_order(INFINITE_ORDER) for a in P.coeffs], p) is not None
    gd = generalized_discriminants(P)
    # Delta_1 = prod_(i<j) (r_i - r_j)^2, which sympy's discriminant of a
    # monic polynomial is: the classical constant lc^(2p-2) is 1
    assert gd.entries[0] == to_jet(sympy.discriminant(f, Y)).with_order(gd.entries[0].order)
    distinct = sympy.degree(sympy.sqf_part(f), Y)
    assert gd.first_nonzero == p - distinct + 1
    assert gd.certified


# pairs of the cases above of total degree at most 6 in y
PAIRS = [(f, g) for (f, p), (g, q) in zip(CASES, CASES[1:]) if p + q <= 6]


@pytest.mark.parametrize("pair", range(len(PAIRS)))
def test_resultant_against_sympy(pair):
    f, g = PAIRS[pair]
    got = resultant_jets(to_jet(f), to_jet(g), "y")
    assert got.exact
    assert got == to_jet(sympy.resultant(f, g, Y)).with_order(got.order)


def random_factor(rng):
    """A small bivariate factor: linear in ``y`` or ``x1``, or ``y^2 - c*x1^k``."""
    kind = rng.randrange(3)
    if kind == 0:
        return Y - rng.randrange(-2, 3) * X1 - rng.randrange(-2, 3) * X1 ** 2
    if kind == 1:
        return X1 + rng.randrange(-2, 3) * Y
    return Y ** 2 - rng.choice([1, 2, -3]) * X1 ** rng.randrange(1, 4)


def random_product(rng, count, max_power=2):
    return sympy.expand(sympy.Mul(*[random_factor(rng) ** rng.randrange(1, max_power + 1)
                                    for _ in range(count)]))


@pytest.fixture
def prs_runs(monkeypatch):
    """The operand pairs on which ``jet_gcd`` runs the pseudo-remainder
    sequence, that is, does not certify a constant gcd by modular images."""
    runs = []
    real = polygcd._gcd
    monkeypatch.setattr(polygcd, "_gcd", lambda a, b: runs.append((a, b)) or real(a, b))
    return runs


def sympy_gcd(f, g):
    """``sympy.gcd`` made monic (the zero polynomial as it is)."""
    h = sympy.Poly(sympy.gcd(f, g), X1, Y)
    return h.monic() if not h.is_zero else h


def check_gcd(f, g, prs_runs, runs=None):
    """``jet_gcd`` agrees with sympy, and runs the sequence if ``runs``; by
    default exactly when an operand is zero or the gcd is not constant."""
    got = jet_gcd(to_jet(f), to_jet(g))
    assert got.exact
    want = sympy_gcd(f, g)
    assert (to_sympy(got) if not got.is_zero() else sympy.Poly(0, X1, Y)) == want
    if runs is None:
        runs = f == 0 or g == 0 or want.total_degree() > 0
    assert bool(prs_runs) == runs


@pytest.mark.parametrize("seed", range(10))
def test_jet_gcd_against_sympy(seed, prs_runs):
    rng = random.Random(71 + seed)
    common = random_product(rng, rng.randrange(0, 3))
    f = sympy.expand(common * random_product(rng, 2))
    g = sympy.expand(common * random_product(rng, 2))
    check_gcd(f, g, prs_runs)


P, (T1, T2) = polygcd._P, polygcd._POINTS
# vanishes at neither point, but its leading coefficients in y and in x1
# vanish at x1 = T1 and at y = T2, where its images are 1
SPLIT_AT_THE_POINTS = (X1 - T1) * (Y - T2) + 1
# (f, g, whether the pseudo-remainder sequence runs)
ADVERSARIAL = {
    # coprime curves through the origin that meet again on x1 = 2, 1, -1
    "meet-again-on-x1=2": (Y - X1 - X1 ** 2, Y - 3 * X1, False),
    "meet-again-on-x1=1": (Y ** 2 - X1 ** 3, Y - X1, False),
    "meet-again-on-x1=-1": (Y - X1 ** 2, Y + X1, False),
    "common-factor-in-x1-only": (X1 * (Y + 1), X1 * (Y - 1), True),
    "common-factor-in-y-only": (Y * (X1 + 1), Y * (X1 - 1), True),
    # coprime, but the certificate declines: both degrees in y drop mod P
    "top-numerator-divisible-by-P": (P * Y ** 2 + X1, P * Y ** 2 + X1 + 1, True),
    # coprime, but not reducible mod P
    "denominator-divisible-by-P": (Y / P + X1, Y - X1, True),
    "degrees-drop-at-the-points": (sympy.expand(SPLIT_AT_THE_POINTS * X1),
                                   sympy.expand(SPLIT_AT_THE_POINTS * Y), True),
    "zero-operand": (sympy.Integer(0), Y - X1 ** 2, True),
    "zero-operands": (sympy.Integer(0), sympy.Integer(0), True),
}


@pytest.mark.parametrize("case", ADVERSARIAL)
def test_coprime_certificate_on_adversarial_pairs(case, prs_runs):
    f, g, runs = ADVERSARIAL[case]
    check_gcd(f, g, prs_runs, runs)


def test_coprime_certificate_property(prs_runs):
    """Random small operands, often with a common factor, against sympy."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.builds(sympy.Rational, st.integers(-4, 4).filter(bool), st.sampled_from((1, 2, 3)))
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), coeffs,
                            min_size=1, max_size=4)

    def expr(t):
        return sum((c * X1 ** e1 * Y ** e2 for (e1, e2), c in t.items()), sympy.Integer(0))

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(terms, terms, st.sampled_from((1, 1, 1, X1, Y, Y - X1 ** 2, X1 + 2 * Y + 1)))
    def check(a, b, common):
        prs_runs.clear()
        check_gcd(sympy.expand(common * expr(a)), sympy.expand(common * expr(b)), prs_runs)

    check()


# S stands for sqrt(2) until the comparison with sympy
S = sympy.Symbol("s")
SQRT2 = NumberField([-2, 0, 1])
# the domain of sympy.gcd(..., extension=sqrt(2)), built once
QQ_SQRT2 = sympy.QQ.algebraic_field(sympy.sqrt(2))
X1_FACTORS = (X1 + 2, X1 ** 2 + 1, 3 * X1 - 1)
Y_FACTORS = (Y - X1 / 3 + sympy.Rational(1, 2), Y - X1 - X1 ** 2, X1 + 2 * Y, Y ** 2 - 2 * X1 ** 3)
SQRT2_FACTORS = (Y - S * X1, X1 - S)


def field_jet(expr) -> Jet:
    """An exact jet in ``x1, y`` over Q(sqrt 2) of a polynomial in ``x1, y, s``."""
    vecs = {}
    for (e1, e2, es), c in sympy.Poly(sympy.expand(expr), X1, Y, S).terms():
        vec = vecs.setdefault((e1, e2), [Fraction(0), Fraction(0)])
        vec[es % 2] += Fraction(int(c.p), int(c.q)) * 2 ** (es // 2)
    return Jet.polynomial(YX, {k: SQRT2.element(v) for k, v in vecs.items()}, 16)


def sqrt2_poly(j: Jet):
    """The polynomial of an exact jet over Q(sqrt 2), up to a nonzero scalar."""
    def value(c):
        a, b = (c, 0) if isinstance(c, (int, Fraction)) else c.coeffs
        return sympy.Rational(a) + sympy.Rational(b) * sympy.sqrt(2)
    expr = sum(value(c) * X1 ** e1 * Y ** e2 for (e1, e2), c in j.graded_items())
    return sympy.Poly(expr, X1, Y, domain=QQ_SQRT2).monic()


def gcd_case(n):
    """Operands whose contents in ``x1`` are not powers of ``x1``, some with
    non-integer coefficients, under rational scalings.  In one case of every
    three both have factors over Q(sqrt 2); the gcd of every other even case
    has a content over Q; in one case of every four ``g`` has degree 0 in
    ``y``."""
    rng = random.Random(181 + n)
    flat, sqrt2 = n % 4 == 1, n % 3 == 0
    # sympy's gcds over Q(sqrt 2) are slow: fewer factors over Q there
    most = 2 if sqrt2 else 3

    def product(pool, count):
        return sympy.Mul(*[rng.choice(pool) for _ in range(count)])

    def scaling():
        return sympy.Rational(rng.choice([1, -2, 3, 5]), rng.choice([1, 2, 7]))

    common = product(X1_FACTORS if flat else X1_FACTORS + Y_FACTORS, rng.randrange(0, most))
    if n % 2 == 0 and not sqrt2:
        common *= rng.choice(X1_FACTORS)
    f = common * product(X1_FACTORS + Y_FACTORS, rng.randrange(1, most))
    g = common * product(X1_FACTORS if flat else X1_FACTORS + Y_FACTORS, rng.randrange(0, most))
    if sqrt2:
        common = rng.choice(SQRT2_FACTORS)
        f, g = f * common * rng.choice(SQRT2_FACTORS), g * common
    return f * scaling(), g * scaling()


@pytest.mark.parametrize("n", range(12))
def test_jet_gcd_with_contents_and_sqrt2_against_sympy(n):
    f, g = gcd_case(n)
    got = jet_gcd(field_jet(f), field_jet(g))
    assert got.exact
    assert got.graded_items()[-1][1] == 1
    f, g = (sympy.Poly(sympy.expand(h.subs(S, sympy.sqrt(2))), X1, Y, domain=QQ_SQRT2)
            for h in (f, g))
    assert sqrt2_poly(got) == f.gcd(g).monic()


@pytest.mark.parametrize("f, g", [(Y - S * X1, Y + S * X1), (Y - X1, Y - S * X1)],
                         ids=["both-over-sqrt2", "one-over-sqrt2"])
def test_coprime_pairs_over_sqrt2_run_the_sequence(f, g, prs_runs):
    # the certificate takes rational coefficients only
    got = jet_gcd(field_jet(f), field_jet(g))
    assert got == Jet.constant(YX, 1, 16) and got.exact
    assert prs_runs


def test_exact_divide_of_a_product_property():
    """``exact_divide(a*b, b)`` is ``a``; ``a*b + c`` for a nonzero constant
    ``c`` is not divisible by a nonconstant ``b``, as ``sympy.div`` confirms."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeffs = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))

    @st.composite
    def case(draw):
        width = draw(st.integers(2, 3))
        exps = st.tuples(*[st.integers(0, 3)] * width)
        a = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4))
        b = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=4).filter(
            lambda t: any(any(k) for k in t)))
        return width, a, b, draw(coeffs)

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(case())
    def check(drawn):
        width, a_terms, b_terms, c = drawn
        ctx = VarContext.make([f"x{i}" for i in range(1, width + 1)])
        a, b = (Jet.polynomial(ctx, t, INFINITE_ORDER) for t in (a_terms, b_terms))
        assert exact_divide(a * b, b) == a
        shifted = a * b + Jet.constant(ctx, c, INFINITE_ORDER)
        assert exact_divide(shifted, b) is None
        gens = sympy.symbols(ctx.names)

        def expr(j):
            return sum(sympy.Rational(v.numerator, v.denominator) * sympy.Mul(
                *[x ** e for x, e in zip(gens, k)]) for k, v in j.graded_items())
        assert not sympy.div(expr(shifted), expr(b), *gens)[1].is_zero

    check()


@pytest.mark.parametrize("seed", range(10))
def test_squarefree_decomposition_against_sympy(seed):
    f = random_product(random.Random(97 + seed), 3, max_power=3)
    got = {m: to_sympy(part) for part, m in squarefree_decomposition(to_jet(f))}
    _, parts = sympy.sqf_list(f, X1, Y)
    assert got == {m: sympy.Poly(part, X1, Y).monic() for part, m in parts}


def random_univariate(rng):
    """A rational polynomial with a few rational roots (one maybe repeated)
    times a few quadratics ``x^2 - c``, rational, irrational or complex roots."""
    roots = [sympy.Rational(rng.randrange(-6, 7), rng.randrange(1, 4))
             for _ in range(rng.randrange(0, 4))]
    quads = [X1 ** 2 - rng.choice([-2, -1, 2, 3, 5]) for _ in range(rng.randrange(0, 3))]
    expr = sympy.expand(rng.randrange(1, 4) * sympy.Mul(*[X1 - r for r in roots])
                        * sympy.Mul(*quads))
    return expr if expr.has(X1) else X1 * expr


def to_uni(expr):
    return [Fraction(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, X1).all_coeffs())]


def with_large_constant(rng):
    """A cubic whose integer constant term has 18 digits or more: a rational
    root of up to 21 digits times ``x^2 - m^2 - e``, rational roots for
    ``e = 0`` and irrational ones otherwise."""
    p, q = rng.randrange(10 ** 9, 10 ** 21), rng.randrange(1, 1000)
    m, e = rng.randrange(10 ** 9, 10 ** 12), rng.choice([-1, 0, 1])
    expr = sympy.expand((q * X1 + rng.choice([-1, 1]) * p) * (X1 ** 2 - m ** 2 - e))
    assert abs(sympy.Poly(expr, X1).all_coeffs()[-1]) >= 10 ** 17
    return expr


@pytest.mark.parametrize("seed", range(12))
def test_rational_roots_against_sympy(seed):
    rng = random.Random(113 + seed)
    for expr in (random_univariate(rng), with_large_constant(rng)):
        want = sorted(Fraction(int(r.p), int(r.q)) for r in sympy.roots(sympy.Poly(expr, X1))
                      if r.is_rational)
        assert rational_roots(to_uni(expr)) == want
        # the same roots from int coefficients, denominators cleared
        coeffs = to_uni(expr)
        den = math.lcm(*(c.denominator for c in coeffs))
        assert rational_roots([int(c * den) for c in coeffs]) == want


@pytest.mark.parametrize("seed", range(12))
def test_sturm_real_root_count_against_sympy(seed):
    squarefree = sympy.sqf_part(random_univariate(random.Random(131 + seed)))
    want = sympy.Poly(squarefree, X1).count_roots()
    assert sturm_real_root_count(to_uni(squarefree)) == want

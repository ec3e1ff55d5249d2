import dataclasses
import random
from fractions import Fraction

import pytest

from equijet.deform import SolutionFamily
from equijet.errors import (
    CoprimalityError,
    LemmaViolationError,
    PreconditionError,
)
from equijet import mero
from equijet.jets import INFINITE_ORDER, Jet, VarContext
from equijet.mero import (
    FactoredGerm,
    analyze,
    build_mero_deformation,
    divisor_constant,
    emit_system,
    theta,
)
from equijet.parser import parse_factored, parse_jet
from equijet.polygcd import (
    content_split,
    exact_divide,
    exact_power_dividing,
    is_constant,
    jet_gcd,
    squarefree_decomposition,
    x2_content,
)

X = VarContext.make(["x1", "x2"])


def x1(order=16):
    return Jet.variable(X, "x1", order)


def x2(order=16):
    return Jet.variable(X, "x2", order)


def germ(*factors):
    return FactoredGerm.build(list(factors))


def proportional(a, b):
    """Equal up to a nonzero scalar multiple."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    qa = exact_divide(a, b)
    return qa is not None and is_constant(qa)


# -- gcd toolbox ---------------------------------------------------------

def test_jet_gcd_basics():
    a = (x1() + x2()) ** 2 * x1()
    b = (x1() + x2()) * x2()
    g = jet_gcd(a, b)
    assert proportional(g, x1() + x2())


def test_exact_divide_roundtrip():
    rng = random.Random(3)
    for _ in range(25):
        a = Jet.zero(X, 20)
        for _ in range(rng.randrange(1, 4)):
            a = a + Jet.monomial(X, (rng.randrange(0, 3), rng.randrange(0, 3)),
                                 Fraction(rng.randrange(-3, 4)), 20)
        b = x1() + x2() if rng.random() < 0.5 else x2() ** 2 + x1()
        if a.is_zero():
            continue
        prod = a * b.with_order(20)
        q = exact_divide(prod, b.with_order(20))
        assert q is not None and (q - a).is_zero()
        if not is_constant(a):
            assert exact_divide(b.with_order(20) + 1, b.with_order(20)) is None


def test_squarefree_decomposition():
    d = (x1() - x2()) ** 2 * (x1() + x2())
    parts = squarefree_decomposition(d)
    assert sorted(m for _, m in parts) == [1, 2]
    by_mult = {m: p for p, m in parts}
    assert proportional(by_mult[2], x1() - x2())
    assert proportional(by_mult[1], x1() + x2())


def test_squarefree_decomposition_takes_each_gcd_once(monkeypatch):
    import equijet.polygcd as polygcd

    calls = []
    real = polygcd.jet_gcd
    monkeypatch.setattr(polygcd, "jet_gcd", lambda a, b: calls.append(1) or real(a, b))
    d = (x1() - x2()) ** 2 * (x1() + x2()) ** 3 * (x2() - x1() ** 2)
    parts = {m: p for p, m in squarefree_decomposition(d)}
    # two gcds per step of a chain of four; none is taken again
    assert len(calls) == 6
    assert sorted(parts) == [1, 2, 3]
    assert proportional(parts[1], x2() - x1() ** 2)
    assert proportional(parts[2], x1() - x2())
    assert proportional(parts[3], x1() + x2())


def test_x2_content_is_the_monic_gcd_of_the_x2_coefficients():
    f = (x1() ** 2 + x1()) * (x2() ** 2 - x1() * x2()).scale(3)
    assert x2_content(f) == [0, 1, 1]
    assert x2_content(x2() ** 2 + x1()) == [1]


def test_content_split_of_a_quadratic_content_keeps_the_scalar_on_the_primitive_part():
    # content (x1 + 2)*(3*x1 - 1)/3, monic in x1; the primitive part keeps
    # the rest, scalars included
    primitive = (x2() ** 2 - x1() * x2() + x1() ** 3).scale(Fraction(-5, 2))
    f = (x1() + 2) * (x1().scale(3) - 1) * primitive
    content, rest = content_split(f)
    assert content.graded_items() == [((0, 0), Fraction(-2, 3)), ((1, 0), Fraction(5, 3)),
                                      ((2, 0), Fraction(1))]
    assert content.exact and rest.exact
    assert rest.graded_items() == primitive.scale(3).graded_items()
    assert (content * rest).graded_items() == f.graded_items()
    assert x2_content(rest) == [1]


def test_exact_power_dividing():
    a = (x1() - x2()) ** 3 * x2()
    m, cof = exact_power_dividing(a, x1() - x2())
    assert m == 3
    assert proportional(cof, x2())


# -- factored germs and the 1-form ----------------------------------------

def test_factored_germ_rejects_non_squarefree_factor():
    with pytest.raises(PreconditionError):
        germ((x1() ** 2 * x2(), 1))


def test_factored_germ_rejects_shared_factor():
    with pytest.raises(PreconditionError):
        germ((x1(), 1), (x1(), 2))


@pytest.mark.parametrize("factors", [((x1(), 1), (x1(), 2)), ((x1() * x2(), 1), (x2(), 1))])
def test_factored_germ_constructor_rejects_a_repeated_or_shared_factor(factors):
    # the checks run on construction, not only in build
    with pytest.raises(PreconditionError, match="share a divisor"):
        FactoredGerm(factors=factors)


def test_factored_germ_rejects_nonvanishing():
    with pytest.raises(PreconditionError):
        germ((1 + x1(), 1))


def test_theta_square_over_line():
    f = germ((x2(), 2))
    g = germ((x1(), 1))
    th = theta(f, g)
    assert th.a == -x2().with_order(th.a.order)
    assert th.b == (2 * x1()).with_order(th.b.order)


def test_factored_product_is_exact_at_a_finite_order():
    f = FactoredGerm.build([(x2() - x1() ** 2, 2), (x1(), 1)])
    assert f.product.exact and f.product.order < INFINITE_ORDER
    assert f.product == (x2() - x1() ** 2) ** 2 * x1()


def test_germ_products_are_formed_only_when_read(monkeypatch):
    formed = []
    product = mero._product
    monkeypatch.setattr(mero, "_product",
                        lambda jets, exps: formed.append(tuple(exps)) or product(jets, exps))
    f = germ((x2(), 2))
    g = germ((x1(), 1))
    assert formed == []
    # no divisor and no candidate: theta is built from the factors alone
    assert analyze(f, g).e == 0
    assert formed == []
    assert f.product == x2() ** 2
    assert f.product is f.product
    assert formed == [(2,)]


def test_theta_product_against_double_line():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    th = theta(f, g)
    want_a = (x2() - x1()) * x2()
    want_b = (x2() - x1()) * (-x1())
    assert (th.a - want_a.with_order(th.a.order)).is_zero()
    assert (th.b - want_b.with_order(th.b.order)).is_zero()


def test_theta_reduced_case():
    f = germ((x2(), 1))
    g = germ((x1(), 1))
    th = theta(f, g)
    assert (th.a - (-x2()).with_order(th.a.order)).is_zero()
    assert (th.b - x1().with_order(th.b.order)).is_zero()


def test_theta_rejects_common_factor():
    with pytest.raises(CoprimalityError):
        theta(germ((x1(), 1)), germ((x1(), 2)))


def test_theta_rejects_a_factor_shared_inside_a_composite_base():
    curve = x2() - x1() ** 2
    with pytest.raises(CoprimalityError, match="^f and g share a factor$"):
        theta(germ((x1() * curve, 1)), germ((curve, 2)))


# irreducible curves through the origin; distinct ones are coprime
CURVES = ["x1", "x2", "x1 + x2", "x1 - x2", "x1 + 2*x2", "x2 - x1^2", "x1 - x2^2",
          "x2^2 - x1^3"]


def random_coprime_pair(rng):
    """Two germs of 1-3 distinct curves each, none shared, exponents 1-3."""
    picked = rng.sample(CURVES, rng.randrange(2, 7))
    cut = rng.randrange(max(1, len(picked) - 3), min(3, len(picked) - 1) + 1)
    factors = [(parse_jet(c, X, 16), rng.randrange(1, 4)) for c in picked]
    return germ(*factors[:cut]), germ(*factors[cut:])


def quotient_theta(f, g):
    """theta the long way: ``F*G*(g*df - f*dg) / (f*g)`` by exact division,
    every operand at the order that theta prints."""
    order = (2 * (f.product.total_degree() + g.product.total_degree())
             + sum(base.total_degree() for base, _ in f.factors + g.factors) + 4)
    fp, gp = f.product.with_order(order), g.product.with_order(order)
    red = Jet.constant(X, 1, order)
    for base, _ in f.factors + g.factors:
        red = red * base.with_order(order)
    return [exact_divide(red * (gp * fp.derivative(v).with_order(order)
                                - fp * gp.derivative(v).with_order(order)), fp * gp)
            for v in ("x1", "x2")]


def test_theta_identity_property():
    rng = random.Random(14)
    for _ in range(30):
        f, g = random_coprime_pair(rng)
        th = theta(f, g)
        # terms, order and flag
        assert [th.a, th.b] == quotient_theta(f, g)


def test_theta_against_sympy():
    sympy = pytest.importorskip("sympy")
    s1, s2 = sympy.symbols("x1 x2")

    def expr(j):
        return sum(sympy.Rational(c.numerator, c.denominator) * s1 ** e1 * s2 ** e2
                   for (e1, e2), c in j.graded_items())

    rng = random.Random(41)
    for _ in range(4):
        f, g = random_coprime_pair(rng)
        th = theta(f, g)
        fs = sympy.Mul(*[expr(b) ** e for b, e in f.factors])
        gs = sympy.Mul(*[expr(b) ** e for b, e in g.factors])
        red = sympy.Mul(*[expr(b) for b, _ in f.factors + g.factors])
        for coeff, v in ((th.a, s1), (th.b, s2)):
            want = sympy.cancel(red * (sympy.diff(fs, v) / fs - sympy.diff(gs, v) / gs))
            assert sympy.expand(expr(coeff) - want) == 0


# -- divisor constants ------------------------------------------------------

def test_divisor_constant_fixture():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    dc = divisor_constant(x1() - x2(), f, g)
    assert dc is not None
    assert dc.c == Fraction(1, 4)
    assert dc.mu == 1
    assert dc.rho.constant_term() == Fraction(-1, 4)
    assert is_constant(dc.rho)


def test_divisor_constant_precondition():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    with pytest.raises(PreconditionError):
        divisor_constant(x1() + x2(), f, g)


def test_divisor_constant_mu_zero_boundary():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    dc = divisor_constant(x1() - 2 * x2(), f, g)
    assert dc is not None
    assert dc.c == Fraction(2, 9)
    assert dc.mu == 0
    # f - (2/9) g = h * rho exactly
    target = f.product - g.product.scale(Fraction(2, 9))
    h = (x1() - 2 * x2()).with_order(target.order)
    q = exact_divide(target, h)
    assert q is not None and (q - dc.rho).is_zero()


def test_divisor_constant_none():
    f = germ((x2(), 2))
    g = germ((x1(), 1))
    assert divisor_constant(x1() - x2(), f, g) is None


def test_divisor_constant_algebraic():
    # f - c g = x1^2 - 2 x2^2 at c solving c = ...: build a fixture with
    # irrational constant: h = x1^2 - 2 x2^2 (irreducible over Q), f = h * x2 + g
    h = x1() ** 2 - 2 * x2() ** 2
    g = germ((x1(), 3))
    f_poly = h * x2() + x1() ** 3
    f = germ((f_poly, 1))
    dc = divisor_constant(h, f, g)
    assert dc is not None
    assert dc.c == Fraction(1)
    assert dc.mu == 0


# -- full analysis -----------------------------------------------------------

def test_analyze_fixture_single_divisor():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    an = analyze(f, g)
    assert an.e == 1
    rec = an.records[0]
    assert proportional(rec.h, x1() - x2())
    assert rec.c == Fraction(1, 4)
    assert rec.mu == 1
    assert an.reality == "rational"
    assert proportional(an.omega.a, x2())
    assert proportional(an.omega.b, x1())
    # omega = theta / h: up to one constant for both coefficients together
    qa = exact_divide(an.theta.a, rec.h)
    qb = exact_divide(an.theta.b, rec.h)
    assert (qa - an.omega.a).is_zero() and (qb - an.omega.b).is_zero()


def test_analyze_no_divisors():
    f = germ((x2(), 2))
    g = germ((x1(), 1))
    an = analyze(f, g)
    assert an.e == 0
    assert an.omega.a == an.theta.a and an.omega.b == an.theta.b
    assert is_constant(jet_gcd(an.omega.a, an.omega.b))


def test_analysis_keeps_its_germs():
    # build_mero_deformation reads f and g from here, so no other germs reach it
    f, g = germ((x1(), 1), (x2(), 1)), germ((x1() + x2(), 2))
    an = analyze(f, g)
    assert an.f is f and an.g is g


def test_analyze_reduced_lines():
    an = analyze(germ((x2(), 1)), germ((x1(), 1)))
    assert an.e == 0
    assert (an.omega.a + x2().with_order(an.omega.a.order)).is_zero()


def test_analyze_conjugate_divisor_pair():
    # f - c g = (x1 -+ 4i x2)^2 at c = +-8i: the coefficient gcd is the
    # rationally irreducible x1^2 + 16 x2^2, split over one extension
    f = germ((x1() + 4 * x2(), 1), (x1() - 4 * x2(), 1))
    g = germ((x1(), 1), (x2(), 1))
    an = analyze(f, g)
    assert an.e == 2
    assert an.reality == "not-real"
    for rec in an.records:
        assert rec.mu == 1
        assert rec.minpoly == (Fraction(64), Fraction(0), Fraction(1))
        target = f.product - g.product.scale(rec.c)
        m, _ = exact_power_dividing(target, rec.h.with_order(target.order))
        assert m == rec.mu + 1


def test_analyze_two_rational_divisors():
    # two divisor records with distinct rational constants:
    # f - 1*g = (x1 - x2)^2 * 1 and f - 4*g = (x1 - 2 x2)^2 * 1
    g = germ((x2(), 2))
    f_poly = (x1() - x2()) ** 2 + x2() ** 2
    f = germ((f_poly, 1))
    an = analyze(f, g)
    constants = sorted(rec.c for rec in an.records)
    assert Fraction(1) in constants
    for rec in an.records:
        target = f.product - g.product.scale(rec.c)
        m, _ = exact_power_dividing(target, rec.h.with_order(target.order))
        assert m == rec.mu + 1


@pytest.mark.parametrize("f_factors, g_factors, minpolys", [
    # f - c g = (x1 -+ sqrt(2) x2)^2 at c = +-2 sqrt(2)
    (lambda: [(x1() ** 2 + 2 * x2() ** 2, 1)], lambda: [(x1(), 1), (x2(), 1)],
     [(Fraction(-8), Fraction(0), Fraction(1))] * 2),
    # the line x1 + 3 x2 at c = 3/8 beside a real conjugate pair
    (lambda: [(x1() + 2 * x2(), 2), (x1() ** 2 - 3 * x2() ** 2, 1)],
     lambda: [(x1() ** 2 - 5 * x2() ** 2, 2)],
     [None] + [(Fraction(-1, 200), Fraction(261, 200), Fraction(1))] * 2),
], ids=["real-pair", "rational-among-real"])
def test_analyze_real_constants(f_factors, g_factors, minpolys):
    f, g = germ(*f_factors()), germ(*g_factors())
    an = analyze(f, g)
    assert an.reality == "real"
    assert [rec.minpoly for rec in an.records] == minpolys
    for rec in an.records:
        assert rec.mu == 1
        target = f.product - g.product.scale(rec.c)
        m, _ = exact_power_dividing(target, rec.h.with_order(target.order))
        assert m == rec.mu + 1


def test_analyze_lemma_bookkeeping_randomized():
    rng = random.Random(97)
    done = 0
    while done < 25:
        a = rng.randrange(1, 4)
        b = rng.randrange(-3, 4)
        if b == 0:
            continue
        h = a * x1() + b * x2()
        m = rng.choice([2, 3])
        c = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        g_base = x1() + rng.randrange(1, 4) * x2()
        k = rng.randrange(1, 3)
        rho = Jet.constant(X, rng.randrange(1, 4), 16) + \
            (x1() if rng.random() < 0.5 else x2()) * rng.randrange(0, 2)
        f_poly = h ** m * rho + g_base.with_order(16) ** k * c
        if is_constant(jet_gcd(f_poly, g_base)) is False:
            continue
        if not is_constant(jet_gcd(f_poly, h)):
            continue
        sq = jet_gcd(f_poly, f_poly.derivative("x1").with_order(16))
        sq = jet_gcd(sq, f_poly.derivative("x2").with_order(16))
        if not is_constant(sq):
            continue
        f = germ((f_poly, 1))
        g = germ((g_base, k))
        dc = divisor_constant(h, f, g)
        assert dc is not None
        assert dc.c == c
        assert dc.mu == m - 1
        # exact h-power in theta equals m - 1
        th = theta(f, g)
        pa, _ = exact_power_dividing(th.a, h.with_order(th.a.order))
        pb, _ = exact_power_dividing(th.b, h.with_order(th.b.order))
        assert min(pa, pb) == m - 1
        done += 1


@pytest.mark.parametrize("f_factors, g_factors", [
    # f - g = x1^2 (4 x1 - 4 x2 - 5 x1^2)
    (lambda: [(x2() - x1() + x1() ** 2, 1), (x2() - x1() - x1() ** 2, 1)],
     lambda: [(x2() - x1() + 2 * x1() ** 2, 2)]),
    # f - g = 2 x1^2 (2 + x1)^2
    (lambda: [(x2() - x1() - x1() ** 2, 1), (x2() + x1(), 1)],
     lambda: [(x2() - 3 * x1() - 2 * x1() ** 2, 1), (x2() + 3 * x1() + x1() ** 2, 1)]),
], ids=["x1-divisor", "x1-times-unit-divisor"])
def test_analyze_divisor_in_x1_alone(f_factors, g_factors):
    # a divisor factor in x1 alone gets no constant from eliminating x2; the
    # analysis splits it off as the x2-content of its squarefree piece
    f, g = germ(*f_factors()), germ(*g_factors())
    an = analyze(f, g)
    assert an.records
    divisor = Jet.constant(X, 1, 16)
    for rec in an.records:
        target = f.product - g.product.scale(rec.c)
        power = rec.h.with_order(target.order) ** (rec.mu + 1)
        assert exact_divide(target, power) is not None
        divisor = divisor * rec.h.with_order(16) ** rec.mu
    assert proportional(an.theta.coefficient_gcd(), divisor)


def test_divisors_of_f_or_g_never_divide_theta():
    f = germ((x2(), 2))
    g = germ((x1(), 1))
    th = theta(f, g)
    assert exact_divide(th.a, x2().with_order(th.a.order)) is None or \
        exact_divide(th.b, x2().with_order(th.b.order)) is None
    assert exact_divide(th.a, x1().with_order(th.a.order)) is None or \
        exact_divide(th.b, x1().with_order(th.b.order)) is None


def test_analyze_lemma_violation_on_reducible_factor():
    # declare x1^2 - x2^2 as one "irreducible" factor; its two lines have
    # different constants, which must surface as a lemma violation somewhere
    f = germ((x1() * x1() - x2() * x2(), 1))
    g = germ((x1(), 1), (x2(), 1))
    with pytest.raises((LemmaViolationError, PreconditionError)):
        analyze(f, g)
        divisor_constant(x1() ** 2 - x2() ** 2, f, g)


# -- the emitted system ------------------------------------------------------

def test_emit_system_fixture():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    an = analyze(f, g)
    sysS = emit_system(an)
    # the constant 1/4 and the power mu + 1 = 2 of the single record
    [(lhs, rhs)] = sysS.equations
    assert str(lhs) == "-1/4*y2_1^2 + y1_1*y1_2"
    assert str(rhs) == "y3_1^2*y4_1"
    assert len(sysS.solution) == 5  # x1, x2, x1+x2, h, rho
    # substituting the reference solution gives exact zero
    subst = {name: sol.with_order(40) for name, sol in
             zip(sysS.y1_names + sysS.y2_names + sysS.y3_names + sysS.y4_names,
                 sysS.solution)}
    for lhs, rhs in sysS.equations:
        resid = (lhs - rhs).compose(subst, allow_constant=True)
        assert resid.is_zero() and resid.exact


def test_emit_system_empty():
    f = germ((x2(), 2))
    g = germ((x1(), 1))
    sysS = emit_system(analyze(f, g))
    assert sysS.equations == ()
    assert sysS.solution == (x2(), x1())


def test_emit_system_two_divisor_fixture():
    # constructed from two distinct constants: f = x1 x2 against g with two
    # records requires a germ pair whose gcd splits twice; reuse the analyze
    # fixture plus the informational machinery instead
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    an = analyze(f, g, candidates=[x1() - 2 * x2()])
    assert an.e == 1
    assert len(an.informational) == 1
    info = an.informational[0]
    assert info.mu == 0 and info.c == Fraction(2, 9)
    sysS = emit_system(an)
    # informational records enter no equation
    assert len(sysS.equations) == 1


# -- deformation slices -------------------------------------------------------

def _fixture_family(an, sysS, f, g, witness_tail=False):
    x_names = ("x1", "x2")
    z_names = ("z1",)
    fam_ctx = VarContext.make(x_names + z_names)
    x_ctx = VarContext.make(x_names)
    comps = []
    for base in sysS.solution:
        comps.append(base.in_context(fam_ctx))
    witness = Jet.variable(x_ctx, "x1") ** 3 if witness_tail else Jet.zero(x_ctx)
    y_names = sysS.y1_names + sysS.y2_names + sysS.y3_names + sysS.y4_names
    sys_ctx = VarContext.make(x_names + y_names)
    system = tuple((lhs - rhs).in_context(sys_ctx) for lhs, rhs in sysS.equations)
    return SolutionFamily(
        x_names=x_names, y_names=y_names, z_names=z_names,
        system=system,
        family=tuple(comps),
        witness=(witness,),
        target=tuple(base for base in sysS.solution))


def test_mero_deformation_identity_family():
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    an = analyze(f, g)
    sysS = emit_system(an)
    family = _fixture_family(an, sysS, f, g)
    rep = build_mero_deformation(an, family, [Fraction(0), Fraction(1, 2), Fraction(1)],
                                 k0=4)
    assert len(rep.slices) == 3
    for sl in rep.slices:
        assert sl.division_exact
        assert sl.isolated_singularity
        assert sl.polynomial_data
    assert rep.slices[0].reproduces_quotient is True
    assert rep.slices[1].reproduces_quotient is None


TRANSLATION = ("x1+z-({w})", "x2+z-({w})", "x1+x2+2*z-2*({w})", "x1-x2", "-1/4")


def _translation_case(witness, order):
    """The translation family of the golden ``mero_deform_family`` command
    through ``witness``, as ``mero-deform --zvars z`` builds it:
    ``(x1, x2, x1 + x2, x1 - x2, -1/4)`` shifted by ``z - witness``."""
    f = FactoredGerm.build(parse_factored("(x1)*(x2)", X, order))
    g = FactoredGerm.build(parse_factored("(x1+x2)^2", X, order))
    an = analyze(f, g)
    sysS = emit_system(an)
    fam_ctx = VarContext.make(["x1", "x2", "z"])
    fam = tuple(parse_jet(text.format(w=witness), fam_ctx, order) for text in TRANSLATION)
    y_names = sysS.y1_names + sysS.y2_names + sysS.y3_names + sysS.y4_names
    sys_ctx = VarContext.make(("x1", "x2") + y_names)
    family = SolutionFamily(
        x_names=("x1", "x2"), y_names=y_names, z_names=("z",),
        system=tuple((lhs - rhs).in_context(sys_ctx) for lhs, rhs in sysS.equations),
        family=fam, witness=(parse_jet(witness, X, order),), target=sysS.solution)
    return an, family, f, g


def _slices_from_scratch(an, family, t_grid, k0, f, g):
    """The oracle: every slice worked out from its own components, with no
    outcome reused and no slice taken for the analysed germ."""
    f_exps, g_exps = [exp for _, exp in f.factors], [exp for _, exp in g.factors]
    mus = [rec.mu for rec in an.records]
    p, q, e = len(f_exps), len(g_exps), len(mus)
    out = []
    for t0 in t_grid:
        subst = {}
        for name, w in zip(family.z_names, family.witness):
            trunc = w.polynomial_part(min(k0, w.order - 1))
            subst[name] = trunc + (w - trunc).scale(1 - t0)
        comps = [comp.compose(subst) for comp in family.family]
        note, isolated, poly_data = "", None, all(c.exact for c in comps)
        try:
            th = theta(FactoredGerm.build(list(zip(comps[:p], f_exps))),
                       FactoredGerm.build(list(zip(comps[p:p + q], g_exps))))
            omega = th.divided((hk.with_order(th.a.order), mu)
                               for hk, mu in zip(comps[p + q:p + q + e], mus))
            division_exact = omega is not None
            if division_exact:
                isolated = is_constant(omega.coefficient_gcd())
        except PreconditionError as err:
            division_exact, note = False, str(err)
        reproduces = None
        if t0 == 0 and poly_data:
            fprod, gprod, fp, gp = (j.with_order(INFINITE_ORDER) for j in (
                mero._product(comps[:p], f_exps), mero._product(comps[p:p + q], g_exps),
                f.product, g.product))
            reproduces = (fprod * gp - fp * gprod).is_zero()
        out.append(mero.SliceReport(t_value=t0, division_exact=division_exact,
                                    isolated_singularity=isolated,
                                    reproduces_quotient=reproduces,
                                    polynomial_data=poly_data, note=note))
    return tuple(out)


def _theta_calls(monkeypatch, *args, **kwargs):
    """The slices of ``build_mero_deformation`` and the theta calls it made."""
    calls = []
    real = mero.theta
    monkeypatch.setattr(mero, "theta", lambda f, g: calls.append(1) or real(f, g))
    rep = build_mero_deformation(*args, **kwargs)
    monkeypatch.undo()
    return rep.slices, len(calls)


GOLDEN_WITNESS = "x1^2+x1^6"


@pytest.mark.parametrize("grid, calls", [
    ((0, Fraction(1, 2), 1), 2),       # t = 0 is the analysed germ
    ((Fraction(1, 2), 1), 2),
    ((Fraction(1, 2), Fraction(1, 2), 1), 3),  # a repeated slice is worked out again
    ((0, 0, Fraction(1, 2), 0), 1),
])
def test_mero_deformation_works_out_every_slice_but_the_analysed_germ(monkeypatch, grid, calls):
    an, family, f, g = _translation_case(GOLDEN_WITNESS, 10)
    grid = [Fraction(t) for t in grid]
    slices, made = _theta_calls(monkeypatch, an, family, grid, k0=4)
    assert made == calls
    assert slices == _slices_from_scratch(an, family, grid, 4, f, g)


@pytest.mark.parametrize("component, extra, reproduces", [
    (0, "x1^12", False),  # above the order 10 of the factor targets
    (3, "x1^16", True),   # above the order 15 of the divisor target
], ids=["f-factor", "divisor"])
def test_mero_deformation_checks_the_quotient_of_a_t0_slice_that_is_not_the_germ(
        component, extra, reproduces):
    # the family and its witness are stated at order 20, and one component
    # carries a term above its target's order: the family still hits the
    # targets, but its slice at t = 0 is not the analysed germ
    sympy = pytest.importorskip("sympy")
    an, family, f, g = _translation_case(GOLDEN_WITNESS, 10)
    texts = list(TRANSLATION)
    texts[component] += "+" + extra
    fam_ctx = VarContext.make(["x1", "x2", "z"])
    family = dataclasses.replace(
        family, family=tuple(parse_jet(t.format(w=GOLDEN_WITNESS), fam_ctx, 20) for t in texts),
        witness=(parse_jet(GOLDEN_WITNESS, X, 20),))
    [sl] = build_mero_deformation(an, family, [Fraction(0)], k0=4).slices
    # the oracle: f_slice*g == f*g_slice, expanded by sympy
    z, w = sympy.Symbol("z"), sympy.sympify(GOLDEN_WITNESS.replace("^", "**"))
    comps = [sympy.sympify(t.format(w=GOLDEN_WITNESS).replace("^", "**")).subs(z, w)
             for t in texts]
    fx, gx = sympy.sympify("x1*x2"), sympy.sympify("(x1+x2)**2")
    oracle = sympy.expand(comps[0] * comps[1] * gx - fx * comps[2] ** 2) == 0
    assert sl.polynomial_data and oracle is reproduces
    assert sl.reproduces_quotient is oracle


def test_mero_deformation_of_the_identity_family_makes_no_theta(monkeypatch):
    f = germ((x1(), 1), (x2(), 1))
    g = germ((x1() + x2(), 2))
    an = analyze(f, g)
    family = _fixture_family(an, emit_system(an), f, g)
    grid = [Fraction(0), Fraction(1, 2), Fraction(1)]
    slices, made = _theta_calls(monkeypatch, an, family, grid, k0=4)
    assert made == 0
    assert slices == _slices_from_scratch(an, family, grid, 4, f, g)


def test_mero_deformation_with_a_witness_of_degree_at_most_k0_makes_no_theta(monkeypatch):
    # the tail is zero, so every slice is the family at the witness: the germ
    an, family, f, g = _translation_case("x1^2 - 3*x1*x2 + 1/2*x2^3", 8)
    grid = [Fraction(0), Fraction(-3), Fraction(1, 2), Fraction(1)]
    slices, made = _theta_calls(monkeypatch, an, family, grid, k0=3)
    assert made == 0
    assert all(sl.division_exact and sl.isolated_singularity for sl in slices)
    assert slices == _slices_from_scratch(an, family, grid, 3, f, g)


def test_mero_deformation_matches_the_slices_worked_out_from_scratch():
    """A derandomized differential test: drawn witnesses (some with a term
    beyond the order, so that the slices are truncated and carry a note),
    k0, grids with repeats and 0, orders 5-12."""
    rng = random.Random(23)
    notes = exact = 0
    for _ in range(30):
        order = rng.randint(5, 12)
        terms = []
        for _ in range(rng.randint(1, 3)):
            degree = rng.randint(1, order + 1)
            e1 = rng.randint(0, degree)
            terms.append(f"({rng.choice(('1', '-1', '2', '1/2', '-3/4'))})*x1^{e1}*x2^{degree - e1}")
        witness = " + ".join(terms)
        k0 = rng.randint(0, 4)
        grid = [Fraction(0)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                for _ in range(rng.randint(1, 3))]
        grid += rng.sample(grid, rng.randint(1, len(grid)))
        rng.shuffle(grid)
        an, family, f, g = _translation_case(witness, order)
        slices = build_mero_deformation(an, family, grid, k0=k0).slices
        assert slices == _slices_from_scratch(an, family, grid, k0, f, g), (witness, order, k0)
        notes += any(sl.note for sl in slices)
        exact += all(sl.division_exact for sl in slices)
    # both kinds of slice occur
    assert notes and exact

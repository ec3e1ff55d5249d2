"""Differential tests against sympy, an oracle that shares no code with
equijet.  Skipped when sympy is not installed."""

import random
from fractions import Fraction

import pytest

from equijet.jets import Jet, VarContext
from equijet.pseudopoly import PseudoPolynomial, generalized_discriminants, resultant_jets

sympy = pytest.importorskip("sympy")

YX = VarContext.make(["x1", "y"])
X1, Y = sympy.symbols("x1 y")


def to_jet(expr) -> Jet:
    """An exact jet of a polynomial in ``x1, y`` with rational coefficients."""
    poly = sympy.Poly(expr, X1, Y)
    terms = {exps: Fraction(int(c.p), int(c.q)) for exps, c in poly.terms()}
    return Jet(YX, max([16] + [sum(k) + 1 for k in terms]), terms, True)


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


# pairs of the cases above of total degree at most 6 in y
PAIRS = [(f, g) for (f, p), (g, q) in zip(CASES, CASES[1:]) if p + q <= 6]


@pytest.mark.parametrize("pair", range(len(PAIRS)))
def test_resultant_against_sympy(pair):
    f, g = PAIRS[pair]
    got = resultant_jets(to_jet(f), to_jet(g), "y")
    assert got.exact
    assert got == to_jet(sympy.resultant(f, g, Y)).with_order(got.order)

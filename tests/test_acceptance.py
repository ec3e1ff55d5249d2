"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; every
expected value is either computed by an independent oracle inside this file
or asserted against exact hand-derived constants.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import pytest

from equijet.cli import main
from equijet.deform import binomial_family, verify_family
from equijet.errors import InconclusiveError
from equijet.jets import Jet, VarContext
from equijet.mero import FactoredGerm, analyze, divisor_constant, emit_system, theta
from equijet.polygcd import exact_divide, exact_power_dividing, is_constant, jet_gcd
from equijet.pseudopoly import PseudoPolynomial, generalized_discriminants, hankel_minor
from equijet.tower import build_tower, check_family
from equijet.weierstrass import weierstrass_divide, weierstrass_prepare

ORDER = 16

X2 = VarContext.make(["x1", "x2"])
TX2 = VarContext.make(["x1", "x2"], params=["t"])
Y = VarContext.make(["y"])
X1 = VarContext.make(["x"])


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _x(name, ctx=X2, order=ORDER):
    return Jet.variable(ctx, name, order)


def test_criterion_1_generalized_discriminant_oracle():
    rng = random.Random(2024)
    pool = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)]
    checked = 0
    for _ in range(200):
        p = rng.randrange(1, 7)
        roots = [rng.choice(pool) for _ in range(p)]
        P = PseudoPolynomial.from_roots(Y, "y", roots, order=ORDER)
        for k in range(1, p + 1):
            oracle = Fraction(0)
            for subset in combinations(range(p), k):
                prod = Fraction(1)
                for a, b in combinations(subset, 2):
                    prod *= (roots[a] - roots[b]) ** 2
                oracle += prod
            assert hankel_minor(P, k).constant_term() == oracle
        gd = generalized_discriminants(P)
        assert gd.first_nonzero == p - len(set(roots)) + 1
        assert gd.certified
        checked += 1
    assert checked >= 200
    _announce(1, f"{checked} random-root polynomials match the brute-force "
                 "Vandermonde-subset oracle exactly")


def test_criterion_2_weierstrass_suite():
    rng = random.Random(77)
    checked = 0
    while checked < 100:
        p = rng.randrange(1, 4)
        f = _x("x2") ** p
        for _ in range(rng.randrange(0, 4)):
            e1 = rng.randrange(1, 4)
            e2 = rng.randrange(0, p)
            f = f + Jet.monomial(X2, (e1, e2), Fraction(rng.randrange(-4, 5),
                                                        rng.randrange(1, 3)), ORDER)
        if rng.random() < 0.5:
            f = f * (1 + _x("x1").scale(rng.randrange(1, 4)))
        g = Jet.zero(X2, ORDER)
        for _ in range(rng.randrange(1, 5)):
            g = g + Jet.monomial(X2, (rng.randrange(0, 5), rng.randrange(0, 5)),
                                 Fraction(rng.randrange(-4, 5)), ORDER)
        q, r = weierstrass_divide(g, f, "x2")
        assert (g - (q * f + r)).is_zero()
        assert max((k[1] for k in r.terms), default=0) < p
        pf = weierstrass_prepare(f, "x2")
        assert pf.unit.is_unit()
        assert pf.poly.degree == p
        assert pf.poly.is_distinguished
        assert (pf.unit * pf.poly.as_jet() - f).is_zero()
        checked += 1
    _announce(2, f"{checked} random regular pairs satisfy the division and "
                 "preparation identities modulo the order")


def test_criterion_3_cusp_tower_golden():
    tw = build_tower(_x("x2") ** 2 - _x("x1") ** 3)
    assert tw.degree_sequence == (2, 3)
    assert tw.index_sequence == (1, 3)
    assert tw.levels[1].unit == Jet.constant(X2, 4, ORDER)
    assert tw.terminal_unit == Jet.constant(X2, 3, ORDER)
    _announce(3, "cusp tower: degrees (2,3), indices (1,3), unit 4, terminal 3")


def test_criterion_4_family_verdicts_and_slices():
    t = Jet.variable(TX2, "t", ORDER)
    good = _x("x2", TX2) ** 2 - (1 + t) * _x("x1", TX2) ** 3
    rep_good = check_family(good)
    assert rep_good.verdict == "equisingular"

    bad = _x("x2", TX2) ** 2 - _x("x1", TX2) ** 3 - t * _x("x1", TX2) ** 2
    rep_bad = check_family(bad)
    assert rep_bad.verdict == "not-equisingular"
    assert rep_bad.witness == Jet(TX2, ORDER, {(2, 0, 0): 2}, True)

    samples = (Fraction(0), Fraction(1, 7), Fraction(-1, 5))
    good_shapes = {build_tower(good.restrict({"t": t0}, drop=True)).shape
                   for t0 in samples}
    assert len(good_shapes) == 1

    bad_shapes = [build_tower(bad.restrict({"t": t0}, drop=True)).shape
                  for t0 in samples]
    assert bad_shapes[0] != bad_shapes[1]
    assert bad_shapes[1] == bad_shapes[2]
    # differing distinct-root counts: the level-1 slice polynomials have 1
    # distinct root at t=0 and 2 at the sampled nonzero t
    assert bad_shapes[0][1] == (3, 3)   # x1^3: one distinct root
    assert bad_shapes[1][1] == (2, 2)   # x1^2 after unit extraction: 1 distinct of 2
    _announce(4, "family verdicts match and slice towers confirm both ways "
                 "at t in {0, 1/7, -1/5}")


def test_criterion_5_binomial_round_trip():
    x = Jet.variable(X1, "x", ORDER)
    sf, _ = binomial_family(x ** 6, x ** 4)
    fam_ctx = VarContext.make(["x", "z"])
    xx = Jet.variable(fam_ctx, "x", ORDER)
    zz = Jet.variable(fam_ctx, "z", ORDER)
    assert sf.family == (xx ** 3 * zz ** 3, xx ** 2 * zz ** 2)
    assert sf.witness == (x,)
    rep = verify_family(sf, ORDER)
    assert rep.passed
    assert all(r.is_zero() for r in rep.equation_residuals + rep.target_residuals)
    _announce(5, "binomial family (x^3 z^3, x^2 z^2) with witness x verifies "
                 "with zero residual")


def _random_bookkeeping_fixture(rng):
    x1, x2 = _x("x1"), _x("x2")
    while True:
        a = rng.randrange(1, 4)
        b = rng.randrange(-3, 4) or 1
        h = a * x1 + b * x2
        m = rng.choice([2, 3])
        c = Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
        g_base = x1 + rng.randrange(1, 4) * x2
        k = rng.randrange(1, 3)
        rho = Jet.constant(X2, rng.randrange(1, 4), ORDER)
        if rng.random() < 0.5:
            rho = rho + rng.choice([x1, x2])
        f_poly = h ** m * rho + g_base ** k * c
        if not is_constant(jet_gcd(f_poly, g_base)):
            continue
        if not is_constant(jet_gcd(f_poly, h)):
            continue
        sq = jet_gcd(f_poly, f_poly.derivative("x1").with_order(ORDER))
        sq = jet_gcd(sq, f_poly.derivative("x2").with_order(ORDER))
        if not is_constant(sq):
            continue
        return h, m, c, rho, f_poly, g_base, k


def test_criterion_6_lemma_bookkeeping():
    rng = random.Random(555)
    fixtures = []
    for _ in range(100):
        h, m, c, rho, f_poly, g_base, k = _random_bookkeeping_fixture(rng)
        f = FactoredGerm.build([(f_poly, 1)])
        g = FactoredGerm.build([(g_base, k)])
        dc = divisor_constant(h, f, g)
        assert dc is not None
        assert dc.c == c
        assert dc.mu == m - 1
        assert (dc.rho - rho.with_order(dc.rho.order)).is_zero()
        th = theta(f, g)
        pa, _ = exact_power_dividing(th.a, h.with_order(th.a.order))
        pb, _ = exact_power_dividing(th.b, h.with_order(th.b.order))
        assert min(pa, pb) == m - 1
        an = analyze(f, g)
        rec = next(r for r in an.records
                   if exact_divide(r.h, h.with_order(r.h.order)) is not None
                   or exact_divide(h.with_order(r.h.order), r.h) is not None)
        assert rec.c == c
        assert rec.mu == m - 1
        lhs = rec.h.with_order(40) ** (rec.mu + 1) * rec.rho.with_order(40)
        rhs = f.product.with_order(40) - g.product.with_order(40).scale(c)
        assert (lhs - rhs).is_zero()
        fixtures.append((f, g, an))

    x1, x2 = _x("x1"), _x("x2")
    f = FactoredGerm.build([(x1, 1), (x2, 1)])
    g = FactoredGerm.build([(x1 + x2, 2)])
    an = analyze(f, g)
    assert an.e == 1
    rec = an.records[0]
    assert rec.c == Fraction(1, 4)
    assert rec.mu == 1
    ratio_a = exact_divide(an.omega.a, x2.with_order(an.omega.a.order))
    ratio_b = exact_divide(an.omega.b, (-x1).with_order(an.omega.b.order))
    assert ratio_a is not None and is_constant(ratio_a)
    assert ratio_b is not None and is_constant(ratio_b)
    assert (ratio_a - ratio_b).is_zero()
    assert len(fixtures) == 100
    _announce(6, "100 randomized fixtures recover (c, m-1, rho) exactly and "
                 "the quarter-constant fixture reduces to x2 dx1 - x1 dx2")


def test_criterion_7_system_emission():
    rng = random.Random(910)
    count = 0
    for _ in range(12):
        h, m, c, rho, f_poly, g_base, k = _random_bookkeeping_fixture(rng)
        f = FactoredGerm.build([(f_poly, 1)])
        g = FactoredGerm.build([(g_base, k)])
        an = analyze(f, g)
        sysS = emit_system(an)
        names = sysS.y1_names + sysS.y2_names + sysS.y3_names + sysS.y4_names
        big = max((s.total_degree() or 0) for s in sysS.solution) * 8 + 8
        subst = {name: sol.with_order(big) for name, sol in zip(names, sysS.solution)}
        for lhs, rhs in sysS.equations:
            resid = (lhs - rhs).compose(subst, allow_constant=True)
            assert resid.is_zero() and resid.exact
        count += len(sysS.equations)
    x1, x2 = _x("x1"), _x("x2")
    sysS = emit_system(analyze(FactoredGerm.build([(x1, 1), (x2, 1)]),
                               FactoredGerm.build([(x1 + x2, 2)])))
    assert len(sysS.equations) == 1
    _announce(7, f"every emitted equation vanishes exactly on its reference "
                 f"solution ({count} equations across random analyses)")


def _machine(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--machine"])
    return code, buf.getvalue()


def test_criterion_8_determinism():
    commands = [
        ["tower", "x2^2 - x1^3", "--vars", "x1,x2", "--order", "16", "--seed", "0"],
        ["tower", "x1*x2*(x1+x2)", "--vars", "x1,x2", "--seed", "5"],
        ["check-family", "x2^2 - (1+t)*x1^3", "--vars", "x1,x2", "--params", "t"],
        ["mero-analyze", "--f", "(x1)*(x2)", "--g", "(x1+x2)^2"],
        ["binomial", "x^6", "x^4", "--vars", "x"],
    ]
    for argv in commands:
        code1, out1 = _machine(argv)
        code2, out2 = _machine(argv)
        assert code1 == code2 == 0
        assert out1 == out2, f"nondeterministic report for {argv}"
    _announce(8, f"{len(commands)} corpus commands produce byte-identical "
                 "machine reports across repeated runs")


def test_criterion_9_soundness_of_inconclusiveness():
    # library level: the descent refuses to trust an uncertified vanishing
    f = Jet(X2, 8, {(0, 2): 1, (20, 0): -1}, True)
    assert not f.exact
    with pytest.raises(InconclusiveError):
        build_tower(f)

    F = Jet(TX2, 8, {(0, 0, 2): 1, (0, 20, 0): -1}, True)
    rep = check_family(F)
    assert rep.verdict == "inconclusive"
    assert rep.uncertified

    # CLI level: exit code 3, no definitive zero claims in the reports
    code, out = _machine(["check-family", "x2^2 - x1^20", "--vars", "x1,x2",
                          "--params", "t", "--order", "8"])
    assert code == 3
    data = json.loads(out)
    assert data["result"]["verdict"] == "inconclusive"
    assert all("identically zero" not in c for c in data["result"]["uncertified"])

    code, out = _machine(["gendisc", "y^2 - x1^20", "--var", "y",
                          "--vars", "x1,y", "--order", "8"])
    assert code == 3
    data = json.loads(out)
    assert data["result"]["certified"] is False

    code, _ = _machine(["tower", "x2^2 - x1^20", "--vars", "x1,x2", "--order", "8"])
    assert code == 3
    _announce(9, "truncated non-exact zero claims always surface as "
                 "inconclusive (exit code 3), never as definitive verdicts")

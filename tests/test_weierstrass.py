import random
from fractions import Fraction

import pytest

from equijet.errors import (
    ConsistencyError,
    ContextMismatchError,
    NoRegularDirectionError,
    NotAUnitError,
    NotRegularError,
    PreconditionError,
)
from equijet import weierstrass
from equijet.jets import INFINITE_ORDER, Jet, VarContext
from equijet.parser import parse_jet
from equijet.polygcd import exact_divide
from equijet.pseudopoly import PseudoPolynomial
from equijet.scalars import NumberField, scalar_inverse, scalar_is_rational
from equijet.weierstrass import (
    LinearChange,
    PreparedForm,
    find_regular_change,
    prepare_in,
    regularity_order,
    weierstrass_divide,
    weierstrass_prepare,
)

X2 = VarContext.make(["x1", "x2"])


def x1(order=16):
    return Jet.variable(X2, "x1", order)


def x2(order=16):
    return Jet.variable(X2, "x2", order)


def random_regular_pair(rng, order=10):
    """A var-regular f (in x2) of small order and a random g."""
    p = rng.randrange(1, 4)
    f = x2(order) ** p
    for _ in range(rng.randrange(0, 4)):
        e1 = rng.randrange(1, 4)
        e2 = rng.randrange(0, p)
        c = Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
        f = f + Jet.monomial(X2, (e1, e2), c, order)
    if rng.random() < 0.5:
        f = f * (1 + x1(order).scale(rng.randrange(1, 3)))
    g = Jet.zero(X2, order)
    for _ in range(rng.randrange(1, 5)):
        key = (rng.randrange(0, 4), rng.randrange(0, 4))
        g = g + Jet.monomial(X2, key, Fraction(rng.randrange(-4, 5)), order)
    return g, f, p


def test_regularity_orders():
    assert regularity_order(x2() ** 2 - x1() ** 3, "x2") == 2
    assert regularity_order(x1() * x2(), "x2") == INFINITE_ORDER
    assert regularity_order((1 + x1()) * x2() ** 3, "x2") == 3


def test_find_change_identity_when_already_regular():
    ch = find_regular_change(x2() ** 2 - x1() ** 3, "x2", ["x1", "x2"])
    assert ch.is_identity


def test_find_change_shear_for_monomial():
    f = x1() * x2()
    ch = find_regular_change(f, "x2", ["x1", "x2"], seed=3)
    assert regularity_order(ch.apply(f), "x2") == 2


def test_find_change_zero_rejected():
    with pytest.raises(PreconditionError):
        find_regular_change(Jet.zero(X2), "x2", ["x1", "x2"])


def test_find_change_of_a_germ_with_no_term_in_the_block_is_an_error():
    # every term of x1*(1 + x2) involves x1, which the block leaves out
    with pytest.raises(NoRegularDirectionError, match="no term of f is supported in the block"):
        find_regular_change(x1() * (1 + x2()), "x2", ("x2",))


def test_find_change_deterministic():
    f = (x1() + x2()) * (x1() - x2()) * x1()
    a = find_regular_change(f, "x2", ["x1", "x2"], seed=9)
    b = find_regular_change(f, "x2", ["x1", "x2"], seed=9)
    assert a == b
    assert regularity_order(a.apply(f), "x2") == 3


def test_linear_change_inverse_roundtrip():
    ch = LinearChange(("x1", "x2"), "x2", (2,))
    f = x2() ** 2 - x1() ** 3
    g = ch.apply(f)
    assert ch.inverse().apply(g) == f


X3 = VarContext.make(["x1", "x2", "x3"])


def test_shear_rejects_a_target_outside_the_block():
    with pytest.raises(PreconditionError):
        LinearChange(("x1", "x2"), "x3", (1,))


def test_shear_rejects_the_wrong_number_of_coefficients():
    with pytest.raises(PreconditionError):
        LinearChange(("x1", "x2", "x3"), "x3", (1,))
    with pytest.raises(PreconditionError):
        LinearChange(("x1", "x2"), "x2", (1, 2))


def test_shear_matrix_is_the_identity_but_for_the_target_column():
    ch = LinearChange(("x1", "x2", "x3"), "x2", (3, -1))
    one, zero = Fraction(1), Fraction(0)
    assert ch.matrix == ((one, Fraction(3), zero),
                         (zero, one, zero),
                         (zero, Fraction(-1), one))
    assert ch.describe() == {"block": ["x1", "x2", "x3"],
                             "matrix": [["1", "3", "0"], ["0", "1", "0"], ["0", "-1", "1"]]}
    assert not ch.is_identity
    assert LinearChange(("x1", "x2", "x3"), "x2", (0, 0)).is_identity


def test_shear_inverse_undoes_a_three_variable_shear():
    ch = LinearChange(("x1", "x2", "x3"), "x2", (3, -1))
    v = {n: Jet.variable(X3, n, 12) for n in X3.names}
    f = v["x3"] ** 2 - v["x1"] ** 3 * v["x2"] + (1 + v["x1"]) * v["x2"] ** 4
    g = ch.apply(f)
    assert g != f
    assert ch.inverse().apply(g) == f
    # x1 -> x1 + 3 x2 and x3 -> x3 - x2, the target fixed
    assert ch.apply(v["x1"] + v["x2"] + v["x3"]) == v["x1"] + 3 * v["x2"] + v["x3"]


def test_divide_polynomial_example():
    q, r = weierstrass_divide(x2() ** 3, x2() ** 2 - x1(), "x2")
    assert q == x2()
    assert r == x1() * x2()


def test_divide_self():
    f = x2() ** 2 - x1() ** 3
    q, r = weierstrass_divide(f, f, "x2")
    assert q.constant_term() == 1 and (q - 1).is_zero()
    assert r.is_zero()


def test_divide_already_reduced():
    q, r = weierstrass_divide(x1(), x2() ** 2 - x1(), "x2")
    assert q.is_zero()
    assert r == x1()


def test_divide_by_a_unit_leaves_no_remainder():
    g, f = x1() + x2() ** 2, 1 + x1()
    q, r = weierstrass_divide(g, f, "x2")
    assert r.is_zero()
    assert (q * f - g).is_zero()
    assert q.order == 16


def test_divide_not_regular():
    with pytest.raises(NotRegularError):
        weierstrass_divide(x1(), x1() * x2(), "x2")


def test_divide_needs_one_context():
    f = x2(6) + x1(6) ** 2
    g = Jet.variable(VarContext.make(["x1", "x2"], params=["t"]), "x1", 6)
    with pytest.raises(ContextMismatchError):
        weierstrass_divide(g, f, "x2")


def test_divide_at_infinite_order_needs_a_finite_order(monkeypatch):
    # w = 1, so no unit inverse refuses the order before the passes would run
    g = (x2() ** 3 + x1()).with_order(INFINITE_ORDER)
    f = (x2() ** 2 - x1() ** 3).with_order(INFINITE_ORDER)
    monkeypatch.setattr(Jet, "split", lambda *args: pytest.fail("the passes ran"))
    with pytest.raises(PreconditionError, match="Weierstrass division needs a finite order"):
        weierstrass_divide(g, f, "x2")
    # p = 0: a constant divides at every order
    q, r = weierstrass_divide(g, Jet.constant(X2, 2, INFINITE_ORDER), "x2")
    assert q == g.scale(Fraction(1, 2)) and r.is_zero() and r.exact


def test_divide_by_a_unit_at_infinite_order_needs_a_finite_order():
    # p = 0 with a non-constant unit: its inverse is a genuine series
    g = (x2() ** 3 + x1()).with_order(INFINITE_ORDER)
    f = (1 + x1()).with_order(INFINITE_ORDER)
    with pytest.raises(PreconditionError, match="Weierstrass division needs a finite order"):
        weierstrass_divide(g, f, "x2")


def test_divide_identity_randomized():
    rng = random.Random(21)
    for _ in range(60):
        g, f, p = random_regular_pair(rng)
        q, r = weierstrass_divide(g, f, "x2")
        assert (g - (q * f + r)).is_zero()
        assert max((k[1] for k in r.terms), default=0) < p


def test_divide_uniqueness_mod_order():
    rng = random.Random(2)
    g, f, p = random_regular_pair(rng)
    q1, r1 = weierstrass_divide(g, f, "x2")
    q2, r2 = weierstrass_divide(g + Jet.zero(X2, g.order), f, "x2")
    assert q1.terms == q2.terms and r1.terms == r2.terms


def test_divide_exact_results_are_identities_property():
    # a quotient and a remainder both flagged exact satisfy q*f + r == g as
    # polynomials, with nothing truncated
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    exact = []

    @st.composite
    def pairs(draw):
        order = draw(st.integers(6, 12))
        p = draw(st.integers(1, 3))
        terms = st.tuples(st.integers(1, 3), st.integers(0, p + 2), st.integers(-3, 3))
        f = {(a, b): Fraction(c) for a, b, c in draw(st.lists(terms, max_size=4))}
        f[(0, p)] = Fraction(draw(st.sampled_from((1, -2, 3))))
        small = st.tuples(st.integers(0, 4), st.integers(0, 4))
        g = {draw(small): Fraction(draw(st.integers(-4, 4))) for _ in range(draw(st.integers(1, 4)))}
        return Jet.polynomial(X2, g, order), Jet.polynomial(X2, f, order)

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(pairs())
    def check(case):
        g, f = case
        q, r = weierstrass_divide(g, f, "x2")
        if q.exact and r.exact:
            exact.append(1)
            q, f, r, g = (j.with_order(INFINITE_ORDER) for j in (q, f, r, g))
            assert (q * f + r - g).is_zero()

    check()
    assert len(exact) >= 10


# -- the division against the jet loop with the Newton inverse -----------------


def newton_inverse(u):
    """Reference: the inverse of a unit by Newton iteration on jets, as
    ``Jet.invert_unit`` formed it before it ran on term dicts."""
    c0 = u.constant_term()
    if not c0:
        raise NotAUnitError("constant term vanishes; not a unit")
    inv0 = scalar_inverse(c0)
    one = Jet.constant(u.ctx, 1, u.order, exact=True)
    w = one - u.scale(inv0)
    g = (one + w).scale(inv0)
    steps = [u.order]
    while not w.is_zero() and steps[-1] > 2 * w.order_of():
        steps.append((steps[-1] + 1) // 2)
    for prec in reversed(steps[:-1]):
        g = Jet(u.ctx, prec, g.terms, False)
        g = g - g * (u.truncate(prec) * g - 1)
    exact = u.exact and u.total_degree() in (None, 0)
    return Jet(u.ctx, u.order, g.terms, exact)


def loop_divide(g, f, var):
    """Reference: ``weierstrass_divide`` as the fixed-point loop on jets, with
    the Newton inverse, stopping when ``q`` repeats its terms."""
    p = regularity_order(f, var)
    if p == INFINITE_ORDER:
        raise NotRegularError(f"divisor is not regular in {var!r} to order {f.order}")
    order = min(g.order, f.order)
    g = g.truncate(order)
    f = f.truncate(order)
    if p == 0:
        return g * newton_inverse(f), Jet.zero(f.ctx, order)
    f_low, w = f.split(var, p)
    winv = newton_inverse(w)
    q = Jet.zero(f.ctx, order)
    for _ in range(order + 1):
        _, high = (g - q * f_low).split(var, p)
        q_next = winv * high
        if (q_next - q).is_zero():
            q = q_next
            break
        q = q_next
    r = g - q * f
    if (r.degree_in(var) or 0) >= p:
        raise ConsistencyError("division iteration failed to reduce the remainder")
    return q, r


def outcome(fn, *args):
    """The terms, order and flag of each jet ``fn`` returns, or the class of
    the error it raises."""
    try:
        return [(j.terms, j.order, j.exact) for j in fn(*args)]
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


ALPHA = NumberField([-2, 0, 1]).generator()


def division_cases(st):
    """``(g, f, var)`` in 1-3 variables at orders 1-16, exact or truncated,
    with integer, rational or one ``Q(alpha)`` coefficient; ``w(0)`` is
    drawn from ``1, -1, 2, -3/2``, or 0, which leaves ``f`` regular only
    through another pure power of ``var``.  ``g`` may sit two orders above
    or below ``f``; below, the truncation may leave ``w`` no unit."""

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 3))
        ctx = VarContext.make([f"x{i}" for i in range(1, n + 1)])
        var = draw(st.sampled_from(ctx.names))
        kind = draw(st.sampled_from(("integer", "rational", "algebraic")))
        nonzero = st.integers(-3, 3).filter(bool)
        values = (nonzero.map(Fraction) if kind == "integer"
                  else st.builds(Fraction, nonzero, st.integers(1, 4)))
        keys = st.tuples(*[st.integers(0, 4)] * n)
        f = draw(st.dictionaries(keys, values, max_size=5))
        g = draw(st.dictionaries(keys, values, min_size=1, max_size=5))
        p = draw(st.integers(0, 3))
        pure = tuple(p if name == var else 0 for name in ctx.names)
        f[pure] = Fraction(draw(st.sampled_from((1, -1, 2, Fraction(-3, 2), 0))))
        if kind == "algebraic":
            (f if draw(st.booleans()) else g)[draw(st.sampled_from((pure, draw(keys))))] = ALPHA
        order = draw(st.integers(1, 16))
        g_order = max(1, order + draw(st.sampled_from((0, 0, 2, -2))))
        return (Jet(ctx, g_order, g, draw(st.booleans())),
                Jet(ctx, order, f, draw(st.booleans())), var)

    return cases()


def test_divide_matches_the_jet_loop_property():
    # the same quotient and remainder, terms, order and flag, or the same
    # error, as the loop on jets with the Newton inverse
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = []

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(division_cases(st))
    def check(case):
        got = outcome(weierstrass_divide, *case)
        assert got == outcome(loop_divide, *case)
        seen.append(got if isinstance(got, type) else "divided")
        if not isinstance(got, type):
            # an integral rational value is an int, any other one a Fraction
            assert all(type(v) is int or type(v) is Fraction and v.denominator > 1
                       or not scalar_is_rational(v) for terms, _, _ in got for v in terms.values())

    check()
    assert seen.count("divided") >= 30 and NotRegularError in seen


def test_divide_at_order_40_matches_the_jet_loop():
    # an exact integer division with w(0) = 1, whose products take the
    # Kronecker kernel on int values, and a truncated rational one with w(0) = 3
    germ = x2(40) ** 2 + 2 * x1(40) ** 2 * x2(40) - x1(40) ** 3
    f = germ * (1 + x1(40) - x2(40))
    truncated = germ * (3 + x1(40) - x2(40)) + x2(40) ** 41 - x1(40) ** 39
    assert f.exact and not truncated.exact
    rational = x2(40) ** 5 + Jet.monomial(X2, (3, 1), Fraction(2, 7), 40)
    for g, divisor in ((x2(40) ** 2, f), (rational, truncated)):
        assert outcome(weierstrass_divide, g, divisor, "x2") \
            == outcome(loop_divide, g, divisor, "x2")


def test_invert_unit_matches_newton_on_sparse_and_dense_units():
    rng = random.Random(5)
    x3 = VarContext.make(["x1", "x2", "x3"])
    sparse = [Jet(X2, 12, {(0, 0): 1, (1, 0): 1, (0, 1): -2}, True),
              Jet(X2, 9, {(0, 0): Fraction(3, 4), (2, 1): 5, (0, 3): Fraction(-1, 2)}, False),
              Jet(x3, 7, {(0, 0, 0): 2, (1, 0, 0): ALPHA, (0, 1, 2): 1}, True),
              Jet(X2, 30, {(0, 0): -1, (4, 0): 1, (0, 7): 3}, True)]
    dense = [Jet(X2, 14, {(a, b): Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3))
                          for a in range(12) for b in range(12 - a)}, exact)
             for exact in (True, False)]
    dense.append(Jet(x3, 8, {(a, b, c): rng.randint(-2, 2) or 1 for a in range(6)
                             for b in range(6 - a) for c in range(6 - a - b)}, False))
    for u in sparse + dense:
        assert outcome(lambda: [u.invert_unit()]) == outcome(lambda: [newton_inverse(u)])


def test_prepare_geometric_series_example():
    f = (1 + x1(5)) * x2(5) ** 2 - x1(5) ** 2
    pf = weierstrass_prepare(f, "x2")
    assert (pf.unit - (1 + x1(5))).is_zero()
    w = pf.poly
    assert w.degree == 2
    assert w.coeffs[0].is_zero()
    assert w.coeffs[1] == Jet(X2, 5, {(2, 0): -1, (3, 0): 1, (4, 0): -1}, False)


def test_prepare_already_distinguished():
    f = x2() ** 2 - x1() ** 3
    pf = weierstrass_prepare(f, "x2")
    assert (pf.unit - 1).is_zero()
    assert pf.poly.as_jet() == f


def test_prepare_constant_multiple_of_power():
    f = Jet.constant(X2, 4, 16) * x1() ** 3
    pf = weierstrass_prepare(f, "x1")
    assert pf.unit == Jet.constant(X2, 4, 16)
    assert pf.unit.exact
    assert pf.poly.degree == 3
    assert pf.poly.as_jet() == x1() ** 3
    assert pf.exact


def test_prepare_exactness_upgrade_with_unit_cofactor():
    # 4*x1^3 + 4*t*x1^2-style fixture in pure coordinates
    f = (4 + Jet.monomial(X2, (0, 1), 4)) * x1() ** 2
    pf = weierstrass_prepare(f, "x1")
    assert pf.exact
    assert pf.poly.as_jet() == x1() ** 2
    assert pf.unit == 4 + Jet.monomial(X2, (0, 1), 4)


def test_prepare_identity_randomized():
    rng = random.Random(31)
    for _ in range(40):
        _, f, p = random_regular_pair(rng)
        pf = weierstrass_prepare(f, "x2")
        assert pf.unit.is_unit()
        assert pf.poly.degree == p
        assert pf.poly.is_distinguished
        assert (pf.unit * pf.poly.as_jet() - f).is_zero()


def test_prepare_divide_consistency():
    f = (1 + x1()) * x2() ** 2 - x1() ** 2
    pf = weierstrass_prepare(f, "x2")
    q, r = weierstrass_divide(f, pf.poly.as_jet(), "x2")
    assert (q - pf.unit).is_zero()
    assert r.is_zero()


def test_prepare_not_regular():
    with pytest.raises(NotRegularError):
        weierstrass_prepare(x1() * x2(), "x2")


def test_prepare_at_infinite_order_needs_a_finite_order(monkeypatch):
    f = ((x2() ** 2 - x1() ** 3) * (1 + x1())).with_order(INFINITE_ORDER)
    monkeypatch.setattr(weierstrass, "weierstrass_divide",
                        lambda *args: pytest.fail("a division ran"))
    with pytest.raises(PreconditionError, match="Weierstrass preparation needs a finite order"):
        weierstrass_prepare(f, "x2")
    # p = 0: a unit is its own preparation at every order
    unit = (1 + x1()).with_order(INFINITE_ORDER)
    pf = weierstrass_prepare(unit, "x2")
    assert pf.unit == unit and pf.poly.degree == 0 and pf.order == INFINITE_ORDER


def random_germ(rng, order):
    """An x2-regular polynomial, sometimes times a polynomial unit; its
    distinguished factor is a polynomial or a genuine series."""
    p = rng.randrange(1, 4)
    f = x2(order) ** p
    for _ in range(rng.randrange(1, 4)):
        key = (rng.randrange(1, 4), rng.randrange(0, p + 2))
        f = f + Jet.monomial(X2, key, Fraction(rng.randrange(-3, 4)), order)
    if rng.random() < 0.5:
        u = Jet.constant(X2, 1, order)
        for _ in range(rng.randrange(1, 3)):
            key = (rng.randrange(0, 2), rng.randrange(0, 2))
            u = u + Jet.monomial(X2, key, rng.randrange(1, 3), order)
        f = f * u
    return f


def holds_modulo_order(pf, f):
    """``unit * W == f`` modulo the stated order of the preparation."""
    w = pf.poly.map_coeffs(lambda c: Jet(c.ctx, pf.order, c.terms, True)).as_jet()
    return (pf.unit * w - f).is_zero()


def holds_identically(pf, f):
    """``unit * W == f`` recomputed well above every degree involved."""
    big = 2 * pf.order + f.total_degree()
    lhs = pf.unit.with_order(big) * pf.poly.as_jet().with_order(big)
    return (lhs - f.with_order(big)).is_zero()


def test_prepare_genuine_series_is_not_flagged_exact():
    order = 12
    f = (x2(order) - x1(order) ** 2) * (1 + x1(order) + x2(order)) + x2(order) ** 3
    pf = weierstrass_prepare(f, "x2")
    assert not pf.exact and not pf.poly.exact
    assert holds_modulo_order(pf, f)


def test_prepare_in_one_variable_is_exactly_a_power():
    ctx = VarContext.make(["x1"])
    x = Jet.variable(ctx, "x1", 8)
    f = Jet(ctx, 8, (x ** 2 * (3 + x)).terms, False)
    pf = weierstrass_prepare(f, "x1")
    assert pf.poly.exact and pf.poly.as_jet() == x ** 2
    assert not pf.unit.exact and (pf.unit - (3 + x)).is_zero()


def test_prepare_exact_claims_hold_on_a_seeded_scan():
    rng = random.Random(1)
    claims = 0
    for _ in range(300):
        f = random_germ(rng, 10)
        pf = weierstrass_prepare(f, "x2")
        assert holds_modulo_order(pf, f)
        if pf.exact:
            claims += 1
            assert holds_identically(pf, f)
    assert claims > 150


def test_prepare_exact_flag_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def germs(draw):
        order = draw(st.integers(6, 10))
        p = draw(st.integers(1, 3))
        f = x2(order) ** p
        small = st.tuples(st.integers(1, 3), st.integers(0, p + 1), st.integers(-3, 3))
        for a, b, c in draw(st.lists(small, max_size=3)):
            f = f + Jet.monomial(X2, (a, b), c, order)
        unit = Jet.constant(X2, 1, order)
        for a, b, c in draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                                               st.integers(1, 2)), max_size=2)):
            unit = unit + Jet.monomial(X2, (a, b), c, order)
        return f * unit

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(germs())
    def check(f):
        pf = weierstrass_prepare(f, "x2")
        if pf.exact:
            assert holds_identically(pf, f)
        else:
            assert holds_modulo_order(pf, f)

    check()


def record_divisions(monkeypatch):
    """The list that names every ``weierstrass_divide`` and ``exact_divide``
    call from now on, through whichever module of the package binds them."""
    import sys

    calls = []
    for module in [m for name, m in sys.modules.items() if name.startswith("equijet")]:
        for name in ("weierstrass_divide", "exact_divide"):
            real = getattr(module, name, None)
            if real is not None:
                def recording(*args, _name=name, _real=real):
                    calls.append(_name)
                    return _real(*args)
                monkeypatch.setattr(module, name, recording)
    return calls


def test_prepare_certifies_a_polynomial_w_below_the_order(monkeypatch):
    # exact input whose W is a polynomial is lifted: no division, no exact
    # division to certify it
    calls = record_divisions(monkeypatch)
    order = 24
    f = (x2(order) - x1(order) ** 2) * (1 + x1(order) + x2(order))
    pf = weierstrass_prepare(f, "x2")
    assert pf.exact and pf.order == order
    assert pf.poly.coeffs == (Jet.polynomial(X2, {(2, 0): -1}, order),)
    assert pf.unit == 1 + x1(order) + x2(order)
    assert calls == []


@pytest.mark.parametrize("order", [6, 12, 24])
def test_prepare_certifies_a_product_that_no_division_order_certified(order, monkeypatch):
    # the division at every order overstated the edge terms of this W, so
    # no division order certified it; the lift gives both factors
    calls = record_divisions(monkeypatch)
    pf, change = prepare_in(parse_jet("(x2^2 + x1*x2 - 2*x1 - 3*x1^2)*(1 + x2)", X2, order),
                            "x2", ("x1", "x2"))
    assert change.is_identity and calls == []
    assert pf.exact and pf.order == order
    assert pf.poly == PseudoPolynomial("x2", [Jet.polynomial(X2, {(1, 0): 1}, order),
                                              Jet.polynomial(X2, {(1, 0): -2, (2, 0): -3}, order)])
    assert pf.unit == Jet.polynomial(X2, {(0, 0): 1, (0, 1): 1}, order)
    # the route before the lift left it uncertified
    assert not probe_prepare(parse_jet("(x2^2 + x1*x2 - 2*x1 - 3*x1^2)*(1 + x2)", X2, order),
                             "x2")[1]


def test_prepare_of_a_genuine_series_keeps_the_documented_report():
    # README, "Truncation contract": -x1 modulo 10, uncertified
    f = x2(10) ** 2 - x1(10) + x2(10) ** 9
    pf = weierstrass_prepare(f, "x2")
    assert not pf.exact and not pf.poly.exact
    assert pf.poly.coeffs[1] == Jet(X2, 10, {(1, 0): -1}, False)


def to_sympy(j, gens):
    sympy = pytest.importorskip("sympy")
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(g ** e for g, e in zip(gens, k)))
                for k, c in j.graded_items()), sympy.Integer(0))


def test_prepare_returns_the_factors_of_an_exact_product_property():
    # f = u*W with W distinguished and u a polynomial unit: the preparation is
    # exactly (u, W)
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    @st.composite
    def products(draw):
        n = draw(st.integers(2, 3))
        ctx = VarContext.make([f"x{i}" for i in range(1, n + 1)])
        p = draw(st.integers(1, 4))
        w = {(0,) * (n - 1) + (p,): Fraction(1)}
        for j in range(1, p + 1):
            for _ in range(draw(st.integers(0, 2))):
                # a_j of any positive order: the lift takes every polynomial W
                base = [draw(st.integers(0, 2)) for _ in range(n - 1)]
                base[draw(st.integers(0, n - 2))] += 1
                w[tuple(base) + (p - j,)] = Fraction(draw(st.integers(-3, 3)))
        u = {(0,) * n: Fraction(draw(st.sampled_from((-2, -1, 1, 3))))}
        for _ in range(draw(st.integers(0, 3))):
            key = tuple(draw(st.integers(0, 2)) for _ in range(n))
            if any(key):
                u[key] = Fraction(draw(st.integers(-3, 3)))
        order = draw(st.integers(p + 1, 24))
        return ctx, w, u, order

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(products())
    def check(case):
        ctx, w, u, order = case
        var = ctx.names[-1]
        W = Jet.polynomial(ctx, w, INFINITE_ORDER)
        U = Jet.polynomial(ctx, u, INFINITE_ORDER)
        f = Jet.polynomial(ctx, (U * W).graded_items(), order)
        pf = weierstrass_prepare(f, var)
        assert pf.exact and pf.order == f.order
        assert pf.poly == PseudoPolynomial.from_jet(W, var).map_coeffs(
            lambda c: Jet.polynomial(ctx, c.graded_items(), f.order))
        assert pf.unit == Jet.polynomial(ctx, u, f.order)
        gens = sympy.symbols(ctx.names)
        quotient, remainder = sympy.div(to_sympy(f, gens), to_sympy(pf.poly.as_jet(), gens),
                                        *gens)
        assert remainder == 0
        assert sympy.expand(quotient - to_sympy(pf.unit, gens)) == 0

    check()


def test_prepare_of_a_multiple_of_a_power_is_the_exact_quotient_property(monkeypatch):
    # var^p divides an exact f: W = var^p and the unit is f / var^p, with no
    # division; the same f with a term beyond its order divides as before
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    divisions = []
    divide = weierstrass.weierstrass_divide

    def recording(g, f, var):
        divisions.append(min(g.order, f.order))
        return divide(g, f, var)

    monkeypatch.setattr(weierstrass, "weierstrass_divide", recording)

    @st.composite
    def multiples(draw):
        n = draw(st.integers(1, 3))
        params = ("t",) if draw(st.booleans()) else ()
        ctx = VarContext.make([f"x{i}" for i in range(1, n + 1)], params)
        width = len(ctx.names)
        u = {(0,) * width: Fraction(draw(st.sampled_from((-2, -1, 1, 3))))}
        for _ in range(draw(st.integers(0, 3))):
            key = tuple(draw(st.integers(0, 2)) for _ in range(width))
            if any(key):
                u[key] = Fraction(draw(st.integers(-3, 3)))
        p = draw(st.integers(1, 4))
        return ctx, u, p, draw(st.integers(p + 1, 14))

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(multiples())
    def check(case):
        ctx, u, p, order = case
        var = ctx.coords[-1]
        vp = Jet.variable(ctx, var, INFINITE_ORDER) ** p
        f = Jet.polynomial(ctx, (Jet.polynomial(ctx, u, INFINITE_ORDER) * vp).graded_items(),
                           order)
        divisions.clear()
        pf = weierstrass_prepare(f, var)
        assert divisions == []
        assert pf.poly.exact and pf.poly.as_jet() == vp.truncate(f.order)
        assert pf.poly == PseudoPolynomial(var, [Jet.zero(ctx, f.order)] * p)
        assert pf.unit == exact_divide(f, vp.truncate(f.order))
        assert pf.exact and pf.order == f.order and holds_identically(pf, f)
        # a term var^N beyond the order N leaves f truncated: one division
        # at the order, as before
        beyond = Jet.variable(ctx, var, INFINITE_ORDER) ** f.order
        truncated = (f.with_order(INFINITE_ORDER) + beyond).truncate(f.order)
        assert not truncated.exact
        pf = weierstrass_prepare(truncated, var)
        assert divisions == [f.order]
        unit, poly = full_order_preparation(truncated, var, p)
        if len(ctx.names) == 1:
            # a one-variable series is a unit times var^p
            poly = poly.map_coeffs(lambda c: Jet.polynomial(ctx, c.graded_items(), f.order))
        assert pf.unit == unit and pf.poly == poly and pf.order == f.order

    check()


@pytest.mark.xfail(strict=True, reason="Fix first in ROADMAP.md: a truncated one-variable "
                                       "unit is stated at the order of f, not N - p")
def test_truncated_one_variable_unit_agrees_with_a_higher_order_below_its_order():
    # prepare "x^2 + 2*x^3 - x^5 + x^7" --var x --vars x --order 6 states the
    # unit 1 + 2*x - x^3 modulo 6, but f / x^2 is known only modulo 4: at
    # order 12 the unit is 1 + 2*x - x^3 + x^5.  This is why the closed form
    # f / var^p of weierstrass_prepare takes exact input only; on truncated
    # input it would state the order N - p and change these reports.
    ctx = VarContext.make(["x"])
    text = "x^2 + 2*x^3 - x^5 + x^7"
    low, _ = prepare_in(parse_jet(text, ctx, 6), "x", ("x",))
    high, _ = prepare_in(parse_jet(text, ctx, 12), "x", ("x",))
    assert not low.unit.exact and high.unit.exact
    below = low.unit.order
    assert low.unit.graded_items() == [(k, c) for k, c in high.unit.graded_items()
                                       if sum(k) < below]


def full_order_preparation(f, var, p):
    """Reference: the uncertified preparation at the order of ``f``."""
    vp = Jet.variable(f.ctx, var, f.order) ** p
    q, r = weierstrass_divide(vp, f, var)
    return q.invert_unit(), PseudoPolynomial.from_jet(vp - r, var)


def probe_prepare(f, var):
    """Reference: ``weierstrass_prepare`` on exact input as it ran before
    the lift, and whether it certified.  ``var^p`` is divided by ``f`` at
    the probe orders ``p+2, 2(p+2), ...`` below the order, then at the
    order, and the first candidate ``W`` that ``exact_divide`` certifies
    is the answer; else the division at the order is."""
    p = regularity_order(f, var)
    order = f.order
    if f.split(var, p)[0].is_zero():
        zero = Jet.zero(f.ctx, order)
        return PreparedForm(f.shift(var, -p).with_order(order),
                            PseudoPolynomial(var, (zero,) * p), order), True
    probes = []
    probe = p + 2
    while probe < order:
        probes.append(probe)
        probe *= 2
    for probe in probes + [order]:
        vp = Jet.variable(f.ctx, var, probe) ** p
        q, r = weierstrass_divide(vp, f, var)
        candidate = PseudoPolynomial.from_jet(vp - r, var)
        if not q.is_unit() or not candidate.is_distinguished:
            continue
        lifted = candidate.map_coeffs(lambda c: Jet.polynomial(c.ctx, c.graded_items(), order))
        exact_q = exact_divide(f, lifted.as_jet())
        if exact_q is not None:
            return PreparedForm(exact_q.truncate(order), lifted, order), True
    return PreparedForm(q.invert_unit(), candidate, order), False


def test_prepare_agrees_with_the_probe_route_property():
    # where a probe certified, the lift gives the same factors; where only
    # the lift certifies, unit*W == f exactly; elsewhere the division at the
    # order gives the answer, as before
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"probe": 0, "lift only": 0, "neither": 0}

    def check_one(f, var):
        p = regularity_order(f, var)
        pf = weierstrass_prepare(f, var)
        old, certified = probe_prepare(f, var)
        if certified:
            seen["probe"] += 1
            assert (pf.unit, pf.poly, pf.order) == (old.unit, old.poly, old.order)
        elif pf.exact:
            seen["lift only"] += 1
            assert pf.poly.exact and pf.unit.exact and pf.order == f.order
            assert pf.unit * pf.poly.as_jet() == f
        else:
            seen["neither"] += 1
            unit, poly = full_order_preparation(f, var, p)
            assert (pf.unit, pf.poly, pf.order) == (unit, poly, f.order)

    @st.composite
    def germs(draw):
        n = draw(st.integers(2, 3))
        params = ("t",) if draw(st.booleans()) else ()
        ctx = VarContext.make([f"x{i}" for i in range(1, n + 1)], params)
        width = len(ctx.names)
        p = draw(st.integers(1, 4))
        # W = var^p + a_1 var^(p-1) + ... with every a_j vanishing at 0
        w = {(0,) * (width - 1) + (p,): 1}
        for j in range(1, p + 1):
            for _ in range(draw(st.integers(0, 2))):
                base = [0] * (width - 1)
                base[draw(st.integers(0, width - 2))] = draw(st.integers(1, 2))
                w[tuple(base) + (p - j,)] = draw(st.integers(-3, 3))
        # a unit with a var term, as in (1 + x2) above, is where the division
        # overstated the edge terms of W
        u = {(0,) * width: draw(st.sampled_from((-2, -1, 1, 3))),
             (0,) * (width - 1) + (1,): draw(st.sampled_from((1, -1, 2, 0)))}
        for _ in range(draw(st.integers(0, 2))):
            key = tuple(draw(st.integers(0, 1)) for _ in range(width))
            if any(key):
                u[key] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        f = Jet.polynomial(ctx, w, INFINITE_ORDER) * Jet.polynomial(ctx, u, INFINITE_ORDER)
        if draw(st.booleans()):
            # a tail of var alone: W is then, in general, a genuine series
            tail = (0,) * (width - 1) + (draw(st.integers(p + 1, p + 3)),)
            f = f + Jet.polynomial(ctx, {tail: draw(st.sampled_from((-1, 2)))}, INFINITE_ORDER)
        order = draw(st.integers(p + 2, 10))
        return Jet.polynomial(ctx, f.graded_items(), order)

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @hypothesis.given(germs())
    def check(f):
        check_one(f, f.ctx.names[-1])

    check()
    # one germ over Q(alpha), alpha^2 = 2, whose unit has the constant alpha
    a = Jet.constant(X2, ALPHA, 10)
    f = (x2(10) ** 2 + a * x1(10) * x2(10) - x1(10)) * (a + x2(10) - x1(10))
    check_one(f, "x2")
    assert weierstrass_prepare(f, "x2").unit == a + x2(10) - x1(10)
    assert min(seen.values()) >= 5, seen


def test_prepare_of_a_genuine_series_is_the_full_order_division_property():
    # W is a genuine series when a high power of var sits in the tail: the
    # lift gives up, and the answer is the one division at the order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    genuine = []

    @st.composite
    def germs(draw):
        n = draw(st.integers(2, 3))
        ctx = VarContext.make([f"x{i}" for i in range(1, n + 1)])
        order = draw(st.integers(8, 14))
        p = draw(st.integers(1, 3))
        f = {(0,) * (n - 1) + (p,): Fraction(1),
             (0,) * (n - 1) + (draw(st.integers(p + 1, order - 1)),): Fraction(
                 draw(st.sampled_from((-2, -1, 1, 2))))}
        for _ in range(draw(st.integers(1, 3))):
            base = [draw(st.integers(0, 2)) for _ in range(n - 1)]
            base[draw(st.integers(0, n - 2))] += 1
            f[tuple(base) + (draw(st.integers(0, p)),)] = Fraction(draw(st.integers(-3, 3)))
        return p, Jet.polynomial(ctx, f, order)

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(germs())
    def check(case):
        p, f = case
        var = f.ctx.names[-1]
        pf = weierstrass_prepare(f, var)
        if pf.exact:
            assert holds_identically(pf, f)
            return
        genuine.append(f)
        unit, poly = full_order_preparation(f, var, p)
        assert pf.unit == unit
        assert pf.poly == poly and pf.order == f.order

    check()
    assert len(genuine) >= 20

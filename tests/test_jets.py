import ast
import pathlib
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from equijet import jets as jets_module
from equijet.errors import (
    ContextMismatchError,
    InconclusiveError,
    NotAUnitError,
    PreconditionError,
    SubstitutionDivergenceError,
    UnknownVariableError,
)
from equijet.jets import DEFAULT_ORDER, INFINITE_ORDER, Jet, VarContext
from equijet.parser import parse_jet
from equijet.pseudopoly import generalized_discriminants, resultant_jets
from equijet.scalars import NumberField, scalar_inverse
from equijet.weierstrass import regularity_order, weierstrass_divide, weierstrass_prepare


X2 = VarContext.make(["x1", "x2"])
TX = VarContext.make(["x1", "x2"], params=["t"])


def jet(text_terms, ctx=X2, order=DEFAULT_ORDER, exact=True):
    return Jet(ctx, order, text_terms, exact)


def x(ctx=X2, order=DEFAULT_ORDER):
    return Jet.variable(ctx, "x1", order)


def y(ctx=X2, order=DEFAULT_ORDER):
    return Jet.variable(ctx, "x2", order)


def random_jet(rng, ctx=X2, order=6, max_deg=4, allow_unit=True):
    terms = {}
    for _ in range(rng.randrange(1, 6)):
        key = tuple(rng.randrange(0, max_deg) for _ in ctx.names)
        if sum(key) >= order:
            continue
        if not allow_unit and sum(key) == 0:
            continue
        terms[key] = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Jet(ctx, order, terms, True)


def test_difference_of_squares():
    a = 1 + x(order=4)
    b = 1 - x(order=4)
    assert (a * b) == jet({(0, 0): 1, (2, 0): -1}, order=4)


def test_additive_identity():
    a = random_jet(random.Random(1))
    assert (a + Jet.zero(X2, a.order)) == a


def test_truncation_kills_degree_two_at_order_two():
    s = Jet(X2, 2, {(1, 0): 1, (0, 1): 1}, True)
    sq = s * s
    assert sq.is_zero()
    assert not sq.exact


def test_context_mismatch_rejected():
    with pytest.raises(ContextMismatchError):
        x() + Jet.variable(TX, "x1")


def test_ring_axioms_on_samples():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (random_jet(rng) for _ in range(3))
        assert (a + b).terms == (b + a).terms
        assert (a * b).terms == (b * a).terms
        assert ((a + b) + c).terms == (a + (b + c)).terms
        assert ((a * b) * c).terms == (a * (b * c)).terms
        assert (a * (b + c)).terms == (a * b + a * c).terms


def test_invert_unit_geometric_series():
    inv = (1 + x(order=4)).invert_unit()
    assert inv == jet({(0, 0): 1, (1, 0): -1, (2, 0): 1, (3, 0): -1}, order=4, exact=False)


def test_invert_constant_is_exact():
    two = Jet.constant(X2, 2, order=3)
    inv = two.invert_unit()
    assert inv.constant_term() == Fraction(1, 2)
    assert inv.exact


def test_invert_nonunit_rejected():
    with pytest.raises(NotAUnitError):
        (x() + y()).invert_unit()


def test_invert_is_right_inverse_on_samples():
    rng = random.Random(13)
    one = Jet.constant(X2, 1, 6)
    for _ in range(30):
        u = random_jet(rng, order=6) + 1
        if not u.is_unit():
            continue
        assert (u * u.invert_unit()).terms == one.terms


def test_compose_simple():
    ctx_y = VarContext.make(["y"])
    a = Jet.constant(ctx_y, 1, 5) + Jet.variable(ctx_y, "y", 5)
    out = a.compose({"y": x(order=5) ** 2})
    assert out == jet({(0, 0): 1, (2, 0): 1}, order=5)


def test_compose_binomial_solution_exactly_zero():
    ctx_y = VarContext.make(["y1", "y2"])
    ctx_xz = VarContext.make(["x", "z"])
    f = Jet.variable(ctx_y, "y1") ** 2 - Jet.variable(ctx_y, "y2") ** 3
    y1 = Jet.monomial(ctx_xz, (3, 3))
    y2 = Jet.monomial(ctx_xz, (2, 2))
    out = f.compose({"y1": y1, "y2": y2})
    assert out.is_zero()
    assert out.exact


def test_compose_hand_expansion():
    ctx_y = VarContext.make(["y"])
    a = Jet.variable(ctx_y, "y", 4) ** 2
    out = a.compose({"y": x(order=4) + x(order=4) ** 2})
    assert out == jet({(2, 0): 1, (3, 0): 2}, order=4, exact=False)


def test_compose_constant_term_needs_flag():
    ctx_y = VarContext.make(["y"])
    a = Jet.variable(ctx_y, "y", 8) ** 2
    val = 1 + x(order=8)
    with pytest.raises(SubstitutionDivergenceError):
        a.compose({"y": val})
    out = a.compose({"y": val}, allow_constant=True)
    assert out == jet({(0, 0): 1, (1, 0): 2, (2, 0): 1}, order=8)


def test_compose_associativity_for_nilpotent_substitutions():
    rng = random.Random(5)
    ctx_y = VarContext.make(["y1", "y2"])
    for _ in range(15):
        a = random_jet(rng, ctx=ctx_y, order=5)
        s1 = {name: random_jet(rng, ctx=X2, order=5, allow_unit=False)
              for name in ("y1", "y2")}
        s2 = {"x1": random_jet(rng, ctx=X2, order=5, allow_unit=False),
              "x2": random_jet(rng, ctx=X2, order=5, allow_unit=False)}
        left = a.compose(s1).compose(s2)
        s12 = {name: val.compose(s2) for name, val in s1.items()}
        right = a.compose(s12)
        r = min(left.order, right.order)
        assert (left.truncate(r) - right.truncate(r)).is_zero()


def test_order_of():
    assert jet({(2, 1): 1, (0, 4): 1}).order_of() == 3
    assert Jet.zero(X2).order_of() == INFINITE_ORDER
    assert Jet.zero(X2).exact
    assert jet({(0, 0): 7, (1, 0): 1}).order_of() == 0


def test_derivative_basics():
    a = jet({(2, 1): 1})
    assert a.derivative("x1") == jet({(1, 1): 2}, order=DEFAULT_ORDER - 1)
    assert Jet.constant(X2, 3).derivative("x1").is_zero()
    assert jet({(0, 3): 1}).derivative("x1").is_zero()
    with pytest.raises(UnknownVariableError):
        a.derivative("zz")


def test_derivative_leibniz_on_samples():
    rng = random.Random(3)
    for _ in range(25):
        a, b = random_jet(rng), random_jet(rng)
        lhs = (a * b).derivative("x2")
        rhs = a.derivative("x2") * b + a * b.derivative("x2")
        r = min(lhs.order, rhs.order)
        assert (lhs.truncate(r) - rhs.truncate(r)).is_zero()


def test_exact_flag_survives_truncation_free_products():
    a = jet({(1, 0): 1, (0, 1): 2})
    b = jet({(2, 0): 1})
    assert (a * b).exact
    big = jet({(10, 0): 1})
    assert not (big * big).exact  # degree 20 >= 16 truncated


def test_restrict():
    a = jet({(2, 1): 1, (0, 2): 3})
    r = a.restrict({"x1": 0})
    assert r == jet({(0, 2): 3})
    ev = a.restrict({"x1": Fraction(1, 2), "x2": 2})
    assert ev.constant_term() == Fraction(25, 2)


def test_restrict_nonzero_requires_exact():
    a = Jet(X2, 4, {(1, 0): 1}, False)
    a.restrict({"x1": 0})  # fine
    with pytest.raises(InconclusiveError):
        a.restrict({"x1": 1})


def test_restrict_drop_removes_variables():
    a = Jet(TX, DEFAULT_ORDER, {(0, 0, 2): 3, (1, 1, 0): 1}, True)
    r = a.restrict({"t": 0}, drop=True)
    assert r.ctx == VarContext.make(["x1", "x2"])
    assert r == jet({(0, 2): 3})


def test_in_context_embedding_roundtrip():
    small = VarContext.make(["x1"])
    a = Jet.variable(small, "x1") ** 3
    wide = a.in_context(X2)
    assert wide == jet({(3, 0): 1})
    assert wide.in_context(small) == a
    with pytest.raises(ContextMismatchError):
        jet({(1, 1): 1}).in_context(small)


def test_coefficients_in_orders():
    f = Jet(X2, 6, {(0, 2): 1, (3, 0): -1}, False)
    coeffs = f.coefficients_in("x2")
    assert coeffs[2].order == 4  # known only mod degree 6 - 2
    assert coeffs[0].order == 6
    g = jet({(0, 2): 1, (3, 0): -1}, order=6)
    assert g.coefficients_in("x2")[2].order == 6  # exact data loses nothing


def test_polynomial_part_is_exact():
    a = Jet(X2, 8, {(1, 0): 1, (5, 0): 2}, False)
    p = a.polynomial_part(3)
    assert p.exact and p == Jet(X2, 8, {(1, 0): 1}, True)
    with pytest.raises(InconclusiveError):
        a.polynomial_part(9)


def test_with_order_raising_needs_exact():
    a = jet({(1, 0): 1})
    assert a.with_order(30).order == 30
    b = Jet(X2, 4, {(1, 0): 1}, False)
    with pytest.raises(InconclusiveError):
        b.with_order(8)


def test_infinite_order_only_on_exact_jets():
    # "known to every order" is a statement about the whole series
    lifted = jet({(1, 0): 1, (0, 2): 3}).with_order(INFINITE_ORDER)
    assert lifted.exact and lifted.order == INFINITE_ORDER
    assert (lifted * lifted).exact and (lifted * lifted).order == INFINITE_ORDER
    with pytest.raises(ValueError):
        Jet(X2, INFINITE_ORDER, {(1, 0): 1}, False)
    # a product with a truncated operand is known to its order only
    assert (lifted * x(order=5)).order == 5


def test_invert_unit_of_a_lifted_unit():
    # the inverse of a non-constant unit is a genuine series: it has no
    # exact value known to every order, so the inversion raises
    unit = (1 + x(order=6)).with_order(INFINITE_ORDER)
    with pytest.raises(ValueError):
        unit.invert_unit()
    two = Jet.constant(X2, 2, order=3).with_order(INFINITE_ORDER)
    inv = two.invert_unit()
    assert inv.exact and inv.constant_term() == Fraction(1, 2)


def test_text_roundtrip_style():
    a = jet({(0, 0): Fraction(-1, 2), (3, 0): 4, (1, 1): 1})
    assert str(a) == "-1/2 + x1*x2 + 4*x1^3"
    assert str(Jet.zero(X2)) == "0"


def test_shift_by_a_negative_power_needs_divisibility():
    f = jet({(1, 2): 3, (0, 3): 1}, order=6)
    assert f.shift("x2", -2) == jet({(1, 0): 3, (0, 1): 1}, order=4)
    with pytest.raises(PreconditionError):
        f.shift("x1", -1)


@pytest.mark.parametrize("kind", ["exact", "truncated", "infinite", "field"])
def test_power_squares_and_multiplies_from_the_base(kind, monkeypatch):
    # every power equals the product of n copies (terms, order and flag), and
    # costs bit_length(n) - 1 squarings and popcount(n) - 1 products, none of
    # them with the constant 1
    terms = {(0, 0): Fraction(3), (1, 0): Fraction(1), (0, 1): Fraction(-2, 3)}
    if kind == "field":
        terms[(1, 1)] = NumberField([-2, 0, 1]).generator()
    base = Jet(X2, INFINITE_ORDER if kind == "infinite" else 7, terms, kind != "truncated")
    one = Jet.constant(X2, 1, base.order)
    expected = [one]
    for _ in range(9):
        expected.append(expected[-1] * base)
    operands = []
    product = jets_module.value_product

    def spy(ctx, order, a, b):
        operands.append((a, b))
        return product(ctx, order, a, b)

    monkeypatch.setattr(jets_module, "value_product", spy)
    for n, power in enumerate(expected):
        operands.clear()
        assert base ** n == power
        assert len(operands) == max(n.bit_length() + bin(n).count("1") - 2, 0)
        assert (one.terms, one.exact) not in [v for pair in operands for v in pair]
    assert (base ** 9).exact == (kind == "infinite")


@pytest.mark.parametrize("order", [1, 2, 5, 9, INFINITE_ORDER])
def test_power_of_one_term_is_the_product_of_its_copies(order, monkeypatch):
    # c*x^k to the e-th power is c^e*x^(e*k) with the base's flag, dropped
    # with its flag cleared iff e*|k| reaches the order: the terms, order
    # and flag of the product of e copies, with no product formed
    alpha = NumberField([-2, 0, 1]).generator()
    bases = [Jet(X2, order, {k: c}, exact) for k in ((0, 0), (1, 0), (1, 2), (3, 1))
             for c in (1, -2, Fraction(-3, 2), alpha, alpha + 1)
             for exact in ((True,) if order == INFINITE_ORDER else (True, False))]
    for base in bases:
        if not base.terms:
            continue
        expected = [Jet.constant(X2, 1, order)]
        for _ in range(9):
            expected.append(expected[-1] * base)
        monkeypatch.setattr(jets_module, "value_product", None)
        for n, power in enumerate(expected):
            got = base ** n
            assert (got.order, got.exact, got.terms) == (power.order, power.exact, power.terms)
            assert [type(v) for v in got.terms.values()] == [type(v) for v in power.terms.values()]
        monkeypatch.undo()


def test_settled_order_of_the_zero_polynomial_is_at_least_one():
    assert Jet.polynomial(X2, {}, 0).order == 1
    assert Jet.polynomial(X2, {}, 7).order == 7


# -- properties of the term-format queries ------------------------------------


def ref_mul(a, b):
    """Reference product of two dict polynomials keyed by exponent tuples."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def term_dicts(st, width=2, max_exp=4):
    return st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * width),
                           st.integers(-4, 4).filter(bool).map(Fraction), max_size=6)


def jets(st, ctx=X2):
    """Jets in ``ctx`` of order 1..8, exact or not; terms at or above the
    order are dropped, which clears the flag."""
    return st.builds(lambda terms, order, exact: Jet(ctx, order, terms, exact),
                     term_dicts(st, len(ctx.names)), st.integers(1, 8), st.booleans())


def check_property(strategies, body, max_examples=80):
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(derandomize=True, max_examples=max_examples,
                                   deadline=None, database=None)
    settings(hypothesis.given(*strategies)(body))()


def test_split_property():
    st = pytest.importorskip("hypothesis").strategies

    def body(f, var, p):
        low, high = f.split(var, p)
        assert low + high.shift(var, p) == f
        assert low.is_zero() or low.degree_in(var) < p

    check_property([jets(st), st.sampled_from(X2.names), st.integers(0, 4)], body)


def test_shift_roundtrip_property():
    st = pytest.importorskip("hypothesis").strategies

    def body(f, var, k):
        shifted = f.shift(var, k)
        assert shifted.order == f.order + k
        assert shifted.shift(var, -k) == f

    check_property([jets(st), st.sampled_from(X2.names), st.integers(0, 4)], body)


def test_valuation_along_is_the_valuation_on_the_line_property():
    st = pytest.importorskip("hypothesis").strategies
    line = VarContext.make(["t"])

    def body(f, direction):
        t = Jet.variable(line, "t", f.order)
        on_line = f.compose({name: t.scale(direction.get(name, 0)) for name in TX.names})
        assert f.valuation_along(direction) == on_line.order_of()

    directions = st.dictionaries(st.sampled_from(TX.names), st.integers(-3, 3), min_size=1)
    check_property([jets(st, TX), directions], body)


def test_polynomial_settled_order_property():
    st = pytest.importorskip("hypothesis").strategies

    def body(terms, order):
        p = Jet.polynomial(X2, terms, order)
        assert p.exact
        assert p.order == max([order, 1] + [sum(k) + 1 for k in terms])
        assert p.graded_items() == sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        assert all(p.coefficient(k) == v for k, v in terms.items())

    check_property([term_dicts(st), st.integers(0, 8)], body)


def test_mul_matches_the_reference_product_property():
    st = pytest.importorskip("hypothesis").strategies

    def body(a, b):
        prod = a * b
        ref = ref_mul(dict(a.graded_items()), dict(b.graded_items()))
        assert prod.order == min(a.order, b.order)
        assert dict(prod.graded_items()) == {k: v for k, v in ref.items()
                                             if sum(k) < prod.order}
        if a.exact and b.exact:
            # lifted so that nothing is dropped, the product is the whole one
            room = (a.total_degree() or 0) + (b.total_degree() or 0) + 1
            full = a.with_order(room) * b.with_order(room)
            assert full.exact and dict(full.graded_items()) == ref
        else:
            assert not prod.exact

    check_property([jets(st), jets(st)], body)


def ref_compose(f, values):
    """Reference substitution of dict polynomials: ``values[i]`` replaces the
    variable of index ``i`` in ``f``."""
    out = {}
    for key, coeff in f.items():
        term = {(0,) * len(key): coeff}
        for i, e in enumerate(key):
            for _ in range(e):
                term = ref_mul(term, values[i])
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def exact_lift(data, st, j):
    """The terms of an exact jet that agrees with ``j`` below its order:
    those of ``j`` when it is exact, else with terms drawn at or above it."""
    terms = dict(j.graded_items())
    if not j.exact:
        tail = st.dictionaries(st.tuples(*[st.integers(0, 4)] * len(j.ctx.names)),
                               st.integers(-4, 4).filter(bool).map(Fraction), max_size=2)
        for k, v in data.draw(tail).items():
            terms[(k[0] + max(0, j.order - sum(k)),) + k[1:]] = v
    return terms


def whole_or_truncated(st, terms):
    """Jets in ``X2`` of order 1..8 with these terms: an exact one keeps them
    all (its order is raised to hold them), a truncated one drops those at or
    above its order."""
    return st.builds(lambda t, order, exact: Jet.polynomial(X2, t, order) if exact
                     else Jet(X2, order, t, False), terms, st.integers(1, 8), st.booleans())


def test_compose_matches_the_reference_substitution_property():
    # an exact result is the whole substitution; any other agrees below its
    # order with the substitution into exact lifts of the operands
    st = pytest.importorskip("hypothesis").strategies
    no_constant = whole_or_truncated(
        st, term_dicts(st).map(lambda t: {k: v for k, v in t.items() if any(k)}))

    def body(f, values, data):
        subst = {name: v for name, v in zip(X2.names, values) if v is not None}
        out = f.compose(subst)
        lifts = [exact_lift(data, st, subst[name]) if name in subst else {unit: Fraction(1)}
                 for name, unit in zip(X2.names, ((1, 0), (0, 1)))]
        ref = ref_compose(exact_lift(data, st, f), lifts)
        if out.exact:
            assert f.exact and all(subst[n].exact for n in f.occurring() if n in subst)
        assert dict(out.graded_items()) == {k: v for k, v in ref.items()
                                            if out.exact or sum(k) < out.order}

    values = st.tuples(*[st.one_of(st.none(), no_constant)] * 2)
    check_property([whole_or_truncated(st, term_dicts(st)), values, st.data()], body,
                   max_examples=40)


def constant_one_products(monkeypatch):
    """Count the products with the constant 1 as an operand, by the first
    calling function outside ``Jet.__pow__``."""
    callers = Counter()
    mul = Jet.__mul__

    def is_one(j):
        return isinstance(j, Jet) and j.graded_items() == [((0,) * len(j.ctx.names), 1)]

    def spy(a, b):
        if is_one(a) or is_one(b):
            frame = sys._getframe(1)
            while frame.f_code.co_name == "__pow__":
                frame = frame.f_back
            callers[frame.f_code.co_name] += 1
        return mul(a, b)

    monkeypatch.setattr(Jet, "__mul__", spy)
    monkeypatch.setattr(Jet, "__rmul__", spy)
    return callers


def compose_by_constant_products(f, subst):
    """:meth:`Jet.compose` formed term by term as the constant coefficient
    times the powers, one product each."""
    target = next(iter(subst.values())).ctx
    order = min([f.order] + [subst[n].order for n in f.occurring() if n in subst])
    acc = Jet.zero(target, order)
    for key, coeff in f.graded_items():
        term = Jet.constant(target, coeff, order)
        for name, e in zip(f.ctx.names, key):
            if e:
                base = subst[name] if name in subst else Jet.variable(target, name, order)
                power = base.truncate(order)
                for _ in range(e - 1):
                    power = power * base
                term = term * power
        acc = acc + term
    return Jet(target, order, dict(acc.graded_items()), acc.exact and f.exact)


def test_compose_forms_no_product_with_a_constant_coefficient_property(monkeypatch):
    # exact jets at a finite order, truncated ones and exact ones known to
    # every order: the terms, order and flag of the constant-times-powers
    # formulation, with no product by a constant
    st = pytest.importorskip("hypothesis").strategies
    callers = constant_one_products(monkeypatch)

    def operands(terms):
        return st.one_of(whole_or_truncated(st, terms),
                         st.builds(lambda t: Jet(X2, INFINITE_ORDER, t, True), terms))

    no_constant = operands(term_dicts(st).map(lambda t: {k: v for k, v in t.items() if any(k)}))

    def body(f, values):
        subst = {name: v for name, v in zip(X2.names, values) if v is not None}
        if not subst:
            return
        callers.clear()
        out = f.compose(subst)
        assert not callers
        assert out == compose_by_constant_products(f, subst)

    ones = term_dicts(st).map(lambda t: {**t, (0, 0): Fraction(1), (1, 1): Fraction(1)})
    values = st.tuples(*[st.one_of(st.none(), no_constant)] * 2)
    check_property([operands(st.one_of(term_dicts(st), ones)), values], body, max_examples=60)


def test_invert_unit_is_the_inverse_modulo_its_order_property():
    # u * inv is 1 in full when inv is flagged exact, else modulo its order
    # for every exact lift of u
    st = pytest.importorskip("hypothesis").strategies
    units = whole_or_truncated(st, st.builds(
        lambda t, c0: {**t, (0, 0): c0},
        term_dicts(st), st.sampled_from([Fraction(1), Fraction(-2), Fraction(3, 4)])))

    def body(u, data):
        inv = u.invert_unit()
        prod = ref_mul(exact_lift(data, st, u), dict(inv.graded_items()))
        assert {k: v for k, v in prod.items() if inv.exact or sum(k) < inv.order} \
            == {(0, 0): Fraction(1)}

    check_property([units, st.data()], body, max_examples=40)



# -- the Kronecker product kernel and its fallbacks -----------------------------


def ref_product(a, b):
    """``a * b`` as a whole jet from ``ref_mul``: the terms below the lower
    order, flagged exact when both operands are and nothing was dropped."""
    order = min(a.order, b.order)
    ref = ref_mul(dict(a.graded_items()), dict(b.graded_items()))
    exact = a.exact and b.exact and all(sum(k) < order for k in ref)
    return Jet(a.ctx, order, {k: v for k, v in ref.items() if sum(k) < order}, exact)


def count_kronecker(monkeypatch):
    """Record each call of the Kronecker kernel, one per product: True when
    it takes the product, False when it declines it."""
    taken = []
    kernel = jets_module._kronecker

    def spy(ta, tb, n, limit):
        out = kernel(ta, tb, n, limit)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(jets_module, "_kronecker", spy)
    return taken


def wide_jets(st):
    """Pairs of jets in 1-4 variables with enough terms for the Kronecker
    path: some variables absent from both, unequal denominators, numerators
    past 2^64, unequal orders, and terms at or above the other's order."""
    coeffs = st.builds(Fraction,
                       st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70)).filter(bool),
                       st.sampled_from([1, 2, 3, 7, 12, 2 ** 65 + 1]))

    def pair(width):
        ctx = VarContext.make([f"x{i}" for i in range(1, width + 1)])
        used = st.sets(st.integers(0, width - 1), min_size=1)

        def one(used_vars):
            top = 10 // len(used_vars)
            keys = st.tuples(*[st.integers(0, top) if i in used_vars else st.just(0)
                               for i in range(width)])
            terms = st.dictionaries(keys, coeffs, min_size=10, max_size=30)
            return st.builds(lambda t, order, exact: Jet(ctx, order, t, exact),
                             terms, st.integers(6, 16), st.booleans())

        return used.flatmap(lambda u: st.tuples(one(u), one(u)))

    return st.integers(1, 4).flatmap(pair)


def test_kronecker_product_matches_the_reference_property(monkeypatch):
    st = pytest.importorskip("hypothesis").strategies
    taken = count_kronecker(monkeypatch)

    def body(operands):
        a, b = operands
        assert a * b == ref_product(a, b)

    check_property([wide_jets(st)], body, max_examples=60)
    assert sum(taken) > len(taken) // 2


def test_kronecker_seeded_differential(monkeypatch):
    """3,000 seeded products, exact, truncated and mixed, in 1-4 variables,
    equal the reference product as whole jets: terms, order and flag."""
    taken = count_kronecker(monkeypatch)
    rng = random.Random(2024)

    def draw(ctx, used):
        order = rng.randint(4, 20)
        top = max(2, order // len(used) + 1)
        return Jet(ctx, order, {
            tuple(rng.randint(0, top) if i in used else 0 for i in range(len(ctx.names))):
                Fraction(rng.randint(-20, 20), rng.choice([1, 1, 2, 3, 5]))
            for _ in range(rng.randint(6, 24))}, rng.random() < 0.5)

    for _ in range(3000):
        width = rng.randint(1, 4)
        ctx = VarContext.make([f"x{i}" for i in range(1, width + 1)])
        used = rng.sample(range(width), rng.randint(1, width))
        a, b = draw(ctx, used), draw(ctx, used)
        assert a * b == ref_product(a, b)
    assert sum(taken) >= 1000


def test_kronecker_digits_at_their_bound(monkeypatch):
    """Every slot of ``(45 + 45*x1 + ... + 45*x1^31)`` times itself, or times
    its negative, reaches ``32 * 45^2 = 64,800``: a 16-bit bound, so the
    digits need a third byte for the sign.  Over the denominators 4 and 6
    the operands scale to the same numerators, so the digits meet the same
    bound, and the product is read over ``4 * 6``, not their lcm 12."""
    taken = count_kronecker(monkeypatch)
    ctx = VarContext.make(["x1"])
    a = Jet(ctx, 64, {(i,): 45 for i in range(32)}, True)
    for b in (a, -a):
        assert a * b == ref_product(a, b)
    quarters, sixths = a.scale(Fraction(1, 4)), a.scale(Fraction(-1, 6))
    prod = quarters * sixths
    assert prod == ref_product(quarters, sixths)
    assert prod.coefficient((31,)) == Fraction(-64800, 24)
    assert taken == [True, True, True]


def test_kronecker_graded_box_with_an_operand_divisible_by_a_variable(monkeypatch):
    """The graded box counts every digit from 0, whatever the operands'
    lowest exponents.  Every term of ``b`` has ``x1`` while a term of ``a``
    reaches ``x1^7`` below the order 8; and every term of ``c`` and ``d`` has
    ``x1^2*x2^2``, so no term lies below degree 4 of the order 12."""
    taken = count_kronecker(monkeypatch)
    a = Jet(X2, 8, {(i, j): i - 2 * j + 1 for i in range(8) for j in range(8 - i)}, False)
    b = Jet(X2, 8, {(i + 1, j): 3 - i * j for i in range(4) for j in range(4 - i)}, False)
    c = Jet(X2, 12, {(i + 2, j + 2): i * j - 5 for i in range(8) for j in range(8 - i)}, False)
    d = Jet(X2, 12, {(i + 2, j + 2): Fraction(2 - i, j + 1) for i in range(6) for j in range(6 - i)},
            False)
    assert a * b == ref_product(a, b)
    assert c * d == ref_product(c, d)
    assert taken == [True, True]

def test_field_element_coefficients_take_the_schoolbook_loop(monkeypatch):
    taken = count_kronecker(monkeypatch)
    alpha = NumberField([-2, 0, 1]).generator()
    ctx = VarContext.make(["x1", "x2"])
    a = Jet(ctx, 12, {(i, j): alpha + i - j for i in range(4) for j in range(3)}, True)
    b = Jet(ctx, 12, {(i, j): alpha * (i + 1) + j for i in range(3) for j in range(4)}, False)
    for x, y in ((a, a), (a, b)):
        assert x * y == ref_product(x, y)
    assert taken == [False, False]


def test_sparse_operands_take_the_schoolbook_loop(monkeypatch):
    taken = count_kronecker(monkeypatch)
    ctx = VarContext.make(["x1", "x2"])
    x1, x2 = (Jet.variable(ctx, v, 6002) for v in ("x1", "x2"))
    # 2 x 2 terms, and 8 x 8 terms spread over exponents up to 2,800
    a = (x1 ** 3000 + x2, sum((x1 ** (400 * i) * x2 ** i for i in range(8)), Jet.zero(ctx, 6002)))
    b = (x2 ** 3000 + x1, sum((x2 ** (400 * i) * x1 ** i for i in range(8)), Jet.zero(ctx, 6002)))
    taken.clear()
    for x, y in zip(a, b):
        tracemalloc.start()
        start = time.perf_counter()
        prod = x * y
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 1 << 20
        assert prod == ref_product(x, y)
    assert taken == [False, False]


# -- the dot product entry -------------------------------------------------------


def loop_dot(xs, ys, acc):
    """Reference: ``acc + x*y`` one pair at a time, every pair formed."""
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def dot_and_calls(taken, xs, ys, acc):
    """``Jet.dot(xs, ys, acc)`` and the kernel calls that it made, each
    taken (True) or declined (False), as ``count_kronecker`` records them."""
    taken.clear()
    out = Jet.dot(xs, ys, acc)
    return out, list(taken)


def test_dot_of_exact_operands_known_to_every_order_is_one_exact_pass(monkeypatch):
    taken = count_kronecker(monkeypatch)
    ctx = VarContext.make(["x1", "x2", "y"])
    xs = [Jet(ctx, INFINITE_ORDER, {(i, j, 0): i - 2 * j + 1 for i in range(4) for j in range(3)},
              True),
          Jet(ctx, INFINITE_ORDER, {(i, 0, k): Fraction(i + 1, k + 2) for i in range(3)
                                    for k in range(3)}, True)]
    ys = [Jet(ctx, INFINITE_ORDER, {(0, j, k): 2 ** 70 - j for j in range(3) for k in range(2)},
              True),
          Jet(ctx, INFINITE_ORDER, {(i, j, 1): Fraction(-3, 5) for i in range(2) for j in range(3)},
              True)]
    acc = Jet(ctx, INFINITE_ORDER, {(0, 0, 0): 7, (1, 1, 1): Fraction(1, 3)}, True)
    out, calls = dot_and_calls(taken, xs, ys, acc)
    assert out.exact and out.order == INFINITE_ORDER
    assert out == loop_dot(xs, ys, acc)
    assert calls == [True, True]


def test_dot_of_exact_and_truncated_operands_is_not_exact(monkeypatch):
    """One truncated operand makes the sum truncated, at the least order of
    ``acc`` and the formed operands.  A pair of an exact zero and an exact
    operand is not formed, so its order (3 here) does not count."""
    taken = count_kronecker(monkeypatch)
    exact = Jet(X2, INFINITE_ORDER, {(i, j): i * j - 3 for i in range(7) for j in range(7)}, True)
    finite = Jet.polynomial(X2, {(i, 1): i + 1 for i in range(5)}, 9)
    truncated = Jet(X2, 8, {(i, j): Fraction(i + 1, j + 1) for i in range(8) for j in range(8 - i)},
                    False)
    xs, ys = [exact, finite, exact], [truncated, exact, finite]
    acc = Jet.zero(X2, 10)
    out, calls = dot_and_calls(taken, xs + [Jet.zero(X2, 3)], ys + [exact], acc)
    assert not out.exact and out.order == 8
    assert out == loop_dot(xs, ys, acc)
    assert calls == [True, True, True]


def test_dot_of_exact_operands_at_a_finite_order_keeps_the_loop(monkeypatch):
    """Each product truncates at its own order and decides the flag: the
    first pair drops a term, the second does not."""
    taken = count_kronecker(monkeypatch)
    a = Jet.polynomial(X2, {(i, j): i + j + 1 for i in range(4) for j in range(4)}, 7)
    b = Jet.polynomial(X2, {(i, j): 2 - i for i in range(3) for j in range(3)}, 12)
    acc = Jet.zero(X2, 7)
    out, calls = dot_and_calls(taken, [a, b], [a, b], acc)
    assert out == loop_dot([a, b], [a, b], acc) and not out.exact
    assert (a * a).exact != (b * b).exact
    # the products of the loop, one kernel call each
    assert calls == [True, True]


def test_dot_with_field_element_coefficients_keeps_the_loop(monkeypatch):
    taken = count_kronecker(monkeypatch)
    alpha = NumberField([-2, 0, 1]).generator()
    a = Jet(X2, 12, {(i, j): alpha + i - j for i in range(4) for j in range(3)}, False)
    b = Jet(X2, INFINITE_ORDER, {(i, j): Fraction(i + 1, j + 1) for i in range(3) for j in range(4)},
            True)
    acc = Jet.zero(X2, 12)
    out, calls = dot_and_calls(taken, [a, b], [b, b], acc)
    assert out == loop_dot([a, b], [b, b], acc)
    # a*b declined, b*b taken
    assert calls == [False, True]


def test_dot_of_sparse_operands_keeps_the_loop(monkeypatch):
    taken = count_kronecker(monkeypatch)
    x1, x2 = (Jet.variable(X2, v, INFINITE_ORDER) for v in ("x1", "x2"))
    a = x1 ** 3000 + x2
    b = x2 ** 3000 + x1
    dense = sum((x1 ** i * x2 ** j for i in range(6) for j in range(6)), Jet.zero(X2, INFINITE_ORDER))
    acc = Jet.zero(X2, INFINITE_ORDER)
    start = time.perf_counter()
    out, calls = dot_and_calls(taken, [a, dense], [b, dense], acc)
    assert time.perf_counter() - start < 0.5
    assert out == loop_dot([a, dense], [b, dense], acc)
    assert calls == [False, True]


def test_dot_of_few_term_pairs_keeps_the_loop(monkeypatch):
    taken = count_kronecker(monkeypatch)
    a = Jet(X2, INFINITE_ORDER, {(0, 0): 1, (1, 0): 2, (0, 1): 3}, True)
    b = Jet(X2, 6, {(2, 0): 1, (1, 1): Fraction(-1, 2), (0, 3): 5}, False)
    acc = Jet(X2, 5, {(4, 0): 1}, True)
    out, calls = dot_and_calls(taken, [a, b, a], [b, a, a], acc)
    assert out == loop_dot([a, b, a], [b, a, a], acc)
    assert not out.exact and out.order == 5
    # 27 term pairs: no sum is tried, and each product of the loop declines
    assert calls == [False] * 3


def test_dot_of_constants_in_one_slot(monkeypatch):
    """40 pairs of constants, one term pair each: every product is below
    ``_KRONECKER_MIN_PAIRS``, so the kernel declines each one."""
    taken = count_kronecker(monkeypatch)
    ones = [Jet.constant(X2, Fraction(i, 3), INFINITE_ORDER) for i in range(1, 41)]
    for acc in (Jet.zero(X2, INFINITE_ORDER), Jet.zero(X2, 4, exact=False)):
        out, calls = dot_and_calls(taken, ones, ones, acc)
        assert out == loop_dot(ones, ones, acc)
        assert out.constant_term() == Fraction(sum(i * i for i in range(1, 41)), 9)
        assert calls == [False] * 40


def test_dot_skips_exact_zeros_only():
    """An exact zero beside an exact operand adds nothing; a zero known only
    modulo its order clears the flag, as the loop does."""
    x = Jet(X2, INFINITE_ORDER, {(1, 0): 1}, True)
    acc = Jet.zero(X2, INFINITE_ORDER)
    assert Jet.dot([Jet.zero(X2, 5)], [x], acc) is acc
    unknown = Jet.zero(X2, 5, exact=False)
    assert Jet.dot([unknown], [x], acc) == loop_dot([unknown], [x], acc)
    assert not Jet.dot([unknown], [x], acc).exact


def test_dot_rejects_operands_in_another_context():
    a = Jet(X2, INFINITE_ORDER, {(i, j): 1 for i in range(6) for j in range(6)}, True)
    other = Jet(TX, INFINITE_ORDER, {(0, i, j): 1 for i in range(6) for j in range(6)}, True)
    with pytest.raises(ContextMismatchError):
        Jet.dot([a], [other], Jet.zero(X2, INFINITE_ORDER))


def test_dot_seeded_differential(monkeypatch):
    """600 seeded dots of 1-5 pairs, operands exact at every order, exact at
    a finite order, truncated or zero, equal the loop as whole jets."""
    taken = count_kronecker(monkeypatch)
    rng = random.Random(10)

    def draw(ctx):
        kind = rng.randrange(4)
        if kind == 3:
            if rng.random() < 0.5:
                return Jet.zero(ctx, 20, exact=False)
            return Jet.zero(ctx, rng.choice([20, INFINITE_ORDER]))
        terms = {tuple(rng.randint(0, 4) for _ in ctx.names):
                 Fraction(rng.choice([rng.randint(-9, 9), rng.randint(-2 ** 70, 2 ** 70)]),
                          rng.choice([1, 1, 2, 3, 7]))
                 for _ in range(rng.randint(3, 14))}
        if kind == 0:
            return Jet(ctx, INFINITE_ORDER, terms, True)
        if kind == 1:
            return Jet.polynomial(ctx, terms, rng.randint(4, 12))
        return Jet(ctx, rng.randint(4, 12), terms, False)

    for _ in range(600):
        ctx = VarContext.make([f"x{i}" for i in range(1, rng.randint(1, 3) + 1)])
        k = rng.randint(1, 5)
        xs, ys = [draw(ctx) for _ in range(k)], [draw(ctx) for _ in range(k)]
        low = min([j.order for j in xs + ys] + [rng.choice([4, 12, INFINITE_ORDER])])
        acc = Jet.zero(ctx, low) if rng.random() < 0.7 else Jet(ctx, low, {(0,) * len(ctx.names): 1},
                                                               low == INFINITE_ORDER)
        out, calls = dot_and_calls(taken, xs, ys, acc)
        assert out == loop_dot(xs, ys, acc)
        # one kernel call per formed pair: only exact zero pairs are skipped
        assert len(calls) == sum(not (x.exact and y.exact and (x.is_zero() or y.is_zero()))
                                 for x, y in zip(xs, ys))


def test_compose_builds_high_powers_without_recursion():
    x1 = Jet.variable(X2, "x1", 1200)
    out = Jet.monomial(X2, (1100, 0), 1, order=1200).compose({"x1": 2 * x1})
    assert out == Jet.monomial(X2, (1100, 0), 2 ** 1100, order=1200)


def geometric_inverse(f):
    """The inverse modulo the order as the geometric series ``sum u^k / c0``
    with ``f = c0 * (1 - u)``, one product per power."""
    inv0 = Fraction(1) / f.constant_term()
    u = Jet.constant(f.ctx, 1, f.order) - f.scale(inv0)
    acc, power = Jet.constant(f.ctx, 1, f.order), u
    while not power.is_zero():
        acc, power = acc + power, power * u
    exact = f.exact and f.total_degree() in (None, 0)
    return Jet(f.ctx, f.order, dict(acc.scale(inv0).graded_items()), exact)


@pytest.mark.parametrize("order", range(1, 21))
def test_newton_inverse_equals_the_geometric_series(order):
    rng = random.Random(order)
    for _ in range(6):
        f = random_jet(rng, order=order, max_deg=5) + Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))
        if not f.is_unit():
            continue
        f = Jet(X2, order, dict(f.graded_items()), rng.random() < 0.5)
        assert f.invert_unit() == geometric_inverse(f)
    constant = Jet.constant(X2, 3, order)
    assert constant.invert_unit() == geometric_inverse(constant)
    assert constant.invert_unit().exact


def test_newton_inverse_with_field_element_coefficients():
    alpha = NumberField([-2, 0, 1]).generator()
    for order in (1, 2, 3, 7, 12):
        f = Jet(X2, order, {(0, 0): alpha + 1, (1, 0): alpha, (0, 2): Fraction(3, 2),
                            (2, 1): alpha * 3}, False)
        inv = f.invert_unit()
        assert inv == geometric_inverse(Jet(X2, order, dict(f.graded_items()), False))
        assert (f * inv).graded_items() == [((0, 0), Fraction(1))]

def test_no_module_but_jets_reads_the_term_dict():
    """The term dict is ``jets.py``'s own format: every other module goes
    through the Jet queries and constructors, never ``.terms`` or the raw
    ``Jet(ctx, order, terms, exact)``."""
    package = pathlib.Path(jets_module.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "jets.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                offenders.append(f"{path.name}:{node.lineno} reads .terms")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "Jet"):
                offenders.append(f"{path.name}:{node.lineno} calls Jet(...)")
    assert not offenders


def seeded_text(rng, names, rational):
    """2-6 terms of degree 0-6 in ``names`` with small integer coefficients,
    about half of them fractions when ``rational``."""
    terms = []
    for _ in range(rng.randint(2, 6)):
        coeff = str(rng.choice((-3, -2, -1, 1, 2, 5)))
        if rational and rng.random() < 0.5:
            coeff += f"/{rng.choice((2, 3, 4))}"
        mono = "*".join(f"{v}^{rng.randint(1, 2)}" for v in names if rng.random() < 0.6)
        terms.append(f"({coeff})*{mono}" if mono else f"({coeff})")
    return " + ".join(terms)


def one_format(j):
    """Whether every coefficient of ``j`` is an ``int`` when it is integral
    and otherwise a ``Fraction`` with a denominator above 1 (so no float)."""
    return all(type(v) is int or type(v) is Fraction and v.denominator > 1
               for v in j.terms.values())


def test_integral_coefficients_are_int_property(monkeypatch):
    """Seeded integer and rational jets in 1-3 variables keep the one
    coefficient format through every operation of the package."""
    taken = count_kronecker(monkeypatch)
    default = jets_module._KRONECKER_MIN_PAIRS
    rng = random.Random(26)
    seen = []
    for trial in range(90):
        names = [f"x{i}" for i in range(1, trial % 3 + 2)]
        ctx, order = VarContext.make(names), rng.randint(5, 9)
        var = rng.choice(names)
        f, g = (parse_jet(seeded_text(rng, names, trial % 2), ctx, order) for _ in range(2))
        truncated = Jet(ctx, order, dict(f.graded_items()), False)
        seen += [f, g, f + g, f - g, -f, f.scale(Fraction(2, 3)), f.scale(4)]
        for pairs in (1, 10 ** 9):  # the Kronecker kernel, then the schoolbook loop
            monkeypatch.setattr(jets_module, "_KRONECKER_MIN_PAIRS", pairs)
            seen += [f * g, truncated * g, f * f * g]
        monkeypatch.setattr(jets_module, "_KRONECKER_MIN_PAIRS", default)
        unit = f - f.constant_term() + rng.choice((1, -1, 2, Fraction(3, 2)))
        seen += [unit.invert_unit(), truncated.restrict({var: 0}),
                 f.compose({var: g - g.constant_term()})]
        if f.exact:
            seen.append(f.restrict({var: rng.choice((2, Fraction(1, 2)))}))
        divisor = Jet.variable(ctx, var, order) ** rng.randint(1, 3) + (g - g.constant_term()) * f
        if regularity_order(divisor, var) < order - 1:
            seen += weierstrass_divide(g, divisor, var)
            prepared = weierstrass_prepare(divisor, var)
            seen += [prepared.unit, prepared.poly.as_jet()]
            if prepared.poly.degree >= 1:
                seen += generalized_discriminants(prepared.poly).entries
            seen.append(resultant_jets(prepared.poly.as_jet(), g, var))
    assert all(map(one_format, seen))
    assert any(type(v) is Fraction for j in seen for v in j.terms.values())
    assert any(type(v) is int for j in seen for v in j.terms.values())
    assert any(taken) and len(seen) > 2000
    with pytest.raises(TypeError):
        Jet(X2, 4, {(1, 0): 0.5}, True)
    assert type(scalar_inverse(3)) is Fraction and scalar_inverse(3) == Fraction(1, 3)

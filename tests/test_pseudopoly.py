import random
from fractions import Fraction
from itertools import combinations
from statistics import median

import pytest

from equijet import jets as jets_module
from equijet import pseudopoly as pseudopoly_module
from equijet.errors import ContextMismatchError, DegreeCapError, PreconditionError
from equijet.jets import INFINITE_ORDER, Jet, VarContext, hankel_images, minor_images
from equijet.parser import parse_jet
from equijet.pseudopoly import (
    MAX_DEGREE,
    PseudoPolynomial,
    berkowitz_det,
    berkowitz_minors,
    generalized_discriminants,
    hankel_minor,
    hankel_minors,
    power_sums,
    resultant,
    resultant_jets,
)
from equijet.scalars import NumberField

Y = VarContext.make(["y"])
YX = VarContext.make(["x1", "y"])


def brute_power_sum(roots, k):
    return sum((r ** k for r in roots), Fraction(0))


def brute_vandermonde_minor(roots, k):
    """Independent oracle: sum over k-subsets of the squared Vandermonde."""
    total = Fraction(0)
    for subset in combinations(range(len(roots)), k):
        prod = Fraction(1)
        for a, b in combinations(subset, 2):
            prod *= (roots[a] - roots[b]) ** 2
        total += prod
    return total


def const(val, ctx=Y):
    return Jet.constant(ctx, val, 16)


def test_power_sums_roots_two_three():
    P = PseudoPolynomial.from_roots(Y, "y", [2, 3])
    s = power_sums(P, 3)
    assert [t.constant_term() for t in s] == [2, 5, 13]


def test_power_sums_all_roots_zero():
    P = PseudoPolynomial.from_roots(Y, "y", [0, 0, 0, 0])
    s = power_sums(P, 5)
    assert s[0].constant_term() == 4
    assert all(t.is_zero() for t in s[1:])


def test_power_sums_of_y2_minus_x1_cubed():
    f = Jet.variable(YX, "y") ** 2 - Jet.variable(YX, "x1") ** 3
    P = PseudoPolynomial.from_jet(f, "y")
    s = power_sums(P, 3)
    assert s[0].constant_term() == 2
    assert s[1].is_zero()
    assert s[2] == Jet(YX, 16, {(3, 0): 2}, True)


def test_map_coeffs_of_a_degree_0_polynomial_is_the_polynomial_itself():
    # the constant 1 has no coefficient to map, and keeps its context and order
    one = PseudoPolynomial("y", (), ctx=YX, order=9)
    mapped = one.map_coeffs(lambda c: pytest.fail("a coefficient was mapped"))
    assert mapped is one
    assert (mapped.degree, mapped.ctx, mapped.order) == (0, YX, 9)
    # a polynomial of positive degree maps each coefficient
    P = PseudoPolynomial.from_jet(Jet.variable(YX, "y") ** 2 - Jet.variable(YX, "x1") ** 3, "y")
    doubled = P.map_coeffs(lambda c: c.scale(2))
    assert doubled.coeffs == (P.coeffs[0], P.coeffs[1].scale(2))


def test_berkowitz_matches_laplace_oracle():
    rng = random.Random(11)

    def laplace(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = Fraction(0)
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * laplace(minor)
            total += term if j % 2 == 0 else -term
        return total

    for n in range(1, 6):
        for _ in range(6):
            m = [[Fraction(rng.randrange(-4, 5)) for _ in range(n)] for _ in range(n)]
            rows = [[const(v) for v in row] for row in m]
            assert berkowitz_det(rows).constant_term() == laplace(m)
            # the same pass yields every leading principal minor
            assert [d.constant_term() for d in berkowitz_minors(rows)] == \
                [laplace([row[:k] for row in m[:k]]) for k in range(1, n + 1)]


def test_hankel_minor_two_roots():
    P = PseudoPolynomial.from_roots(Y, "y", [2, 3])
    assert hankel_minor(P, 2).constant_term() == 1
    assert hankel_minor(P, 1).constant_term() == 2


def test_hankel_minor_repeated_root_vanishes():
    P = PseudoPolynomial.from_roots(Y, "y", [1, 1, 2])
    assert hankel_minor(P, 3).is_zero()
    assert hankel_minor(P, 3).exact


def test_hankel_minor_range_errors():
    P = PseudoPolynomial.from_roots(Y, "y", [1, 2])
    with pytest.raises(PreconditionError):
        hankel_minor(P, 0)
    with pytest.raises(PreconditionError):
        hankel_minor(P, 3)


def test_hankel_minor_oracle_random_roots():
    rng = random.Random(23)
    for _ in range(40):
        p = rng.randrange(1, 7)
        roots = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)) for _ in range(p)]
        P = PseudoPolynomial.from_roots(Y, "y", roots)
        for k in range(1, p + 1):
            assert hankel_minor(P, k).constant_term() == brute_vandermonde_minor(roots, k)
        for k in range(2 * p - 1):
            assert power_sums(P, 2 * p - 1)[k].constant_term() == brute_power_sum(roots, k)


def test_gendisc_cusp_discriminant():
    f = Jet.variable(YX, "y") ** 2 - Jet.variable(YX, "x1") ** 3
    gd = generalized_discriminants(PseudoPolynomial.from_jet(f, "y"))
    assert gd.first_nonzero == 1
    assert gd.first_entry == Jet(YX, 16, {(3, 0): 4}, True)
    assert gd.certified


def test_gendisc_repeated_root():
    P = PseudoPolynomial.from_roots(Y, "y", [1, 1, 2])
    gd = generalized_discriminants(P)
    assert gd.entries[0].is_zero() and gd.entries[0].exact
    assert gd.first_nonzero == 2
    assert gd.entries[1].constant_term() == 2


def test_gendisc_pure_power():
    P = PseudoPolynomial.from_roots(Y, "y", [0, 0, 0])
    gd = generalized_discriminants(P)
    assert gd.first_nonzero == 3
    assert gd.entries[2].constant_term() == 3
    assert gd.entries[0].is_zero() and gd.entries[1].is_zero()


def test_gendisc_first_nonzero_counts_distinct_roots():
    rng = random.Random(37)
    pool = [Fraction(v) for v in range(-3, 4)]
    for _ in range(30):
        p = rng.randrange(1, 7)
        roots = [rng.choice(pool) for _ in range(p)]
        gd = generalized_discriminants(PseudoPolynomial.from_roots(Y, "y", roots))
        assert gd.first_nonzero == p - len(set(roots)) + 1
        assert gd.certified


def test_gendisc_entries_are_the_hankel_minors():
    # one pass over the p-by-p matrix gives each entry exactly as its own
    # minor would: same terms, order and exact flag
    rng = random.Random(41)
    ctx = VarContext.make(["x1", "x2", "y"])

    def coeff(order, exact):
        terms = {(rng.randrange(4), rng.randrange(3), 0): Fraction(rng.randrange(-3, 4))
                 for _ in range(rng.randrange(3))}
        return Jet(ctx, order, {k: v for k, v in terms.items() if sum(k) < order}, exact)

    for case in range(24):
        p = rng.randrange(2, 5)
        if case % 2:
            # truncated, each coefficient known to its own order
            P = PseudoPolynomial("y", [coeff(rng.randrange(4, 9), False) for _ in range(p)])
        else:
            # exact, with a repeated root now and then
            roots = [coeff(40, True) for _ in range(p)]
            roots[-1] = rng.choice(roots)
            f = Jet.constant(ctx, 1, 40)
            for r in roots:
                f = f * (Jet.variable(ctx, "y", 40) - r)
            P = PseudoPolynomial.from_jet(f, "y")
            assert P.exact
        gd = generalized_discriminants(P)
        for l in range(1, p + 1):
            assert gd.entries[l - 1] == hankel_minor(P, p - l + 1)


def test_exact_results_do_not_depend_on_the_stated_order():
    # exact monic inputs at the least order that holds them, whose power sums
    # reach far above that order: every entry and resultant must come out
    # exact, at a finite order, and equal to the value computed from the same
    # input stated at a much higher order, once that value is settled
    rng = random.Random(83)
    ctx = VarContext.make(["x1", "x2", "y"])
    y = Jet.variable(ctx, "y", 200)

    def root():
        c = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(3)]
        return Jet.polynomial(ctx, {(1, 0, 0): c[0], (0, 1, 0): c[1], (1, 1, 0): c[2]}, 200)

    def at_least_order(f):
        return Jet.polynomial(ctx, f.graded_items(), 1)

    def settled(j, order):
        return Jet.polynomial(j.ctx, j.graded_items(), order)

    for case in range(8):
        roots = [root() for _ in range(3)]
        if case % 2:
            roots[-1] = roots[0]
        f = Jet.constant(ctx, 1, 200)
        for r in roots:
            f = f * (y - r)
        low = PseudoPolynomial.from_jet(at_least_order(f), "y")
        high = PseudoPolynomial.from_jet(f, "y")
        assert low.exact and high.exact
        assert max(s.total_degree() or 0 for s in power_sums(high, 2 * low.degree - 1)) \
            >= low.order
        got, want = generalized_discriminants(low), generalized_discriminants(high)
        assert got.first_nonzero == want.first_nonzero and got.certified
        for g, w in zip(got.entries, want.entries):
            assert g.exact and g.order < INFINITE_ORDER
            assert g == settled(w, low.order)
        other = Jet.constant(ctx, 1, 200)
        for r in (root(), root()):
            other = other * (y - r)
        a, b = at_least_order(f), at_least_order(other)
        res = resultant_jets(a, b, "y")
        assert res.exact and res.order < INFINITE_ORDER
        assert res == settled(resultant_jets(f, other, "y"), min(a.order, b.order))


def test_resultant_linear():
    ctx = VarContext.make(["a", "b", "y"])
    ya = Jet.variable(ctx, "y") - Jet.variable(ctx, "a")
    yb = Jet.variable(ctx, "y") - Jet.variable(ctx, "b")
    P = PseudoPolynomial.from_jet(ya, "y")
    Q = PseudoPolynomial.from_jet(yb, "y")
    assert resultant(P, Q) == Jet.variable(ctx, "a") - Jet.variable(ctx, "b")


def test_resultant_evaluation():
    f = Jet.variable(YX, "y") ** 2 - Jet.variable(YX, "x1")
    g = Jet.variable(YX, "y") + 1
    r = resultant(PseudoPolynomial.from_jet(f, "y"), PseudoPolynomial.from_jet(g, "y"))
    assert r == Jet.constant(YX, 1, 16) - Jet.variable(YX, "x1")


def test_resultant_with_constant_one():
    f = Jet.variable(YX, "y") ** 3 - Jet.variable(YX, "x1")
    one = Jet.constant(YX, 1, 16)
    assert resultant_jets(f, one, "y").constant_term() == 1


def test_resultant_jets_matches_sympy_property():
    # an exact resultant is the whole Sylvester resultant; any other agrees
    # below its order with the resultant of exact lifts that keep the degree
    # in y and the leading coefficient (the docstring's condition)
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    x1, y = sympy.symbols("x1 y")
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)
    # keys (a, j) of x1^a * y^j below the degree in y
    lower = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), coeffs, max_size=4)
    leads = [{(0, 0): 1}, {(0, 0): -2}, {(0, 0): 1, (1, 0): 1}, {(1, 0): 3}]

    @st.composite
    def operands(draw):
        # exact operands may have any leading coefficient; truncated ones are monic
        degree, exact = draw(st.integers(0, 3)), draw(st.booleans())
        lead = draw(st.sampled_from(leads)) if exact else {(0, 0): 1}
        terms = {(a, j): c for (a, j), c in draw(lower).items() if j < degree}
        terms.update({(a, degree): Fraction(c) for (a, _), c in lead.items()})
        if exact:
            return degree, Jet.polynomial(YX, terms, draw(st.integers(1, 6)))
        return degree, Jet(YX, draw(st.integers(degree + 1, 8)), terms, False)

    def lift(data, degree, j):
        terms = dict(j.graded_items())
        if not j.exact:
            for (a, e), c in data.draw(lower).items():
                if e < degree:
                    terms[(a + max(0, j.order - a - e), e)] = c
        return sum((c * x1 ** a * y ** e for (a, e), c in terms.items()), sympy.Integer(0))

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @hypothesis.given(operands(), operands(), st.data())
    def check(a, b, data):
        res = resultant_jets(a[1], b[1], "y")
        ref = sympy.Poly(sympy.resultant(lift(data, *a), lift(data, *b), y), x1, y).as_dict()
        assert dict(res.graded_items()) == {k: Fraction(int(v.p), int(v.q))
                                            for k, v in ref.items()
                                            if res.exact or sum(k) < res.order}

    check()


def test_resultant_shared_factor_vanishes():
    rng = random.Random(5)
    for _ in range(15):
        shared = [Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 3))]
        extra_p = [Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(0, 3))]
        extra_q = [Fraction(rng.randrange(-3, 4)) for _ in range(rng.randrange(0, 3))]
        P = PseudoPolynomial.from_roots(Y, "y", shared + extra_p)
        Q = PseudoPolynomial.from_roots(Y, "y", shared + extra_q)
        assert resultant(P, Q).is_zero()
        if set(extra_p).isdisjoint(extra_q) and not (set(extra_p) & set(shared)) \
                and not (set(extra_q) & set(shared)) and extra_p:
            P2 = PseudoPolynomial.from_roots(Y, "y", extra_p)
            Q2 = PseudoPolynomial.from_roots(Y, "y", shared + extra_q)
            assert not resultant(P2, Q2).is_zero()


def test_discriminant_of_distinct_linear_factors_nonzero():
    P = PseudoPolynomial.from_roots(Y, "y", [1, 2, -3])
    gd = generalized_discriminants(P)
    assert gd.first_nonzero == 1


def test_degree_cap():
    with pytest.raises(DegreeCapError):
        PseudoPolynomial.from_roots(Y, "y", list(range(13)))


def test_from_jet_requires_monic():
    f = Jet.constant(YX, 2, 16) * Jet.variable(YX, "y") ** 2
    with pytest.raises(PreconditionError):
        PseudoPolynomial.from_jet(f, "y")


def test_variable_mismatch():
    P = PseudoPolynomial.from_roots(YX, "y", [1])
    Q = PseudoPolynomial.from_roots(YX, "x1", [1])
    with pytest.raises(ContextMismatchError):
        resultant(P, Q)


def count_products(monkeypatch):
    """Record the products of term dicts formed: each product that the
    Kronecker kernel takes adds 1, and so does each schoolbook product.  A
    product that the kernel declines goes to the schoolbook loop, so nothing
    is counted twice."""
    formed = []
    kernel, schoolbook = jets_module._kronecker, jets_module._schoolbook

    def kernel_spy(ta, tb, n, limit):
        out = kernel(ta, tb, n, limit)
        if out is not None:
            formed.append(1)
        return out

    def schoolbook_spy(ta, tb, limit):
        formed.append(1)
        return schoolbook(ta, tb, limit)

    monkeypatch.setattr(jets_module, "_kronecker", kernel_spy)
    monkeypatch.setattr(jets_module, "_schoolbook", schoolbook_spy)
    return formed


def test_gendisc_of_an_exact_power_forms_only_its_nonzero_products(monkeypatch):
    # every power sum of x1^12 but s_0 is an exact zero, so the Berkowitz
    # pass and the power sums skip nearly all of their ~p^4/4 products
    ctx = VarContext.make(["x1", "x2"])
    P = PseudoPolynomial.from_jet(Jet.variable(ctx, "x1", 16) ** 12, "x1")
    formed = count_products(monkeypatch)
    gd = generalized_discriminants(P)
    assert sum(formed) <= 30
    assert all(e.is_zero() and e.exact for e in gd.entries[:-1])
    assert gd.entries[-1] == Jet.constant(ctx, 12, 16)
    assert gd.first_nonzero == 12 and gd.certified


def dense_berkowitz_minors(rows):
    """Reference: the Berkowitz pass forming every product, zeros included."""
    n = len(rows)
    ctx = rows[0][0].ctx
    order = min(e.order for r in rows for e in r)
    one = Jet.constant(ctx, 1, order)
    vec = [one, -rows[0][0].truncate(order)]
    minors = [-vec[-1]]
    for r in range(1, n):
        col0 = [one, -rows[r][r].truncate(order)]
        w = [rows[i][r] for i in range(r)]
        for _ in range(r):
            col0.append(-sum((x * y for x, y in zip(rows[r][:r], w)), Jet.zero(ctx, order)))
            w = [sum((rows[i][j] * w[j] for j in range(r)), Jet.zero(ctx, order))
                 for i in range(r)]
        vec = [sum((col0[i - j] * vec[j] for j in range(min(i, r) + 1)), Jet.zero(ctx, order))
               for i in range(r + 2)]
        minors.append(vec[-1] if r % 2 == 1 else -vec[-1])
    return minors


def test_berkowitz_minors_match_the_dense_pass_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ctx = VarContext.make(["x1", "x2"])
    # exact zeros, zeros known only modulo their order, truncated entries,
    # exact entries at a finite order and exact entries known to every order
    def entries(terms, orders, exact_zero_orders):
        return st.one_of(
            st.builds(lambda o: Jet.zero(ctx, o), st.sampled_from(exact_zero_orders)),
            st.builds(lambda o: Jet.zero(ctx, o, exact=False), orders),
            st.builds(lambda t, o: Jet(ctx, o, t, False), terms, orders),
            st.builds(lambda t, o: Jet.polynomial(ctx, t, o), terms, orders),
            st.builds(lambda t: Jet(ctx, INFINITE_ORDER, t, True), terms),
        )

    monomials = st.tuples(st.integers(0, 3), st.integers(0, 3))
    # entries of at most 3 small integer terms, whose products stay below
    # the 32 term pairs of the Kronecker kernel
    small = entries(st.dictionaries(monomials, st.integers(-3, 3).map(Fraction), max_size=3),
                    st.integers(3, 8), (3, 6, INFINITE_ORDER))
    # entries of 4-12 terms with numerators up to 2^70 over 1, 2, 3 or 7, at
    # orders high enough that their products survive the matrix's least order
    coeffs = st.builds(Fraction,
                       st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)),
                       st.sampled_from((1, 2, 3, 7)))
    large = entries(st.dictionaries(monomials, coeffs, min_size=4, max_size=12),
                    st.integers(5, 10), (5, 8, INFINITE_ORDER))

    @st.composite
    def matrices(draw, entry):
        n = draw(st.integers(1, 5))
        return [[draw(entry) for _ in range(n)] for _ in range(n)]

    def check(rows):
        assert berkowitz_minors(rows) == dense_berkowitz_minors(rows)

    settings = hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                                   database=None)
    settings(hypothesis.given(matrices(small))(check))()
    settings(hypothesis.given(matrices(large))(check))()

    # exact integer matrices known to every order, in 1-3 variables: the
    # pass on Kronecker images, which forms no product of jets
    formed = count_products(monkeypatch)

    @st.composite
    def integer_matrices(draw):
        ctx = VarContext.make([f"x{i}" for i in range(1, draw(st.integers(1, 3)) + 1)])
        terms = st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * len(ctx.names)),
            st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)).map(Fraction),
            max_size=5)
        n = draw(st.integers(1, 5))
        return [[Jet(ctx, INFINITE_ORDER, draw(terms), True) for _ in range(n)]
                for _ in range(n)]

    def check_integer(rows):
        formed.clear()
        minors = berkowitz_minors(rows)
        assert not formed
        assert minors == dense_berkowitz_minors(rows)

    settings = hypothesis.settings(derandomize=True, max_examples=40, deadline=None,
                                   database=None)
    settings(hypothesis.given(integer_matrices())(check_integer))()


def sylvester_hadamard(k):
    """The 2^k-by-2^k Sylvester-Hadamard matrix of +-1."""
    rows = [[1]]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + [-v for v in r] for r in rows]
    return rows


@pytest.mark.parametrize("entries, minors", [
    # x1 * H_4: rows orthogonal of norm 2, so |16*x1^4| meets Hadamard's bound
    (sylvester_hadamard(2), [1, -2, 4, 16]),
    # [[8, 8], [-8, 8]]*x1: 128*x1^2 meets the bound, which needs a sign
    # bit beyond one byte
    ([[8, 8], [-8, 8]], [8, 128]),
    # the same block above a zero row, which counts 1 in Hadamard's bound:
    # the bound is 128, as on the leading 2-by-2 block, and the elimination
    # stops at rank 2
    ([[8, 8, 0], [-8, 8, 0], [0, 0, 0]], [8, 128, 0]),
], ids=["hadamard-4", "sign-bit", "zero-row"])
def test_integer_pass_reads_minors_that_meet_hadamards_bound(entries, minors):
    ctx = VarContext.make(["x1", "x2"])
    rows = [[Jet(ctx, INFINITE_ORDER, {(1, 0): Fraction(v)}, True) for v in r] for r in entries]
    out = berkowitz_minors(rows)
    assert out == [Jet(ctx, INFINITE_ORDER, {(k, 0): Fraction(m)} if m else {}, True)
                   for k, m in enumerate(minors, start=1)]
    assert out == dense_berkowitz_minors(rows)


@pytest.mark.parametrize("kind", ["rational", "field", "truncated"])
def test_a_matrix_that_is_not_integer_keeps_the_dot_path(kind, monkeypatch):
    ctx = VarContext.make(["x1", "x2"])
    rows = [[Jet(ctx, INFINITE_ORDER, {(i, j): Fraction(i + 2 * j + 1)}, True)
             for j in range(3)] for i in range(3)]
    special = {"rational": Fraction(1, 3), "field": NumberField([-2, 0, 1]).generator()}
    if kind == "truncated":
        rows[2][1] = Jet(ctx, 9, {(2, 1): Fraction(5)}, False)
    else:
        rows[2][1] = Jet(ctx, INFINITE_ORDER, {(2, 1): special[kind]}, True)
    dots = []
    dot = Jet.dot

    def spy(xs, ys, acc):
        dots.append(len(xs))
        return dot(xs, ys, acc)

    monkeypatch.setattr(Jet, "dot", staticmethod(spy))
    out = berkowitz_minors(rows)
    assert dots
    assert out == dense_berkowitz_minors(rows)
    # the integer matrix takes the integer pass, with no dot product of jets
    dots.clear()
    rows[2][1] = Jet(ctx, INFINITE_ORDER, {(2, 1): Fraction(5)}, True)
    assert berkowitz_minors(rows) == dense_berkowitz_minors(rows)
    assert not dots


def spy_graded_pass(monkeypatch):
    """Record the dot products of jets formed and every value that the
    dot of the Berkowitz pass returns, whatever its ring."""
    seen = {"dots": 0, "values": []}
    dot, berkowitz = Jet.dot, pseudopoly_module._berkowitz

    def dot_spy(xs, ys, acc):
        seen["dots"] += 1
        return dot(xs, ys, acc)

    def berkowitz_spy(rows, diagonal, one, zero, ring_dot):
        def value_spy(xs, ys, acc):
            value = ring_dot(xs, ys, acc)
            seen["values"].append(value)
            return value
        return berkowitz(rows, diagonal, one, zero, value_spy)

    monkeypatch.setattr(Jet, "dot", staticmethod(dot_spy))
    monkeypatch.setattr(pseudopoly_module, "_berkowitz", berkowitz_spy)
    return seen


def takes_the_graded_pass(rows):
    """The rule of the graded box: integer entries, a least order ``N``
    finite and at least 1, and an entry of the leading 2-by-2 block that
    is not exact."""
    order = min(e.order for r in rows for e in r)
    return (all(v.denominator == 1 for r in rows for e in r for v in e.terms.values())
            and 1 <= order < INFINITE_ORDER
            and not all(e.exact for r in rows[:2] for e in r[:2]))


def check_graded_pass(rows, seen):
    """The graded pass formed no dot product of jets, and every sum of
    products it formed is a balanced residue modulo ``2^M = mask + 1``
    (``M = 8*w*window``): it lies in ``[-2^(M-1), 2^(M-1))``."""
    assert seen["dots"] == 0
    mask = minor_images(rows)[2]
    assert mask is not None
    assert all(-(mask + 1) // 2 <= v < (mask + 1) // 2 for v in seen["values"])


def test_truncated_integer_matrices_take_the_graded_pass_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def truncated_integer_matrices(draw):
        ctx = VarContext.make([f"x{i}" for i in range(1, draw(st.integers(1, 3)) + 1)])
        order = draw(st.integers(1, 5))
        terms = st.dictionaries(
            st.tuples(*[st.integers(0, 3)] * len(ctx.names)),
            st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70)).map(Fraction),
            max_size=4)
        above = st.integers(order, order + 3)
        # truncated entries, exact entries at the order or above it (some
        # with terms of degree >= order), entries known to every order,
        # exact zeros and zeros known only modulo their order
        entry = st.one_of(
            st.builds(lambda t, o: Jet(ctx, o, t, False), terms, above),
            st.builds(lambda t, o: Jet.polynomial(ctx, t, o), terms, above),
            st.builds(lambda t: Jet(ctx, INFINITE_ORDER, t, True), terms),
            st.builds(lambda o: Jet.zero(ctx, o), st.sampled_from((order, INFINITE_ORDER))),
            st.builds(lambda o: Jet.zero(ctx, o, exact=False), above),
        )
        n = draw(st.integers(1, 5))
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
        if draw(st.booleans()):
            # an entry of the leading 2-by-2 block truncated at the order
            i, j = draw(st.integers(0, min(n, 2) - 1)), draw(st.integers(0, min(n, 2) - 1))
            rows[i][j] = Jet(ctx, order, draw(terms), False)
        return rows

    seen = spy_graded_pass(monkeypatch)
    graded = []

    def check(rows):
        seen["dots"], seen["values"] = 0, []
        minors = berkowitz_minors(rows)
        graded.append(takes_the_graded_pass(rows))
        if graded[-1]:
            check_graded_pass(rows, seen)
        assert minors == dense_berkowitz_minors(rows)

    settings = hypothesis.settings(derandomize=True, max_examples=40, deadline=None,
                                   database=None)
    settings(hypothesis.given(truncated_integer_matrices())(check))()
    assert sum(graded) >= len(graded) // 2


def minors_of(ctx, order, minors):
    return [Jet(ctx, order, {tuple(k): Fraction(v) for k, v in m.items()}, False)
            for m in minors]


@pytest.mark.parametrize("entries, order, minors", [
    # [[8, 8], [-8, 8]]*x1: 128*x1^2 needs a sign bit beyond one byte
    ({(0, 0): {(1, 0): 8}, (0, 1): {(1, 0): 8}, (1, 0): {(1, 0): -8}, (1, 1): {(1, 0): 8}},
     3, [{(1, 0): 8}, {(2, 0): 128}]),
    # constants only: no active variable, a window of one slot
    ({(0, 0): {(0, 0): 2}, (0, 1): {(0, 0): 1}, (1, 0): {(0, 0): 1}, (1, 1): {(0, 0): 3},
      (1, 2): {(0, 0): 1}, (2, 1): {(0, 0): 1}, (2, 2): {(0, 0): 4}},
     2, [{(0, 0): 2}, {(0, 0): 5}, {(0, 0): 18}]),
    # two variables, so that the inner digit (x1) is decoded and the last
    # variable's exponent is the total degree less it; 3*x1*x2^3 is past
    # the order
    ({(0, 0): {(1, 0): 1, (0, 1): 2}, (0, 1): {(0, 2): 1}, (1, 0): {(1, 1): 3},
      (1, 1): {(1, 0): 1, (0, 1): -1}},
     4, [{(1, 0): 1, (0, 1): 2}, {(2, 0): 1, (1, 1): 1, (0, 2): -2}]),
], ids=["sign-bit", "constants", "two-variables"])
def test_graded_pass_reads_truncated_minors(entries, order, minors, monkeypatch):
    ctx = VarContext.make(["x1", "x2"])
    n = len(minors)
    rows = [[Jet(ctx, order, {k: Fraction(v) for k, v in entries.get((i, j), {}).items()},
                 False) for j in range(n)] for i in range(n)]
    seen = spy_graded_pass(monkeypatch)
    out = berkowitz_minors(rows)
    check_graded_pass(rows, seen)
    assert out == minors_of(ctx, order, minors)
    assert out == dense_berkowitz_minors(rows)


def test_an_exact_leading_block_at_a_finite_order_keeps_the_dot_path(monkeypatch):
    # the leading 2-by-2 block is exact at order 4 and so is its minor
    # 1 - x1^2; only the entry below it is truncated
    ctx = VarContext.make(["x1", "x2"])
    x1, x2 = Jet.variable(ctx, "x1", 4), Jet.variable(ctx, "x2", 4)
    one, zero = Jet.constant(ctx, 1, 4), Jet.zero(ctx, 4)
    rows = [[one, x1, zero], [x1, one, x2], [zero, x2, Jet(ctx, 4, {(1, 0): Fraction(2)}, False)]]
    assert minor_images(rows) is None
    seen = spy_graded_pass(monkeypatch)
    out = berkowitz_minors(rows)
    assert seen["dots"]
    assert out[1] == Jet.polynomial(ctx, {(0, 0): 1, (2, 0): -1}, 4) and out[1].exact
    assert not out[2].exact
    assert out == dense_berkowitz_minors(rows)


def reference_hankel_minors(P, k):
    """``d_1..d_k`` from the power sums on jets and the dense pass, settled
    as :func:`hankel_minors` settles them."""
    base_order = P.order
    sums = power_sums(pseudopoly_module._exact_lift(P), 2 * k - 1)
    minors = dense_berkowitz_minors([[sums[i + j] for j in range(k)] for i in range(k)])
    return [pseudopoly_module._settle(d, base_order) for d in minors]


def is_a_pure_power(P):
    """The rule of the closed form of :func:`hankel_minors`: ``P`` is
    ``v^p``, every coefficient an exact zero."""
    return all(a.exact and a.is_zero() for a in P.coeffs)


def takes_the_image_pass(P):
    """The rule of :func:`hankel_images`, which a pure power never reaches:
    integer coefficients, degree at least 2, and ``P`` exact, or truncated
    at ``N >= 1`` with ``a_1`` or ``a_2`` not exact."""
    return (not is_a_pure_power(P) and P.degree >= 2
            and all(v.denominator == 1 for a in P.coeffs for _, v in a.graded_items())
            and (P.exact or (P.order >= 1 and not (P.coeffs[0].exact and P.coeffs[1].exact))))


def spy_jet_products(monkeypatch):
    """Count the calls of :meth:`Jet.dot` and :meth:`Jet.__mul__`."""
    seen = {"products": 0}
    dot, mul = Jet.dot, Jet.__mul__

    def dot_spy(xs, ys, acc):
        seen["products"] += 1
        return dot(xs, ys, acc)

    def mul_spy(a, b):
        seen["products"] += 1
        return mul(a, b)

    monkeypatch.setattr(Jet, "dot", staticmethod(dot_spy))
    monkeypatch.setattr(Jet, "__mul__", mul_spy)
    monkeypatch.setattr(Jet, "__rmul__", mul_spy)
    return seen


def random_monic(rng):
    """An integer monic ``P`` (rational one time in five) of degree 1-6 in
    1-3 variables besides ``y``, with numerators up to 2^40: exact, or
    truncated at ``N`` from 1 to 6 on either side of the rule of
    :func:`takes_the_image_pass`."""
    nx, p = rng.randint(1, 3), rng.randint(1, 6)
    ctx = VarContext.make([f"x{i}" for i in range(1, nx + 1)] + ["y"])
    den = rng.choice((1, 1, 1, 1, 2))

    def terms(max_exp, max_size):
        return {tuple(rng.randint(0, max_exp) for _ in range(nx)) + (0,):
                Fraction(rng.choice((rng.randint(-3, 3), rng.randint(-2 ** 40, 2 ** 40))), den)
                for _ in range(rng.randint(0, max_size))}

    mode = rng.choice(("exact", "truncated", "exact-leading-pair"))
    if mode == "exact":
        # small enough for the dense pass on the whole power sums
        return PseudoPolynomial("y", [Jet.polynomial(ctx, terms(1, 2), rng.randint(1, 6))
                                      for _ in range(p)])
    order = rng.randint(1, 6)

    def coeff():
        # truncated, exact at or above the order (some with terms past it),
        # exact and known to every order, or a zero known only modulo its order
        kind, above = rng.randrange(4), rng.randint(order, order + 3)
        if kind == 0:
            return Jet(ctx, above, terms(2, 3), False)
        if kind == 1:
            return Jet.polynomial(ctx, terms(2, 3), above)
        if kind == 2:
            return Jet(ctx, INFINITE_ORDER, terms(2, 3), True)
        return Jet.zero(ctx, above, exact=False)

    coeffs = [coeff() for _ in range(p)]
    if mode == "truncated" or p < 3:
        # a_1 or a_2 truncated at the order: the graded box
        coeffs[rng.randrange(min(p, 2))] = Jet(ctx, order, terms(2, 3), False)
    else:
        # a_1 and a_2 exact at a finite order, a later one truncated at the
        # order: the other side of the rule
        coeffs[:2] = [Jet.polynomial(ctx, terms(2, 3), rng.randint(order, order + 3))
                      for _ in range(2)]
        coeffs[rng.randrange(2, p)] = Jet(ctx, order, terms(2, 3), False)
    return PseudoPolynomial("y", coeffs)


def test_hankel_minors_match_the_power_sums_and_the_dense_pass_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = spy_jet_products(monkeypatch)
    # hankel_minors runs its own passes on the ring hankel_images picks
    routes = []
    for name in ("berkowitz_minors", "minor_images", "power_sums"):
        monkeypatch.setattr(pseudopoly_module, name,
                            lambda *args, _name=name: routes.append(_name))
    taken = []

    def check_minors(P, k):
        seen["products"] = 0
        minors = hankel_minors(P, k)
        assert routes == []
        taken.append(takes_the_image_pass(P))
        if taken[-1] or is_a_pure_power(P):
            assert seen["products"] == 0
        else:
            assert seen["products"] or k == 1
        assert minors == reference_hankel_minors(P, k)

    def check(rng):
        P = random_monic(rng)
        check_minors(P, rng.randint(1, P.degree))

    settings = hypothesis.settings(derandomize=True, max_examples=40, deadline=None,
                                   database=None)
    settings(hypothesis.given(st.randoms(use_true_random=False))(check))()
    assert len(taken) // 3 <= sum(taken) <= len(taken) - len(taken) // 5
    # integer, a_1 and a_2 exact at N = 3 and a_3 truncated there: a_1^2 =
    # x1^4 reaches N, so s_2 is not exact and the Hankel matrix on jets
    # would take the graded box of minor_images; the jet pass gives the
    # same terms, order and flag
    ctx = VarContext.make(["x1", "y"])
    P = PseudoPolynomial("y", [Jet.polynomial(ctx, {(2, 0): 1}, 3),
                               Jet.polynomial(ctx, {(1, 0): 1}, 3),
                               Jet(ctx, 3, {(1, 0): Fraction(-1)}, False)])
    check_minors(P, 3)
    assert not taken[-1]


def test_hankel_minors_of_a_pure_power_match_the_reference_property(monkeypatch):
    # v^p with exact zero coefficients takes the closed form d_1 = p and
    # d_2..d_k = 0 and reaches no image pass; zeros known only modulo their
    # order take the general route, and with a_1 among them every minor
    # from d_2 on is not exact
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    asked = []
    images = pseudopoly_module.hankel_images
    monkeypatch.setattr(pseudopoly_module, "hankel_images",
                        lambda coeffs, k: asked.append(k) or images(coeffs, k))
    pure, inexact = [], []

    @st.composite
    def powers(draw):
        n = draw(st.integers(1, 3))
        params = ("t",) if draw(st.booleans()) else ()
        ctx = VarContext.make([f"x{i}" for i in range(1, n)] + ["y"], params)
        p, order = draw(st.integers(1, MAX_DEGREE)), draw(st.integers(1, 14))
        # exact zeros at a finite order or at every order
        coeffs = [Jet.zero(ctx, INFINITE_ORDER) if draw(st.booleans())
                  else Jet.zero(ctx, order + draw(st.integers(0, 3))) for _ in range(p)]
        if draw(st.booleans()):
            for i in draw(st.sets(st.integers(0, p - 1), min_size=1)):
                coeffs[i] = Jet.zero(ctx, order + draw(st.integers(0, 3)), exact=False)
        return PseudoPolynomial("y", coeffs), draw(st.integers(1, p))

    def check_power(P, k):
        asked.clear()
        minors = hankel_minors(P, k)
        assert minors == reference_hankel_minors(P, k)
        assert minors[0] == Jet.polynomial(P.ctx, {(0,) * len(P.ctx.names): P.degree}, P.order)
        if P.exact:
            pure.append(P)
            assert asked == []
            assert all(d.is_zero() and d.exact for d in minors[1:])
        else:
            assert asked == [k]
            if not P.coeffs[0].exact:
                inexact.append(P)
                assert not any(d.exact for d in minors[1:])

    settings = hypothesis.settings(derandomize=True, max_examples=60, deadline=None,
                                   database=None)
    settings(hypothesis.given(powers())(lambda case: check_power(*case)))()
    assert len(pure) >= 20 and len(inexact) >= 10
    # the cap, with d_1 alone and with every minor, and the whole Hankel
    # matrix of a truncated y^12
    ctx = VarContext.make(["x1", "y"], ["t"])
    for k in (1, MAX_DEGREE):
        check_power(PseudoPolynomial("y", [Jet.zero(ctx, 14)] * MAX_DEGREE), k)
    check_power(PseudoPolynomial("y", [Jet.zero(ctx, 14, exact=False)] * MAX_DEGREE),
                MAX_DEGREE)


def coefficients_of(ctx, order, exact, values):
    return [Jet(ctx, order, {tuple(k): Fraction(v) for k, v in a.items()}, exact)
            for a in values]


@pytest.mark.parametrize("order", [INFINITE_ORDER, 5], ids=["exact", "graded"])
@pytest.mark.parametrize("coeffs, minors", [
    # y^2 - c: d_2 = 4c is Hadamard's bound on the Hankel matrix [[2, 0],
    # [0, 2c]] of the norm bounds; 2^15 <= 4c < 2^16 needs a sign bit beyond
    # two bytes, and twice the bytes of ||a_2||_1 = c
    ([{}, {(0, 0): -(2 ** 13 + 1)}], [{(0, 0): 2}, {(0, 0): 4 * (2 ** 13 + 1)}]),
    # y^2 + x1^2*y - 1: d_2 = a_1^2 - 4*a_2 = x1^4 + 4 has degree
    # k*(k-1)*delta = 2*2, twice the greatest degree of a coefficient
    ([{(2, 0): 1}, {(0, 0): -1}], [{(0, 0): 2}, {(4, 0): 1, (0, 0): 4}]),
    # y^3 + x1*x2^3, one sparse coefficient: d_3 = -3*s_3^2 = -27*x1^2*x2^6,
    # of degree 6*delta = 6*(3/3) in x2
    ([{}, {}, {(1, 3): 1}], [{(0, 0): 3}, {}, {(2, 6): -27}]),
    # (y - 300*x1)^3: every minor but the first vanishes; its power sums
    # 3*(300*x1)^j overflow the digits on the way
    ([{(1, 0): -900}, {(2, 0): 270000}, {(3, 0): -27000000}],
     [{(0, 0): 3}, {}, {}]),
], ids=["width", "degree", "sparse", "repeated-root"])
def test_hankel_images_read_minors_that_meet_their_bounds(coeffs, minors, order,
                                                          monkeypatch):
    ctx = VarContext.make(["x1", "x2", "y"])
    values = [{k + (0,): v for k, v in a.items()} for a in coeffs]
    P = PseudoPolynomial("y", coefficients_of(ctx, order, order == INFINITE_ORDER, values))
    seen = spy_jet_products(monkeypatch)
    out = hankel_minors(P, P.degree)
    assert seen["products"] == 0
    expected = coefficients_of(ctx, order, order == INFINITE_ORDER,
                               [{k + (0,): v for k, v in m.items()} for m in minors])
    if order != INFINITE_ORDER:
        # the first minor is the exact constant s_0 = p at the order
        expected[0] = Jet.constant(ctx, P.degree, order)
    assert out == expected
    monkeypatch.undo()
    assert out == reference_hankel_minors(P, P.degree)


def spy_image_dot(monkeypatch):
    """Record every value that a dot of Kronecker images returns, in the
    Newton pass and the Berkowitz pass alike."""
    values = []
    image_dot = pseudopoly_module._image_dot

    def image_dot_spy(mask):
        dot = image_dot(mask)

        def value_spy(xs, ys, acc):
            value = dot(xs, ys, acc)
            values.append(value)
            return value
        return value_spy

    monkeypatch.setattr(pseudopoly_module, "_image_dot", image_dot_spy)
    return values


def test_graded_values_are_balanced_residues_as_wide_as_their_degree(monkeypatch):
    # a split quartic with negative terms plus a term past the order: many
    # power sums and minors have negative images, and their residues in
    # [0, 2^M) would be 2^M - |v|, as wide as the window
    ctx = VarContext.make(["x1", "x2", "y"])
    f = parse_jet("(y - x1 - 1)^2*(y - 2*x2 + 1)*(y + 3*x1 + x2 - 2) + x1^20", ctx, 14)
    P = PseudoPolynomial.from_jet(f, "y")
    mask = hankel_images(P.coeffs, P.degree)[2]
    assert mask is not None
    half = (mask + 1) // 2
    values = spy_image_dot(monkeypatch)
    out = hankel_minors(P, P.degree)
    assert values and all(-half <= v < half for v in values)
    assert median(v.bit_length() for v in values) < 2 * mask.bit_length() / 3
    monkeypatch.undo()
    assert out == reference_hankel_minors(P, P.degree)


def test_graded_passes_that_wrap_past_the_window_match_the_references_property():
    # orders 8-20: every entry has a negative term of degree N - 1, so its
    # image is negative and products of two entries wrap past the window
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def wrapping(draw):
        nx = draw(st.integers(1, 3))
        ctx = VarContext.make([f"x{i}" for i in range(1, nx + 1)] + ["y"])
        order = draw(st.integers(8, 20))

        def monomial(degree):
            cuts = sorted(draw(st.integers(0, degree)) for _ in range(nx - 1))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree])) + (0,)

        def entry():
            terms = {monomial(draw(st.integers(0, order - 2))):
                     draw(st.integers(-2 ** 20, 2 ** 20)) for _ in range(draw(st.integers(0, 2)))}
            terms[monomial(order - 1)] = -draw(st.integers(1, 2 ** 20))
            return Jet(ctx, order, terms, False)

        p, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
        return (PseudoPolynomial("y", [entry() for _ in range(p)]),
                [[entry() for _ in range(n)] for _ in range(n)])

    def check(drawn):
        P, rows = drawn
        assert hankel_images(P.coeffs, P.degree) is not None and minor_images(rows) is not None
        assert hankel_minors(P, P.degree) == reference_hankel_minors(P, P.degree)
        assert berkowitz_minors(rows) == dense_berkowitz_minors(rows)

    settings = hypothesis.settings(derandomize=True, max_examples=30, deadline=None,
                                   database=None)
    settings(hypothesis.given(wrapping())(check))()


def spy_bareiss(monkeypatch):
    """Record the outcome of every :func:`_bareiss` call (``full``, ``rank``
    for a rank stop, ``fallback`` for None), every value it forms (the
    quotient of each step), and the digit width ``M = 8*w*window`` of every
    minor read back (:func:`~equijet.jets._digits`)."""
    seen = {"outcomes": [], "values": [], "widths": set()}
    bareiss, digits = pseudopoly_module._bareiss, jets_module._digits
    values = seen["values"]

    class Traced(int):
        """An int whose products and differences stay traced and whose
        quotients are recorded."""

        def __mul__(self, other):
            return Traced(int(self) * other)

        def __sub__(self, other):
            return Traced(int(self) - other)

        def __floordiv__(self, other):
            values.append(int(self) // other)
            return Traced(values[-1])

    def bareiss_spy(rows):
        minors = bareiss([[Traced(x) for x in row] for row in rows])
        if minors is None:
            seen["outcomes"].append("fallback")
            return None
        seen["outcomes"].append("full" if all(minors) else "rank")
        return [int(m) for m in minors]

    def digits_spy(packed, window, width):
        seen["widths"].add(8 * width * window)
        return digits(packed, window, width)

    monkeypatch.setattr(pseudopoly_module, "_bareiss", bareiss_spy)
    monkeypatch.setattr(jets_module, "_digits", digits_spy)
    return seen


def test_exact_integer_passes_take_fraction_free_elimination_property(monkeypatch):
    # exact integer polynomials and matrices: Bareiss runs on their images
    # in Z, stops at the rank when a pivot and its whole block vanish, and
    # hands a vanishing pivot with a nonzero bordered minor to Berkowitz;
    # the minors match the references, and every value it forms is a
    # bordered minor, which fits the digits of the minors
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ctx = VarContext.make(["x1", "x2", "y"])
    small = st.integers(-3, 3)
    coefficient = st.one_of(small, st.integers(-2 ** 40, 2 ** 40))

    @st.composite
    def polynomials(draw):
        """A split ``P``, its roots most often distinct (the full pass), one
        with a root repeated (a rank stop), or ``y^p - c*x1^q`` with
        ``p = 3, 4``, whose ``d_2`` vanishes and ``d_3`` does not (the
        fallback)."""
        kind = draw(st.sampled_from(("split", "repeated", "cusp")))
        if kind == "cusp":
            p, q = draw(st.integers(3, 4)), draw(st.integers(1, 5))
            c = draw(coefficient.filter(bool))
            return PseudoPolynomial("y", [Jet.zero(ctx, INFINITE_ORDER)] * (p - 1)
                                    + [Jet(ctx, INFINITE_ORDER, {(q, 0, 0): -c}, True)])
        p = draw(st.integers(2, 5))
        # a nonzero x1 term keeps P from being y^p, which takes no pass
        roots = [{(1, 0, 0): draw(small.filter(bool)), (0, 1, 0): draw(small),
                  (2, 0, 0): draw(small), (0, 0, 0): draw(small)} for _ in range(p)]
        if kind == "repeated":
            roots[-1] = roots[0]
        y = Jet.variable(ctx, "y", INFINITE_ORDER)
        f = Jet.constant(ctx, 1, INFINITE_ORDER)
        for r in roots:
            f = f * (y - Jet(ctx, INFINITE_ORDER, r, True))
        return PseudoPolynomial.from_jet(f, "y")

    @st.composite
    def matrices(draw):
        """A matrix of exact integer polynomials in ``x1, x2`` (full), a
        product ``U*V`` through ``r < n`` columns (a rank stop), one with
        ``a_11 = 0`` (the fallback), or one with an all-zero row (a rank
        stop in the last row, else the fallback; the row counts 1 in
        Hadamard's bound)."""
        kind = draw(st.sampled_from(("random", "low-rank", "zero-pivot", "zero-row")))
        n = draw(st.integers(2, 4))
        terms = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)),
                                coefficient, min_size=1, max_size=3)

        def entries(count):
            return [[Jet(ctx, INFINITE_ORDER, draw(terms), True) for _ in range(count)]
                    for _ in range(n)]

        if kind == "low-rank":
            r = draw(st.integers(1, n - 1))
            U, V = entries(r), entries(n)[:r]
            zero = Jet.zero(ctx, INFINITE_ORDER)
            return [[Jet.dot(U[i], [V[m][j] for m in range(r)], zero) for j in range(n)]
                    for i in range(n)]
        rows = entries(n)
        if kind == "zero-pivot":
            rows[0][0] = Jet.zero(ctx, INFINITE_ORDER)
        if kind == "zero-row":
            rows[draw(st.integers(0, n - 1))] = [Jet.zero(ctx, INFINITE_ORDER)] * n
        return rows

    seen = spy_bareiss(monkeypatch)

    def check_pass(run, reference):
        seen["values"].clear()
        seen["widths"].clear()
        out = run()
        # one digit width M for every minor read back, which no value formed
        # on the way outgrows
        (M,) = seen["widths"]
        assert all(-2 ** (M - 1) <= v < 2 ** (M - 1) for v in seen["values"])
        assert out == reference()

    def check(drawn):
        P, rows = drawn
        check_pass(lambda: hankel_minors(P, P.degree), lambda: reference_hankel_minors(P, P.degree))
        check_pass(lambda: berkowitz_minors(rows), lambda: dense_berkowitz_minors(rows))

    settings = hypothesis.settings(derandomize=True, max_examples=40, deadline=None,
                                   database=None)
    settings(hypothesis.given(st.tuples(polynomials(), matrices()))(check))()
    for outcome in ("full", "rank", "fallback"):
        assert seen["outcomes"].count(outcome) >= 5, seen["outcomes"]

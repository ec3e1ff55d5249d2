import random
from fractions import Fraction

import pytest
import sympy

from equijet import jets as jets_module
from equijet import parser as parser_module
from equijet.errors import ParseError, UnknownVariableError
from equijet.jets import INFINITE_ORDER, Jet, VarContext
from equijet.parser import parse_factored, parse_jet

X2 = VarContext.make(["x1", "x2"])
TX2 = VarContext.make(["x1", "x2"], params=["t"])


def x1(order=16):
    return Jet.variable(X2, "x1", order)


def x2(order=16):
    return Jet.variable(X2, "x2", order)


def test_parse_cusp():
    assert parse_jet("x2^2 - x1^3", X2, 16) == x2() ** 2 - x1() ** 3


def test_parse_family():
    f = parse_jet("x2^2 - (1+t)*x1^3", TX2, 16)
    t, y1, y2 = (Jet.variable(TX2, n, 16) for n in ("t", "x1", "x2"))
    assert f == y2 ** 2 - (Jet.constant(TX2, 1, 16) + t) * y1 ** 3


def test_parse_double_caret_is_located_error():
    with pytest.raises(ParseError) as err:
        parse_jet("x2^^2", X2, 16)
    assert err.value.line == 1
    assert err.value.column == 4


def test_errors_after_a_newline_are_located_on_their_line():
    with pytest.raises(ParseError) as err:
        parse_jet("x1^2 +\n  x2^^2", X2, 16)
    assert (err.value.line, err.value.column) == (2, 6)
    with pytest.raises(ParseError) as err:
        parse_jet("(x1 + x2)*x1\n )", X2, 16)
    assert (err.value.line, err.value.column) == (2, 2)


@pytest.mark.parametrize("text, message, column", [
    ("(x1 + x2", "expected ')', found 'end of input'", 9),
    ("x1 +", "unexpected 'end of input'", 5),
    ("x1 * )", "unexpected ')'", 6),
    # the whole text is tokenized before the grammar error is reached
    ("x2^^2 + $", "unexpected character '$'", 9),
    # only ASCII digits make a number: int() rejects a superscript
    ("x2^² - x1", "unexpected character '²'", 4),
    ("x2^2 - ²", "unexpected character '²'", 8),
])
def test_grammar_and_tokenizer_errors_are_located(text, message, column):
    with pytest.raises(ParseError) as err:
        parse_jet(text, X2, 16)
    assert message in str(err.value)
    assert (err.value.line, err.value.column) == (1, column)


def test_parse_unknown_variable_against_context():
    with pytest.raises(UnknownVariableError) as err:
        parse_jet("x1 + zz", X2, 16)
    assert "'zz' at line 1, column 6" in str(err.value)


def test_parse_rational_literals():
    assert parse_jet("3/4", X2, 16) == Jet.constant(X2, Fraction(3, 4), 16)
    assert parse_jet("-3/4", X2, 16) == Jet.constant(X2, Fraction(-3, 4), 16)
    # '^' after a rational literal is ambiguous, so it is a located error
    with pytest.raises(ParseError) as err:
        parse_jet("x1 + 3/4^2", X2, 16)
    assert (err.value.line, err.value.column) == (1, 9)
    assert "write (3/4)^2" in str(err.value)
    assert parse_jet("(3/4)^2", X2, 16) == Jet.constant(X2, Fraction(9, 16), 16)
    assert parse_jet("3^2", X2, 16) == Jet.constant(X2, 9, 16)
    assert parse_jet("3/4*x1^2", X2, 16) == Jet.variable(X2, "x1", 16) ** 2 * Fraction(3, 4)
    with pytest.raises(ParseError):
        parse_jet("3/x1", X2, 16)
    with pytest.raises(ParseError) as err:
        parse_jet("1/0", X2, 16)
    assert err.value.column == 3


def test_parse_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse_jet("x1 + x2 )", X2, 16)
    assert err.value.column == 9


def test_parse_jet_matches_hand_value():
    f = parse_jet("x2^2 - (1+t)*x1^3", TX2, 16)
    want = Jet.variable(TX2, "x2") ** 2 \
        - (1 + Jet.variable(TX2, "t")) * Jet.variable(TX2, "x1") ** 3
    assert f == want


def test_parse_jet_text_roundtrip():
    f = parse_jet("1/2*x1*x2 - x2^3 + 4", X2, 10)
    again = parse_jet(str(f), X2, 10)
    assert f == again


def test_parse_factored():
    factors = parse_factored("(x1)*(x2)^2*(x1+x2)", X2, 16)
    assert factors == [(x1(), 1), (x2(), 2), (x1() + x2(), 1)]
    assert parse_factored("x1^3", X2, 16) == [(x1(), 3)]


def test_factor_lists_follow_products_powers_and_negations():
    # a top-level product lists its factors, parentheses included
    assert parse_factored("((x1)*(x2))", X2, 16) == [(x1(), 1), (x2(), 1)]
    assert parse_factored("x1*(x2*(x1 + x2))", X2, 16) == [(x1(), 1), (x2(), 1),
                                                         (x1() + x2(), 1)]
    # a power gives its base and its last exponent
    assert parse_factored("((x1)*(x2))^2", X2, 16) == [(x1() * x2(), 2)]
    assert parse_factored("x1^2^3", X2, 16) == [(x1() ** 2, 3)]
    # anything else is one factor: unary minus binds tighter than '*'
    assert parse_factored("-(x1)*(x2)", X2, 16) == [(-x1(), 1), (x2(), 1)]
    assert parse_factored("-((x1)*(x2))", X2, 16) == [(-(x1() * x2()), 1)]
    assert parse_factored("x1*x2 + x1", X2, 16) == [(x1() * x2() + x1(), 1)]


def test_parse_factored_forms_only_the_bases(monkeypatch):
    # every product, the parser's and those of a power, is one call of
    # value_product
    calls = []
    product = jets_module.value_product

    def spy(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(jets_module, "value_product", spy)
    monkeypatch.setattr(parser_module, "value_product", spy)
    parse_factored("(x1 + 4*x2)^2*(x1 - 4*x2)", X2, 16)
    assert len(calls) == 2
    calls.clear()
    parse_jet("(x1 + 4*x2)^2*(x1 - 4*x2)", X2, 16)
    # the two coefficient products, the square, the product of the factors
    assert len(calls) == 2 + 1 + 1


def test_products_keep_the_grammar_grouping():
    # exact operands at a finite order: dropping terms clears the flag, so
    # the flag of the product depends on which product is formed first
    left = parse_jet("x1^10*x1^10*0", X2, 16)
    right = parse_jet("x1^10*(x1^10*0)", X2, 16)
    assert left.is_zero() and not left.exact
    assert right.is_zero() and right.exact


NAMES = ("t", "x1", "x2")
SUM, PRODUCT, UNARY, POWER, ATOM = range(5)


def random_text(rng, depth=0):
    """A random expression as ``(text, value, level)``, where ``level`` is
    the grammar rule whose operand position the text can fill without
    parentheses."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        if rng.random() < 0.5:
            num, den = rng.randrange(0, 9), rng.randrange(1, 5)
            if den == 1:
                return str(num), sympy.Integer(num), ATOM
            # a rational literal is no base of '^': it fills a unary position
            return f"{num}/{den}", sympy.Rational(num, den), UNARY
        name = rng.choice(NAMES)
        return name, sympy.Symbol(name), ATOM

    def operand(least):
        text, value, level = random_text(rng, depth + 1)
        if level < least or rng.random() < 0.1:
            text = f"({text})"
        return text, value

    if roll < 0.55:
        (lt, lv), (rt, rv) = operand(SUM), operand(PRODUCT)
        op = rng.choice("+-")
        space = rng.choice([" ", "", "\n", " \n  "])
        return f"{lt}{space}{op} {rt}", lv + rv if op == "+" else lv - rv, SUM
    if roll < 0.7:
        (lt, lv), (rt, rv) = operand(PRODUCT), operand(UNARY)
        return f"{lt}*{rt}", lv * rv, PRODUCT
    if roll < 0.85:
        text, value = operand(UNARY)
        return f"-{text}", -value, UNARY
    # '^' is left associative: a power is a valid base of another power
    text, value = operand(POWER)
    exp = rng.randrange(0, 4)
    return f"{text}^{exp}", value ** exp, POWER


def test_random_text_matches_its_value():
    rng = random.Random(42)
    symbols = [sympy.Symbol(n) for n in TX2.names]
    for _ in range(300):
        text, value, _ = random_text(rng)
        jet = parse_jet(text, TX2, INFINITE_ORDER)
        poly = sympy.Poly(sympy.expand(value), *symbols)
        want = {k: Fraction(int(c.p), int(c.q)) for k, c in poly.terms() if c}
        assert jet.exact, text
        assert dict(jet.graded_items()) == want, text


def random_jet_text(rng, order, depth=0):
    """A random expression at ``order`` as ``(text, jet, level)``: ``jet``
    is the tree evaluated by the ``Jet`` operators in the grammar's
    grouping (sums and products from the left, powers of powers from the
    inside out), and ``level`` is as in :func:`random_text`.  Exponents run
    past the order now and then, so that powers drop terms."""
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        pick = rng.random()
        if pick < 0.3:
            num = rng.randrange(0, 9)
            return str(num), Jet.constant(TX2, num, order), ATOM
        if pick < 0.5:
            num, den = rng.randrange(-9, 9), rng.randrange(2, 5)
            text = f"{abs(num)}/{den}"
            value = Jet.constant(TX2, Fraction(abs(num), den), order)
            return (f"-{text}", -value, UNARY) if num < 0 else (text, value, UNARY)
        name = rng.choice(NAMES)
        return name, Jet.variable(TX2, name, order), ATOM

    def operand(least):
        text, value, level = random_jet_text(rng, order, depth + 1)
        if level < least or rng.random() < 0.1:
            text = f"({text})"
        return text, value

    if roll < 0.55:
        (lt, lv), (rt, rv) = operand(SUM), operand(PRODUCT)
        op = rng.choice("+-")
        space = rng.choice([" ", "", "\n", "\t", " \n  "])
        return f"{lt}{space}{op} {rt}", lv + rv if op == "+" else lv - rv, SUM
    if roll < 0.7:
        (lt, lv), (rt, rv) = operand(PRODUCT), operand(UNARY)
        return f"{lt}*{rt}", lv * rv, PRODUCT
    if roll < 0.8:
        text, value = operand(UNARY)
        return f"-{text}", -value, UNARY
    text, value = operand(POWER)
    exp = rng.randrange(0, 4) if rng.random() < 0.8 else rng.randrange(4, 12)
    return f"{text}^{exp}", value ** exp, POWER


@pytest.mark.parametrize("order", range(0, 9))
def test_random_text_matches_its_jet_at_every_order_property(order):
    # terms (in their insertion order), order and flag of the parsed jet are
    # those of the same tree on jets: the flag of a truncated product or
    # power depends on the grouping
    rng = random.Random(f"parser-flags:{order}")
    flags = set()
    for _ in range(300):
        text, want, _ = random_jet_text(rng, order)
        got = parse_jet(text, TX2, order)
        assert (got.order, got.exact, list(got.terms.items())) == (
            want.order, want.exact, list(want.terms.items())), text
        flags.add(got.exact)
    assert flags == {True, False}

"""Expression language: a recursive-descent parser that evaluates into jets.

Grammar (standard precedence, left associativity):

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)*
    atom    := RATIONAL | NAME | '(' expr ')'
    RATIONAL := INT ('/' INT)?

There is no division operator; '/' only joins two integer literals into a
rational literal.  Powers take nonnegative integer literals.  A rational
literal takes no '^': ``3/4^2`` is a located error that suggests
``(3/4)^2``, since it could mean ``(3/4)^2`` or ``3/(4^2)``.

No expression tree is built.  Each grammar rule returns its value together
with its factor list ``[(base, exponent), ...]``: the factors of a product
(parentheses included), the base and last exponent of a power, or else the
value itself with exponent 1.  Literals, variables, sums and negations are
evaluated as soon as they are parsed; a product or a power is a thunk,
formed when an enclosing rule or :func:`parse_jet` uses it, so
:func:`parse_factored` forms its factors and nothing more.  Products keep
the grammar's grouping, on which the exactness flag of a truncated product
can depend.  The text is tokenized before anything is evaluated, but a
grammar error is found where it stands, after the subexpressions before it
have been evaluated.

Values are term dicts with their flags at the one order of the parse
(:data:`~equijet.jets.Value`), evaluated by the value functions of
:mod:`~equijet.jets`: a whole ``+``/``-`` run is one merge
(:func:`~equijet.jets.value_sum`), and products and powers are those of
``Jet.__mul__`` and ``Jet.__pow__``.  A jet is formed only where one is
handed out: the result of :func:`parse_jet` and each base of
:func:`parse_factored`.  The tokenizer is one regular expression over the
ASCII tokens; any other character is white space, the start of a name or
a located error, as ``str.isspace`` and ``str.isalpha`` say.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, List, Tuple

from .errors import ParseError, UnknownVariableError
from .jets import (
    Jet, Value, VarContext, value_constant, value_jet, value_power, value_product, value_sum,
    value_variable,
)

#: what each grammar rule returns: its value, evaluated on call, and its factors
_Rule = Tuple[Callable[[], Value], List[Tuple[Value, int]]]


def _evaluated(value: Value) -> _Rule:
    return (lambda: value), [(value, 1)]


#: A token is ``(kind, text, line, column)`` with the kind ``"int"``,
#: ``"name"``, ``"op"`` or ``"end"``.
_Token = Tuple[str, str, int, int]

#: The ASCII tokens and runs of ASCII white space.  Only ASCII digits make a
#: number: ``str.isdigit`` also holds for a superscript digit
#: (``'\u00b2'``), which ``int`` rejects.  ``\w`` is ``str.isalnum`` or
#: ``_``, so a name goes on through non-ASCII letters and digits.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*^()/])"
                    r"|(?P<space>[ \t\n\r\x0b\x0c\x1c-\x1f]+)")
_NAME_REST = re.compile(r"\w*")


def _tokenize(text: str) -> List[_Token]:
    """The tokens of ``text``, each at its line and column (both from 1).
    A character that no ASCII token takes is white space if
    ``str.isspace`` says so, starts a name if ``str.isalpha`` does, and is
    otherwise a located error."""
    tokens: List[_Token] = []
    line, line_start = 1, 0
    i, size = 0, len(text)
    match = _TOKEN.match
    while i < size:
        m = match(text, i)
        if m is None:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if not ch.isalpha():
                raise ParseError(f"unexpected character {ch!r}", line, i - line_start + 1)
            j = _NAME_REST.match(text, i + 1).end()
            tokens.append(("name", text[i:j], line, i - line_start + 1))
            i = j
            continue
        kind, j = m.lastgroup, m.end()
        if kind != "space":
            tokens.append((kind, text[i:j], line, i - line_start + 1))
        elif "\n" in m.group():
            line += m.group().count("\n")
            line_start = text.rindex("\n", i, j) + 1
        i = j
    tokens.append(("end", "", line, size - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VarContext, order: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
        self.order = order

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def accept_op(self, ops: str) -> str:
        """The operator at the cursor, consumed, if it is one of ``ops``."""
        kind, text, _, _ = self.tokens[self.pos]
        if kind == "op" and text in ops:
            self.pos += 1
            return text
        return ""

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok[0] != "op" or tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1] or 'end of input'!r}",
                             tok[2], tok[3])
        return self.advance()

    def parse_all(self) -> _Rule:
        value = self.parse_expr()
        kind, text, line, column = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input starting at {text!r}", line, column)
        return value

    def parse_expr(self) -> _Rule:
        value, factors = self.parse_term()
        signed = None
        while op := self.accept_op("+-"):
            rhs, _ = self.parse_term()
            if signed is None:
                signed = [(False, value())]
            signed.append((op == "-", rhs()))
        if signed is None:
            return value, factors
        return _evaluated(value_sum(signed))

    def parse_term(self) -> _Rule:
        value, factors = self.parse_unary()
        while self.accept_op("*"):
            rhs, rhs_factors = self.parse_unary()
            value = lambda lhs=value, rhs=rhs: value_product(self.ctx, self.order, lhs(), rhs())
            factors = factors + rhs_factors
        return value, factors

    def parse_unary(self) -> _Rule:
        if self.accept_op("-"):
            value, _ = self.parse_unary()
            return _evaluated(value_sum([(True, value())]))
        return self.parse_power()

    def parse_power(self) -> _Rule:
        value, factors = self.parse_atom()
        while self.accept_op("^"):
            kind, text, line, column = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal", line, column)
            base, exp = value(), int(text)
            value = lambda base=base, exp=exp: value_power(self.ctx, self.order, base, exp)
            factors = [(base, exp)]
        return value, factors

    def parse_atom(self) -> _Rule:
        kind, text, line, column = self.advance()
        if kind == "int":
            if not self.accept_op("/"):
                return _evaluated(value_constant(self.ctx, self.order, int(text)))
            den_kind, den_text, den_line, den_column = self.advance()
            if den_kind != "int":
                raise ParseError("expected an integer denominator", den_line, den_column)
            den = int(den_text)
            if den == 0:
                raise ParseError("zero denominator", den_line, den_column)
            hat = self.peek()
            if hat[1] == "^":
                literal, exp = f"{text}/{den_text}", self.tokens[self.pos + 1]
                raise ParseError(f"'^' after the rational literal {literal}; write "
                                 f"({literal})^{exp[1] if exp[0] == 'int' else 'n'}",
                                 hat[2], hat[3])
            return _evaluated(value_constant(self.ctx, self.order, Fraction(int(text), den)))
        if kind == "name":
            if text not in self.ctx.names:
                raise UnknownVariableError(
                    f"unknown variable {text!r} at line {line}, column {column} "
                    f"(declared: {sorted(self.ctx.names)})")
            return _evaluated(value_variable(self.ctx, self.order, text))
        if kind == "op" and text == "(":
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", line, column)


def parse_jet(text: str, ctx: VarContext, order: int) -> Jet:
    """The jet of an expression in the names of ``ctx`` at ``order`` (terms
    at or above the order are dropped and flagged); an undeclared variable
    is rejected with its source position."""
    value, _ = _Parser(text, ctx, order).parse_all()
    return value_jet(ctx, order, value())


def parse_factored(text: str, ctx: VarContext, order: int) -> List[Tuple[Jet, int]]:
    """The factors of a factored form, a top-level product of powered groups.

    ``(x1)*(x2)^2`` yields the jets ``[(x1, 1), (x2, 2)]``; a single powered
    atom or group counts as a one-factor product.  Only the bases are
    evaluated, not their powers or their product.
    """
    _, factors = _Parser(text, ctx, order).parse_all()
    return [(value_jet(ctx, order, base), exp) for base, exp in factors]

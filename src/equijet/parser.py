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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

from .errors import ParseError, UnknownVariableError
from .jets import Jet, VarContext

#: what each grammar rule returns: its value, evaluated on call, and its factors
_Value = Tuple[Callable[[], Jet], List[Tuple[Jet, int]]]


def _evaluated(jet: Jet) -> _Value:
    return (lambda: jet), [(jet, 1)]


@dataclass(frozen=True)
class _Token:
    kind: str  # "int" | "name" | "op" | "end"
    text: str
    line: int
    column: int


#: Only ASCII digits make a number: ``str.isdigit`` also holds for a
#: superscript digit (``'\u00b2'``), which ``int`` rejects.
_DIGITS = "0123456789"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(_Token("op", ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
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
        tok = self.peek()
        if tok.kind == "op" and tok.text in ops:
            self.pos += 1
            return tok.text
        return ""

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return self.advance()

    def parse_all(self) -> _Value:
        value = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.column)
        return value

    def parse_expr(self) -> _Value:
        value, factors = self.parse_term()
        while op := self.accept_op("+-"):
            rhs, _ = self.parse_term()
            value, factors = _evaluated(value() + rhs() if op == "+" else value() - rhs())
        return value, factors

    def parse_term(self) -> _Value:
        value, factors = self.parse_unary()
        while self.accept_op("*"):
            rhs, rhs_factors = self.parse_unary()
            value = lambda lhs=value, rhs=rhs: lhs() * rhs()
            factors = factors + rhs_factors
        return value, factors

    def parse_unary(self) -> _Value:
        if self.accept_op("-"):
            value, _ = self.parse_unary()
            return _evaluated(-value())
        return self.parse_power()

    def parse_power(self) -> _Value:
        value, factors = self.parse_atom()
        while self.accept_op("^"):
            exp_tok = self.peek()
            if exp_tok.kind != "int":
                raise ParseError("exponent must be a nonnegative integer literal",
                                 exp_tok.line, exp_tok.column)
            self.advance()
            base, exp = value(), int(exp_tok.text)
            value, factors = (lambda base=base, exp=exp: base ** exp), [(base, exp)]
        return value, factors

    def parse_atom(self) -> _Value:
        tok = self.advance()
        if tok.kind == "int":
            den = 1
            if self.accept_op("/"):
                den_tok = self.advance()
                if den_tok.kind != "int":
                    raise ParseError("expected an integer denominator",
                                     den_tok.line, den_tok.column)
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.line, den_tok.column)
                hat = self.peek()
                if hat.text == "^":
                    literal, exp = f"{tok.text}/{den_tok.text}", self.tokens[self.pos + 1]
                    raise ParseError(f"'^' after the rational literal {literal}; write "
                                     f"({literal})^{exp.text if exp.kind == 'int' else 'n'}",
                                     hat.line, hat.column)
            return _evaluated(Jet.constant(self.ctx, Fraction(int(tok.text), den), self.order))
        if tok.kind == "name":
            if tok.text not in self.ctx.names:
                raise UnknownVariableError(
                    f"unknown variable {tok.text!r} at line {tok.line}, column {tok.column} "
                    f"(declared: {sorted(self.ctx.names)})")
            return _evaluated(Jet.variable(self.ctx, tok.text, self.order))
        if tok.kind == "op" and tok.text == "(":
            value = self.parse_expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column)


def parse_jet(text: str, ctx: VarContext, order: int) -> Jet:
    """The jet of an expression in the names of ``ctx`` at ``order`` (terms
    at or above the order are dropped and flagged); an undeclared variable
    is rejected with its source position."""
    value, _ = _Parser(text, ctx, order).parse_all()
    return value()


def parse_factored(text: str, ctx: VarContext, order: int) -> List[Tuple[Jet, int]]:
    """The factors of a factored form, a top-level product of powered groups.

    ``(x1)*(x2)^2`` yields the jets ``[(x1, 1), (x2, 2)]``; a single powered
    atom or group counts as a one-factor product.  Only the bases are
    evaluated, not their powers or their product.
    """
    _, factors = _Parser(text, ctx, order).parse_all()
    return factors

"""Exact multivariate power series truncated at a fixed total order.

A :class:`Jet` stores the coefficients of a series below a stated total
degree ``order`` over an exact scalar field (rationals, optionally one simple
algebraic extension).  The ``exact`` flag records whether the stored terms
are the *whole* series -- a genuine polynomial with no hidden tail -- or only
its residue modulo total degree ``order``.  Only exact values can certify
that something vanishes identically; everything else is "zero modulo the
certification order" and the rest of the package treats it that way.

Conventions:

* term keys are exponent tuples aligned with the context's variable order;
* canonical term order for display and reports is graded lexicographic
  (total degree first, then the exponent tuple);
* binary operations require equal contexts and truncate at the minimum of
  the two orders;
* only an exact jet may have ``order`` ``INFINITE_ORDER`` (known to every
  order): exact intermediates are lifted there so that no product truncates
  them, and settled with :meth:`Jet.polynomial` before they are returned;
* a rational coefficient is stored as the ``int`` it is when it is
  integral, else as a ``Fraction`` with a denominator above 1; the
  constructor keeps this one format (and rejects a ``float``), so integer
  jets run on plain ``int`` arithmetic throughout;
* the term dict is this module's own format: other modules read jets
  through the queries and build them with the named constructors, or
  evaluate on values (below).

A value (:data:`Value`) is the term dict and the flag of a jet at an order
that the caller keeps.  The expression parser evaluates on values, with
atoms (:func:`value_constant`, :func:`value_variable`), a signed sum of a
whole run in one merge (:func:`value_sum`), products (:func:`value_product`)
and powers (:func:`value_power`), and forms a jet (:func:`value_jet`) only
where it hands one out.  :meth:`Jet.__mul__` and :meth:`Jet.__pow__` are
:func:`value_product` and :func:`value_power` on the values of jets, so the
flag rule of products and powers exists once.

Products of rational jets with at least ``_KRONECKER_MIN_PAIRS`` term pairs
are one big-integer multiply (Kronecker substitution, :func:`_kronecker`):
exact times exact in a box of the exponents, anything truncated in a box
graded by total degree that reads only the degrees below the order.  Every
Kronecker box in this module comes from one builder, :func:`_layout`.
Coefficients in an algebraic extension, fewer term pairs and operands too
sparse to pack (``x1^3000 + x2``) take the schoolbook loop.  A dot product
(:meth:`Jet.dot`) is the loop of these products.

The unit inverse (:meth:`Jet.invert_unit`) is the degree recurrence on term
dicts (:func:`_inverse`).  The Weierstrass factors of a jet come from a
Hensel lift on term dicts (:func:`weierstrass_lift`) of its stored terms,
whose error products are formed only below ``x'``-degree ``N``: exact when
the jet is exact and they are polynomials, else modulo its order.
Division by them is the long division by the lifted ``W``
(:func:`weierstrass_quotient`).

A square matrix of integer polynomials has Kronecker images too
(:func:`minor_images`): each entry is packed once, in a box and a digit
width that hold every minor, so that a whole determinant pass runs on
plain integers and the determinant is unpacked once.  Entries
known to every order are packed in a box of the exponents, and the pass
runs in Z, where it may divide exactly (fraction-free elimination).
Entries truncated at a least order ``N`` are packed in a box graded by
total degree below ``N``, and the division-free pass runs modulo
``2^(8*w*window)``: evaluation followed by that reduction is a ring
homomorphism from ``Z[x]/(deg >= N)``.  The determinant is flagged not
exact, as on jets, where a non-exact entry of the leading 2-by-2 block
clears the flag of every minor after the first.  The coefficients of a
monic polynomial with integer coefficients have images in the same boxes
(:func:`hankel_images`), sized for the Hankel minors of its power sums, so
that Newton's identities run on the same integers as the pass of the
minors that follows them.  :func:`_images` packs and unpacks for both.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    ContextMismatchError,
    InconclusiveError,
    NotAUnitError,
    PreconditionError,
    SubstitutionDivergenceError,
    UnknownVariableError,
)
from .scalars import Scalar, as_scalar, scalar_inverse, scalar_is_rational, scalar_to_text

DEFAULT_ORDER = 16

#: Returned by valuation queries on jets with no stored term, and the order
#: of an exact jet known to every order.
INFINITE_ORDER = math.inf

Exponents = Tuple[int, ...]


@dataclass(frozen=True)
class VarContext:
    """An ordered list of variable names split into a parameter block and a
    coordinate block.

    The first ``n_params`` names are deformation parameters (inert under all
    coordinate changes); the remaining names are coordinates whose order
    encodes the projection ladder used by the tower construction: the last
    coordinate is eliminated first.
    """

    names: Tuple[str, ...]
    n_params: int = 0

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ContextMismatchError(f"duplicate variable names: {self.names}")
        if not (0 <= self.n_params <= len(self.names)):
            raise ContextMismatchError("parameter block out of range")
        for n in self.names:
            if not n or not n.replace("_", "a").isalnum() or n[0].isdigit():
                raise ContextMismatchError(f"bad variable name: {n!r}")

    @classmethod
    def make(cls, coords: Iterable[str], params: Iterable[str] = ()) -> "VarContext":
        params = tuple(params)
        return cls(params + tuple(coords), len(params))

    @property
    def params(self) -> Tuple[str, ...]:
        return self.names[: self.n_params]

    @property
    def coords(self) -> Tuple[str, ...]:
        return self.names[self.n_params:]

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownVariableError(f"unknown variable {name!r} in context {self.names}") from None

    def has(self, name: str) -> bool:
        return name in self.names

    def without(self, drop: Iterable[str]) -> "VarContext":
        drop = set(drop)
        names = tuple(n for n in self.names if n not in drop)
        n_params = sum(1 for n in self.params if n not in drop)
        return VarContext(names, n_params)


def term_sort_key(exps: Exponents):
    return (sum(exps), exps)


# -- the product kernel --------------------------------------------------------

#: Fewer term pairs than this are multiplied by the schoolbook loop, which
#: beats packing on small operands.
_KRONECKER_MIN_PAIRS = 32
#: The big-integer multiply meets every slot of one packed operand with
#: every slot of the other, so it pays only when the two operands fill their
#: slots: at most this many slot pairs (the product of the two extents) per
#: term pair (the product of the two term counts).  Sparser operands
#: (``x1^3000 + x2`` spans 3001 slots with 2 terms) keep the schoolbook loop.
_KRONECKER_SLOTS_PER_PAIR = 256
#: ``bytes.translate`` table: every nonzero byte becomes 1.
_NONZERO_TO_ONE = bytes([0] + [1] * 255)


def _schoolbook(ta: Mapping[Exponents, Scalar], tb: Mapping[Exponents, Scalar],
                limit: Optional[int], degree: Callable[[Exponents], int] = sum
                ) -> Dict[Exponents, Scalar]:
    """The product of two term dicts pair by pair; with a ``limit``, only the
    pairs whose ``degree`` (additive on exponents; the total degree unless
    given) is below it: each term of ``a`` meets the terms of ``b``, sorted
    by degree, up to the first one that reaches the limit."""
    prod: Dict[Exponents, Scalar] = {}
    items_b = list(tb.items())
    if limit is not None:
        items_b.sort(key=lambda kv: degree(kv[0]))
        degs_b = [degree(kb) for kb, _ in items_b]
    add = operator.add
    for ka, va in ta.items():
        row = items_b
        if limit is not None:
            row = items_b[:bisect.bisect_left(degs_b, limit - degree(ka))]
        for kb, vb in row:
            key = tuple(map(add, ka, kb))
            val = va * vb
            cur = prod.get(key)
            prod[key] = val if cur is None else cur + val
    return prod


def _pack(slots: List[int], values: List[int], extent: int, width: int) -> int:
    """One integer with ``values[t]`` as its signed base-``2^(8*width)``
    digit number ``slots[t]``."""
    pos, neg = bytearray(extent * width), bytearray(extent * width)
    for slot, v in zip(slots, values):
        at = slot * width
        if v > 0:
            pos[at:at + width] = v.to_bytes(width, "little")
        else:
            neg[at:at + width] = (-v).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _layout(n: int, entries: Sequence[Mapping[Exponents, Scalar]], order,
            box: Optional[Sequence[int]]
            ) -> Tuple[List[int], int, Callable[[int, int, int, int], Dict[Exponents, Scalar]]]:
    """The Kronecker box of term dicts in ``n`` variables: the weight of each
    variable, so that the slot of ``x^k`` is ``sum_v k_v*weight_v``, the
    window (the number of slots in the box), and the map
    ``read(packed, window, width, den)`` from the nonzero signed digits in
    the lowest ``window`` slots of ``packed`` (:func:`_digits`) to the terms
    ``digit/den`` at their exponents, plain ``int`` values when ``den`` is 1.

    With a ``box``, the digit of variable ``v`` holds the exponents
    ``0..box[v]``, the last variable innermost.  With ``box`` None, the box
    is graded below ``order`` over the variables that occur in the entries:
    the total degree is the outermost digit, then every one of them but the
    last, each digit with ``order`` values, so the window is
    ``order^(#active)`` slots; the last one's exponent is the total degree
    less the inner digits.  Slots count from 0 and are linear in the
    exponents, so the slot of a product of monomials is the sum of theirs;
    in the graded box a monomial of degree ``>= order`` has a slot of at
    least the window.
    """
    weights = [0] * n
    last = None
    if box is None:
        active = [v for v in range(n) if any(k[v] for t in entries for k in t)]
        # the outermost digit, the total degree, is held at the last active
        # variable until the inner digits are subtracted from it
        places = active[-1:] + active[:-1]
        digits = [(v, order ** (len(places) - 1 - j)) for j, v in enumerate(places)]
        window = order ** len(places)
        for v, s in digits[1:]:
            weights[v] = s
        for v in active:
            weights[v] += window // order
        last = active[-1] if active else None
    else:
        window = 1
        for v in range(n - 1, -1, -1):
            if box[v]:
                weights[v] = window
                window *= box[v] + 1
        digits = [(v, weights[v]) for v in range(n) if box[v]]

    def read(packed: int, window: int, width: int, den: int) -> Dict[Exponents, Scalar]:
        terms: Dict[Exponents, Scalar] = {}
        for slot, d in _digits(packed, window, width):
            key = [0] * n
            for v, s in digits:
                key[v], slot = divmod(slot, s)
            if last is not None:
                key[last] -= sum(key) - key[last]
            terms[tuple(key)] = d if den == 1 else Fraction(d, den)
        return terms

    return weights, window, read


def _kronecker(ta: Mapping[Exponents, Scalar], tb: Mapping[Exponents, Scalar],
               n: int, limit: Optional[int]) -> Optional[Dict[Exponents, Scalar]]:
    """The product of two term dicts in ``n`` variables as one big-integer
    multiply (Kronecker substitution), or None when the schoolbook loop
    should run: a coefficient is neither an ``int`` nor a ``Fraction``,
    there are fewer than ``_KRONECKER_MIN_PAIRS`` term pairs, or the packed
    operands are too sparse (``_KRONECKER_SLOTS_PER_PAIR``).

    Both operands are packed in one box of :func:`_layout`.  With ``limit``
    None it is the exact box whose digit of ``v`` holds the greatest
    exponent of ``v`` in ``a`` plus that in ``b``, and the whole product
    is read.  With a ``limit`` it is the box graded below ``limit``: operand
    terms of degree ``>= limit`` are dropped, a pair of degree ``>= limit``
    lands in a slot past the window, and only the window is read.  Each
    operand is scaled to integers by the lcm of its denominators, so the
    product has the denominator ``den_a*den_b``.  The digits are signed and
    wide enough for ``min(len a, len b) * max|a| * max|b|``.
    """
    if len(ta) * len(tb) < _KRONECKER_MIN_PAIRS:
        return None
    if limit is not None:
        ta, tb = _below(ta, limit), _below(tb, limit)
    count = len(ta) * len(tb)
    if count < _KRONECKER_MIN_PAIRS:
        return None
    if not all(isinstance(v, (int, Fraction)) for t in (ta, tb) for v in t.values()):
        return None
    box = None if limit is not None else [
        max(ca) + max(cb) for ca, cb in zip(zip(*ta), zip(*tb))]
    weights, window, read = _layout(n, (ta, tb), limit, box)
    slots_a = [sum(map(operator.mul, k, weights)) for k in ta]
    slots_b = [sum(map(operator.mul, k, weights)) for k in tb]
    extent_a, extent_b = max(slots_a) + 1, max(slots_b) + 1
    if extent_a * extent_b > _KRONECKER_SLOTS_PER_PAIR * count:
        return None

    def integers(t):
        """The lcm of the denominators and the values scaled by it."""
        nums = [v.numerator for v in t.values()]
        dens = [v.denominator for v in t.values()]
        den = math.lcm(*dens)
        if den != 1:
            nums = [a * (den // d) for a, d in zip(nums, dens)]
        return den, nums

    (den_a, na), (den_b, nb) = integers(ta), integers(tb)
    bound = min(len(na), len(nb)) * max(map(abs, na)) * max(map(abs, nb))
    width = (bound.bit_length() + 8) // 8  # bytes per digit, sign bit included
    packed = _pack(slots_a, na, extent_a, width) * _pack(slots_b, nb, extent_b, width)
    return read(packed, min(window, extent_a + extent_b - 1), width, den_a * den_b)


def _digits(packed: int, window: int, width: int) -> Iterator[Tuple[int, int]]:
    """The nonzero digits of ``packed`` in its lowest ``window`` signed
    base-``2^(8*width)`` digits, as ``(slot, digit)`` pairs in slot order;
    every digit must lie in ``[-2^(8*width-1), 2^(8*width-1))``.

    Adding half the digit range to every digit makes them all nonnegative
    with no carry between them, so the digits are read once, as bytes."""
    size = window * width
    # the offset makes every digit of the window nonnegative; xor-ing it off
    # again leaves each digit in two's complement, and zero digits as zero bytes
    offset = int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * window, "little")
    data = (((packed + offset) & ((1 << (8 * size)) - 1)) ^ offset).to_bytes(size, "little")
    # one byte per slot, 1 where the slot's digit is nonzero
    nonzero = 0
    for j in range(width):
        nonzero |= int.from_bytes(data[j::width], "little")
    flags = nonzero.to_bytes(window, "little").translate(_NONZERO_TO_ONE)
    slot = flags.find(1)
    while slot >= 0:
        at = slot * width
        yield slot, int.from_bytes(data[at:at + width], "little", signed=True)
        slot = flags.find(1, slot + 1)


def _product(ta: Mapping[Exponents, Scalar], tb: Mapping[Exponents, Scalar],
             n: int, limit: Optional[int]) -> Dict[Exponents, Scalar]:
    """The product of two term dicts by :func:`_kronecker` where it applies,
    else by :func:`_schoolbook`; zero values may remain."""
    prod = _kronecker(ta, tb, n, limit)
    return _schoolbook(ta, tb, limit) if prod is None else prod


# -- the unit inverse ----------------------------------------------------------

def _inverse(t: Mapping[Exponents, Scalar], exact: bool, n: int, order
             ) -> Tuple[Dict[Exponents, Scalar], bool]:
    """The terms and flag of the inverse modulo total degree ``order`` of the
    unit ``c0 + w_1 + w_2 + ...`` (``w_d`` of degree ``d``) with the terms
    ``t`` and the flag ``exact``.

    The terms come from the degree recurrence
    ``inv_d = -(1/c0) * sum_(i>=1) w_i*inv_(d-i)``, in which each term of the
    unit meets each term of the inverse below the order once.  The inverse
    is exact only for an exact constant: that of a non-constant unit is a
    genuine series, and at ``INFINITE_ORDER`` it raises ``ValueError``.
    """
    zero = (0,) * n
    c0 = t.get(zero)
    if not c0:
        raise NotAUnitError("constant term vanishes; not a unit")
    # +-1 is its own inverse and stays an int
    inv0 = c0 if c0 in (1, -1) else scalar_inverse(c0)
    if len(t) == 1:
        return {zero: inv0}, exact
    if order == INFINITE_ORDER:
        raise ValueError("the inverse of a non-constant unit is known to no order")
    rest = sorted((sum(k), k, v) for k, v in t.items() if k != zero)
    layers = [{zero: inv0}]  # layers[d] holds the terms of inv_d
    for d in range(1, order):
        acc: Dict[Exponents, Scalar] = {}
        for i, kw, cw in itertools.takewhile(lambda term: term[0] <= d, rest):
            for ki, ci in layers[d - i].items():
                key = tuple(map(operator.add, kw, ki))
                acc[key] = acc.get(key, 0) + cw * ci
        layers.append({k: -v * inv0 for k, v in acc.items() if v})
    return {k: v for layer in layers for k, v in layer.items()}, False


# -- values: a term dict and its flag at one order ------------------------------

#: A series known modulo an order that the caller keeps, in a context that
#: the caller keeps: the term dict and the exactness flag of a :class:`Jet`
#: (see the module docstring).
Value = Tuple[Dict[Exponents, Scalar], bool]


def _settled(ctx: VarContext, order, terms: Mapping[Exponents, Scalar], exact: bool) -> Value:
    """``terms`` in the one coefficient format, without zero values and
    without the terms at or above ``order``, and ``exact`` cleared when a
    nonzero term was dropped."""
    clean: Dict[Exponents, Scalar] = {}
    dropped = False
    width = len(ctx.names)
    # nothing is dropped at INFINITE_ORDER: skip the degree comparison
    finite = order != INFINITE_ORDER
    for key, val in terms.items():
        if len(key) != width:
            raise ContextMismatchError(f"exponent vector {key} does not fit context {ctx.names}")
        if type(val) is not int:
            if type(val) is not Fraction:
                val = as_scalar(val)
            if type(val) is Fraction and val.denominator == 1:
                val = val.numerator
        if not val:
            continue
        if finite and sum(key) >= order:
            dropped = True
            continue
        clean[key] = val
    return clean, bool(exact) and not dropped


def _atom(ctx: VarContext, order, key: Exponents, c) -> Value:
    if order < 0:
        raise ValueError("order must be >= 0")
    return _settled(ctx, order, {key: c}, True)


def value_constant(ctx: VarContext, order, c) -> Value:
    """The exact constant ``c`` at ``order``, as :meth:`Jet.constant` gives it."""
    return _atom(ctx, order, (0,) * len(ctx.names), c)


def value_variable(ctx: VarContext, order, name: str) -> Value:
    """The variable ``name`` at ``order``, the value of :meth:`Jet.variable`."""
    key = [0] * len(ctx.names)
    key[ctx.index(name)] = 1
    return _atom(ctx, order, tuple(key), 1)


def value_sum(signed: Iterable[Tuple[bool, Value]]) -> Value:
    """The sum of values at one order, each negated when its ``bool`` says
    so, in one merge.  No value has a term at or above the order, so the sum
    drops none: it has the terms (in their order) and the flag of the
    left-to-right chain of :meth:`Jet.__add__` and :meth:`Jet.__sub__`,
    which removes a term that cancels, so that a later one is appended."""
    terms: Dict[Exponents, Scalar] = {}
    exact = True
    for negate, (t, e) in signed:
        exact = exact and e
        for key, val in t.items():
            if negate:
                val = -val
            cur = terms.get(key)
            if cur is None:
                terms[key] = val
                continue
            val = cur + val
            if not val:
                del terms[key]
            elif type(val) is Fraction and val.denominator == 1:
                terms[key] = val.numerator
            else:
                terms[key] = val
    return terms, exact


def value_product(ctx: VarContext, order, a: Value, b: Value) -> Value:
    """The product of two values at ``order`` by :func:`_product`.  Exact
    operands multiply in full, and dropping a nonzero term at or above the
    order clears the flag; otherwise only the pairs below the order are
    formed, and the product is not exact."""
    (ta, ea), (tb, eb) = a, b
    full = ea and eb
    return _settled(ctx, order, _product(ta, tb, len(ctx.names), None if full else order), full)


def value_power(ctx: VarContext, order, a: Value, e: int) -> Value:
    """``a^e`` at ``order`` for an integer ``e >= 0``, with the terms and the
    flag of the product of ``e`` copies of ``a`` (:func:`value_product`).

    ``e = 0`` gives the exact constant 1.  A one-term ``a = c*x^k`` gives
    ``c^e*x^(e*k)``: every partial product is one term, so nothing is
    dropped, and the flag of ``a`` holds, unless ``e*|k| >= order``, where
    the term is dropped and the flag cleared.  Any other ``a`` takes square
    and multiply, from the lowest bit of ``e``; the first factor is ``a``
    itself, never a product with the constant 1 (whose terms and flag would
    be the same)."""
    terms, exact = a
    if e == 0:
        return value_constant(ctx, order, 1)
    if len(terms) == 1:
        (key, c), = terms.items()
        if e * sum(key) >= order:
            return {}, False
        return _settled(ctx, order, {tuple([e * k for k in key]): c ** e}, exact)
    result = None
    while e:
        if e & 1:
            result = a if result is None else value_product(ctx, order, result, a)
        if e > 1:
            a = value_product(ctx, order, a, a)
        e >>= 1
    return result


def value_jet(ctx: VarContext, order, a: Value) -> "Jet":
    """The jet of a value at ``order``; the value's terms are its own."""
    jet = object.__new__(Jet)
    jet.ctx, jet.order = ctx, order
    jet.terms, jet.exact = a
    return jet


class Jet:
    """A series known modulo total degree ``order``; see module docstring."""

    __slots__ = ("ctx", "order", "terms", "exact")

    def __init__(self, ctx: VarContext, order: int, terms: Mapping[Exponents, Scalar], exact: bool):
        if order < 0:
            raise ValueError("order must be >= 0")
        if not exact and order == INFINITE_ORDER:
            raise ValueError("only an exact jet is known to every order")
        self.ctx = ctx
        self.order = order
        self.terms, self.exact = _settled(ctx, order, terms, exact)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext, order: int = DEFAULT_ORDER, exact: bool = True) -> "Jet":
        return cls(ctx, order, {}, exact)

    @classmethod
    def constant(cls, ctx: VarContext, value, order: int = DEFAULT_ORDER, exact: bool = True) -> "Jet":
        key = (0,) * len(ctx.names)
        return cls(ctx, order, {key: as_scalar(value)}, exact)

    @classmethod
    def variable(cls, ctx: VarContext, name: str, order: int = DEFAULT_ORDER) -> "Jet":
        return value_jet(ctx, order, value_variable(ctx, order, name))

    @classmethod
    def monomial(cls, ctx: VarContext, exps: Exponents, coeff=1, order: int = DEFAULT_ORDER) -> "Jet":
        return cls(ctx, order, {tuple(exps): as_scalar(coeff)}, True)

    @classmethod
    def polynomial(cls, ctx: VarContext, terms, order: int) -> "Jet":
        """The exact polynomial with these terms (a mapping or ``(exponents,
        coefficient)`` pairs) at its settled order: ``order``, or one above
        its total degree when that is higher (1 for the zero polynomial)."""
        terms = dict(terms)
        deg = max((sum(k) for k in terms), default=0)
        return cls(ctx, max(order, deg + 1), terms, True)

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Exponents) -> Scalar:
        """The stored coefficient of the monomial ``exps``; zero if absent."""
        return self.terms.get(tuple(exps), 0)

    def graded_items(self) -> List[Tuple[Exponents, Scalar]]:
        """The ``(exponents, coefficient)`` pairs in graded-lex order."""
        return sorted(self.terms.items(), key=lambda kv: term_sort_key(kv[0]))

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * len(self.ctx.names))

    def is_unit(self) -> bool:
        return bool(self.constant_term())

    def order_of(self):
        """Minimal total degree of a stored term; INFINITE_ORDER if none.

        An infinite answer means "zero modulo the order"; it is a statement
        about the whole series only when ``exact`` holds.
        """
        if not self.terms:
            return INFINITE_ORDER
        return min(sum(k) for k in self.terms)

    def total_degree(self) -> Optional[int]:
        if not self.terms:
            return None
        return max(sum(k) for k in self.terms)

    def occurring(self) -> Tuple[str, ...]:
        used = set()
        for key in self.terms:
            for i, e in enumerate(key):
                if e:
                    used.add(i)
        return tuple(self.ctx.names[i] for i in sorted(used))

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"context mismatch: {self.ctx.names} vs {other.ctx.names}")
            return other
        try:
            value = as_scalar(other)
        except TypeError:
            return None
        return Jet.constant(self.ctx, value, self.order, exact=True)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        merged: Dict[Exponents, Scalar] = dict(self.terms)
        for key, val in other.terms.items():
            cur = merged.get(key)
            merged[key] = val if cur is None else cur + val
        return Jet(self.ctx, order, merged, self.exact and other.exact)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, self.order, {k: -v for k, v in self.terms.items()}, self.exact)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product, known modulo the lower of the two orders, by
        :func:`value_product`.

        Two exact operands give the whole product (truncated afterwards,
        which clears the flag when a term is dropped); otherwise only the
        pairs below the order are formed.  Rational operands with at least
        ``_KRONECKER_MIN_PAIRS`` term pairs are multiplied by Kronecker
        substitution (:func:`_kronecker`); ``FieldElement`` coefficients,
        smaller operands and operands too sparse for a packed box take the
        schoolbook loop.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = min(self.order, other.order)
        return value_jet(self.ctx, order, value_product(
            self.ctx, order, (self.terms, self.exact), (other.terms, other.exact)))

    __rmul__ = __mul__

    @staticmethod
    def dot(xs: Sequence["Jet"], ys: Sequence["Jet"], acc: "Jet") -> "Jet":
        """``acc + x_1*y_1 + x_2*y_2 + ...`` by the loop ``acc = acc + x*y``
        over the pairs.

        A pair of exact operands, one of them zero, is skipped: its product
        is an exact zero, which changes no term or flag, and the caller
        starts ``acc`` at an order no higher than the skipped operands', so
        it changes no order either.
        """
        for x, y in zip(xs, ys):
            if not (x.exact and y.exact and (not x.terms or not y.terms)):
                acc = acc + x * y
        return acc

    def scale(self, s) -> "Jet":
        s = as_scalar(s)
        if not s:
            return Jet(self.ctx, self.order, {}, self.exact)
        return Jet(self.ctx, self.order, {k: s * v for k, v in self.terms.items()}, self.exact)

    def __pow__(self, n: int) -> "Jet":
        """The power at this jet's order by :func:`value_power`: the terms
        and the flag of the product of ``n`` copies; ``n == 0`` gives the
        exact constant 1."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("jet powers must be nonnegative integers")
        return value_jet(self.ctx, self.order,
                         value_power(self.ctx, self.order, (self.terms, self.exact), n))

    def invert_unit(self) -> "Jet":
        """Multiplicative inverse modulo the order, by the degree recurrence
        (:func:`_inverse`).

        The result is flagged exact only for constants: inverses of
        non-constant units are genuinely infinite series.
        """
        terms, exact = _inverse(self.terms, self.exact, len(self.ctx.names), self.order)
        return Jet(self.ctx, self.order, terms, exact)

    def derivative(self, name: str) -> "Jet":
        idx = self.ctx.index(name)
        out: Dict[Exponents, Scalar] = {}
        for key, val in self.terms.items():
            e = key[idx]
            if not e:
                continue
            nk = list(key)
            nk[idx] = e - 1
            out[tuple(nk)] = val * e
        return Jet(self.ctx, max(self.order - 1, 0), out, self.exact)

    # -- substitution and evaluation --------------------------------------

    def compose(self, subst: Mapping[str, "Jet"], *, allow_constant: bool = False) -> "Jet":
        """Substitute jets for variables.

        Every substituted jet must have zero constant term unless the caller
        passes ``allow_constant=True``, asserting that the series is genuinely
        polynomial in the substituted variables (otherwise the result would
        depend on the unknown tail).  All substitution values must share one
        target context; unsubstituted variables that actually occur must
        exist there by name.  The result order is the minimum of this jet's
        order and the orders of the substituted values that occur.
        """
        if not subst:
            return self
        values = {}
        target = None
        for name, val in subst.items():
            self.ctx.index(name)
            if not isinstance(val, Jet):
                raise ContextMismatchError("substitution values must be jets")
            if target is None:
                target = val.ctx
            elif val.ctx != target:
                raise ContextMismatchError("substitution values live in different contexts")
            if val.constant_term() and not allow_constant:
                raise SubstitutionDivergenceError(
                    f"substitution for {name!r} has nonzero constant term")
            values[self.ctx.index(name)] = val

        occurring = {self.ctx.index(name) for name in self.occurring()}
        for i in occurring - set(values):
            if not target.has(self.ctx.names[i]):
                raise ContextMismatchError(
                    f"variable {self.ctx.names[i]!r} missing from substitution target context")

        orders = [self.order] + [values[i].order for i in values if i in occurring]
        order = min(orders)

        # powers[i][e - 1] is the e-th power of what variable i becomes,
        # built one product at a time up to the highest exponent that
        # occurs; the first power is the base at the order, whose terms,
        # order and flag are those of the product 1*base
        powers: Dict[int, List[Jet]] = {}
        for i in occurring:
            base = values.get(i)
            if base is None:
                base = Jet.variable(target, self.ctx.names[i], order)
            row = [base.truncate(order)]
            for _ in range(max(key[i] for key in self.terms) - 1):
                row.append(row[-1] * base)
            powers[i] = row

        # a term starts at its first power times the coefficient, whose
        # terms, order and flag are those of the product coeff*power
        acc = Jet.zero(target, order, exact=True)
        for key, coeff in self.graded_items():
            term = None
            for i, e in enumerate(key):
                if e:
                    power = powers[i][e - 1]
                    term = power.scale(coeff) if term is None else term * power
            acc = acc + (Jet.constant(target, coeff, order) if term is None else term)
        return Jet(target, order, acc.terms, acc.exact and self.exact)

    def restrict(self, assign: Mapping[str, object], *, drop: bool = False) -> "Jet":
        """Evaluate some variables at exact scalar values.

        Setting variables to zero is always sound.  Evaluation at a nonzero
        value is only meaningful for exact jets (a hidden tail could reach
        arbitrarily low degrees after the substitution) and raises
        :class:`InconclusiveError` otherwise.  With ``drop=True`` the
        assigned variables are removed from the context.
        """
        values = {self.ctx.index(name): as_scalar(v) for name, v in assign.items()}
        if any(values.values()) and not self.exact:
            raise InconclusiveError(
                "evaluation at a nonzero value needs exact data; this jet is truncated")
        out: Dict[Exponents, Scalar] = {}
        for key, coeff in self.terms.items():
            val = coeff
            nk = list(key)
            for i, point in values.items():
                e = key[i]
                if e:
                    if not point:
                        val = None
                        break
                    val = val * point ** e
                nk[i] = 0
            if val is None:
                continue
            kk = tuple(nk)
            cur = out.get(kk)
            out[kk] = val if cur is None else cur + val
        result = Jet(self.ctx, self.order, out, self.exact)
        if drop:
            result = result.in_context(self.ctx.without(assign.keys()))
        return result

    def in_context(self, new_ctx: VarContext) -> "Jet":
        """Re-express the jet in another context by variable name.

        Every occurring variable must exist in the new context.  Widening a
        context is always sound; narrowing one asserts that the series does
        not involve the removed variables (callers narrow only after
        restricting them or on exact data).
        """
        if new_ctx == self.ctx:
            return self
        mapping = []
        for i, name in enumerate(self.ctx.names):
            mapping.append(new_ctx.names.index(name) if new_ctx.has(name) else None)
        width = len(new_ctx.names)
        out: Dict[Exponents, Scalar] = {}
        for key, coeff in self.terms.items():
            nk = [0] * width
            for i, e in enumerate(key):
                if not e:
                    continue
                j = mapping[i]
                if j is None:
                    raise ContextMismatchError(
                        f"variable {self.ctx.names[i]!r} occurs but is absent from target context")
                nk[j] = e
            out[tuple(nk)] = coeff
        return Jet(new_ctx, self.order, out, self.exact)

    def coefficients_in(self, name: str) -> Dict[int, "Jet"]:
        """Collect coefficients of powers of one variable.

        For a non-exact jet the coefficient of ``v^e`` is only known modulo
        total degree ``order - e``; the returned jets carry that honest order.
        """
        idx = self.ctx.index(name)
        buckets: Dict[int, Dict[Exponents, Scalar]] = {}
        for key, coeff in self.terms.items():
            e = key[idx]
            nk = list(key)
            nk[idx] = 0
            buckets.setdefault(e, {})[tuple(nk)] = coeff
        out = {}
        for e, terms in buckets.items():
            order = self.order if self.exact else max(self.order - e, 0)
            out[e] = Jet(self.ctx, order, terms, self.exact)
        return out

    def degree_in(self, name: str) -> Optional[int]:
        idx = self.ctx.index(name)
        degs = [k[idx] for k in self.terms]
        return max(degs) if degs else None

    def split(self, name: str, p: int) -> Tuple["Jet", "Jet"]:
        """``(low, high)`` with ``self = low + name^p * high`` and the degree
        of ``low`` in ``name`` below ``p``; both keep this jet's order."""
        idx = self.ctx.index(name)
        low: Dict[Exponents, Scalar] = {}
        high: Dict[Exponents, Scalar] = {}
        for k, v in self.terms.items():
            if k[idx] < p:
                low[k] = v
            else:
                high[k[:idx] + (k[idx] - p,) + k[idx + 1:]] = v
        return (Jet(self.ctx, self.order, low, self.exact),
                Jet(self.ctx, self.order, high, self.exact))

    def shift(self, name: str, k: int) -> "Jet":
        """``name^k * self``, known modulo ``order + k``.  A negative ``k`` is
        exact division by the monomial; every term must be divisible."""
        idx = self.ctx.index(name)
        out: Dict[Exponents, Scalar] = {}
        for key, coeff in self.terms.items():
            if key[idx] + k < 0:
                raise PreconditionError(f"{self} is not divisible by {name}^{-k}")
            out[key[:idx] + (key[idx] + k,) + key[idx + 1:]] = coeff
        return Jet(self.ctx, max(self.order + k, 0), out, self.exact)

    def valuation_along(self, direction: Mapping[str, int]):
        """Valuation on the line ``x_j = c_j * t`` through ``direction``, with
        every variable it omits set to zero; INFINITE_ORDER when that
        restriction vanishes to the order."""
        line = [(self.ctx.index(name), c) for name, c in direction.items()]
        inside = {i for i, _ in line}
        sums: Dict[int, Scalar] = {}
        for key, coeff in self.terms.items():
            if any(e for i, e in enumerate(key) if i not in inside):
                continue
            val = coeff
            for i, c in line:
                if key[i]:
                    val = val * c ** key[i]
            if val:
                d = sum(key)
                cur = sums.get(d)
                sums[d] = val if cur is None else cur + val
        return min((d for d, v in sums.items() if v), default=INFINITE_ORDER)

    # -- order bookkeeping -------------------------------------------------

    def truncate(self, new_order: int) -> "Jet":
        """Forget information above ``new_order``; the flag stays honest."""
        if new_order >= self.order:
            return self
        return Jet(self.ctx, new_order, self.terms, self.exact)

    def with_order(self, new_order: int) -> "Jet":
        """Raise the stated order; sound only for exact jets.  At
        ``INFINITE_ORDER`` no product of exact jets truncates."""
        if new_order <= self.order:
            return self.truncate(new_order)
        if not self.exact:
            raise InconclusiveError("cannot raise the order of a truncated jet")
        return Jet(self.ctx, new_order, self.terms, True)

    def polynomial_part(self, max_degree: int) -> "Jet":
        """The polynomial made of the stored terms of degree <= max_degree.

        Unlike :meth:`truncate` this *defines a new exact polynomial* out of
        the known region; it requires ``max_degree < order``.
        """
        if max_degree >= self.order:
            raise InconclusiveError("polynomial part would reach into the unknown tail")
        kept = {k: v for k, v in self.terms.items() if sum(k) <= max_degree}
        return Jet(self.ctx, self.order, kept, True)

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.ctx == other.ctx and self.order == other.order
                and self.terms == other.terms and self.exact == other.exact)

    def __hash__(self):
        return hash((self.ctx, self.order, frozenset(self.terms.items()), self.exact))

    def __str__(self):
        return jet_to_text(self)

    def __repr__(self):
        tag = "exact" if self.exact else f"mod deg {self.order}"
        return f"<Jet {jet_to_text(self)} ({tag})>"


def weierstrass_lift(f: Jet, var: str, p: int) -> Tuple[Jet, Jet]:
    """The Weierstrass polynomial ``W`` and the unit ``V`` of ``f`` of
    finite order ``N`` and regularity order ``p >= 1`` in ``var``: for an
    exact ``f``, exact, with ``f == W*V``, when both are polynomials, else
    stated modulo ``N`` and not exact.  A truncated ``f`` is lifted as the
    polynomial of its stored terms, and both factors are stated modulo
    ``N`` and not exact, except ``W`` in one variable: a series in one
    variable is a unit times ``var^p``.

    Write ``x'`` for every variable but ``var`` (parameters included) and
    ``f(0, var) = var^p * V0``, with ``V0(0) != 0`` since ``p`` is the
    regularity order.  The lift starts from ``W = var^p``, ``V = V0`` and
    the error ``e = f - W*V``.  Unless ``e`` is 0 from the start, it takes
    ``t = V0^-1 mod var^p`` and ``s = (1 - t*V0) / var^p``, so that
    ``s*var^p + t*V0 = 1``.  While ``e != 0``, let ``e_k`` be its part of
    least degree ``k`` in ``x'``, and split ``t*e_k = var^p*Q + R`` with
    ``deg_var R < p``; then ``W += R`` and ``V += dV`` with
    ``dV = s*e_k + Q*V0``.  Modulo ``(x')^(k+1)`` the new product gains
    ``var^p*dV + R*V0 = (s*var^p + t*V0)*e_k = e_k``, so each step matches
    the unique lifts modulo ``(x')^(k+1)``; the error drops
    ``W_old*dV + R*V_new``, all that the product gained.

    The lift runs modulo ``(x')^N``: ``W_old*dV`` and ``R*V_new`` are
    formed only on their pairs of ``x'``-degree below ``N`` (the schoolbook
    loop sorted by ``x'``-degree), so the error holds no term of
    ``x'``-degree ``>= N``, ``k`` grows with every step, and the lift ends
    within ``N`` steps.  The factors are right modulo ``(x')^N``, so modulo
    total degree ``N`` (a term below it has ``x'``-degree below it).  They
    are exact iff ``f`` is and ``D = deg_x'(W) + deg_x'(V) < N``:

    * the products of a domain add their top ``x'``-degrees: the
      ``x'``-degree grades the polynomial ring, and the top parts of two
      nonzero polynomials have a nonzero product;
    * each step adds terms of ``x'``-degree ``k`` only: ``t``, ``s`` and
      ``V0`` lie in ``var`` alone, so ``R``, ``Q`` and ``dV`` are
      homogeneous of ``x'``-degree ``k``.  As ``k`` grows, ``W`` and ``V``
      only gain higher parts, and in every step their degrees are at most
      their last ones.

    Hence if ``D < N`` every product of every step has ``x'``-degree at
    most ``D``, so no pair was left out: the error is the whole of
    ``f - W*V``, and it ended at 0.  If ``f == W*V``, then ``D =
    deg_x'(f) < N``.  And if ``D >= N``, ``W*V`` has a nonzero part of
    ``x'``-degree ``D`` that ``f`` lacks, so ``f != W*V`` and a nonzero
    term was left out (else the error would be the whole of ``f - W*V``,
    which ended at 0).  So the flag holds iff ``f == W*V``, iff no nonzero term was ever
    dropped.  Then ``W`` is monic of degree ``p``, ``W = var^p mod (x')``
    and ``V(0) != 0``: the unique Weierstrass polynomial and its unit, whose
    total degrees add up to that of ``f``, below ``N``, so both are
    returned exact at ``N``; else both are returned at ``N`` not exact.
    The factors of a truncated ``f`` are those of one completion of it, so
    they can be right only to a lower degree than ``N``.
    """
    n = len(f.ctx.names)
    iv = f.ctx.index(var)
    order = f.order

    def power(d: int) -> Exponents:
        return (0,) * iv + (d,) + (0,) * (n - iv - 1)

    def low(k: Exponents) -> int:
        return sum(k) - k[iv]

    def add_into(acc: Dict[Exponents, Scalar], t: Mapping[Exponents, Scalar], sign: int = 1):
        for k, c in t.items():
            c = acc.get(k, 0) + sign * c
            if c:
                acc[k] = c
            else:
                acc.pop(k, None)

    v0 = {power(k[iv] - p): c for k, c in f.terms.items() if not low(k)}
    w: Dict[Exponents, Scalar] = {power(p): 1}
    v = dict(v0)
    e = {k: c for k, c in f.terms.items() if low(k)}
    if e:
        t = _inverse(v0, True, n, p)[0]
        s = {power(k[iv] - p): -c for k, c in _product(t, v0, n, None).items() if k[iv] >= p}
    while e:
        k = min(map(low, e))
        ek = {key: c for key, c in e.items() if low(key) == k}
        r: Dict[Exponents, Scalar] = {}
        q: Dict[Exponents, Scalar] = {}
        for key, c in _product(t, ek, n, None).items():
            if key[iv] < p:
                r[key] = c
            else:
                q[key[:iv] + (key[iv] - p,) + key[iv + 1:]] = c
        dv = _product(s, ek, n, None)
        add_into(dv, _product(q, v0, n, None))
        # (W + R)*(V + dV) - W*V = W*dV + R*(V + dV): W before its update,
        # V after it
        add_into(e, _schoolbook(w, dv, order, low), -1)
        add_into(v, dv)
        add_into(e, _schoolbook(r, v, order, low), -1)
        add_into(w, r)
    exact = f.exact and max(map(low, w)) + max(map(low, v)) < order
    return Jet(f.ctx, order, w, exact or n == 1), Jet(f.ctx, order, v, exact)


def weierstrass_quotient(g: Jet, f: Jet, var: str, p: int) -> Tuple[Jet, Jet]:
    """``(q, r)`` with ``g == q*f + r`` modulo the order ``N`` of ``g`` and
    ``f`` and ``deg_var r < p``, ``p >= 1`` the regularity order of ``f``.

    ``r`` and ``q_W`` are the long division of ``g`` by the monic ``W`` of
    ``f = W*V`` (:func:`weierstrass_lift`) modulo ``(x')^N``: each pass
    moves the part of ``r`` from ``var^p`` on into ``q_W``, adds it times
    ``var^p - W``, which lies in ``(x')``, and drops the terms of
    ``x'``-degree ``>= N``; ``q = q_W * V^-1``.  A term below total degree
    ``N`` has ``x'``-degree below ``N``, so both are right modulo ``N``,
    with ``W`` lifted at ``N + p``: its terms below ``(x')^N`` have total
    degree at most ``N + p - 2``.  ``r`` is exact when ``g`` and ``W`` are
    and no term was dropped; ``q`` too, if ``V`` is an exact constant."""
    n, iv, order = len(f.ctx.names), f.ctx.index(var), f.order
    w, v = weierstrass_lift(Jet(f.ctx, order + p, f.terms, f.exact), var, p)
    tail = {k: -c for k, c in w.terms.items() if k[iv] < p}
    r, q, exact = dict(g.terms), {}, g.exact and w.exact
    while any(k[iv] >= p for k in r):
        high = {k[:iv] + (k[iv] - p,) + k[iv + 1:]: r.pop(k) for k in [k for k in r if k[iv] >= p]}
        for k, c in high.items():
            q[k] = q.get(k, 0) + c
        for k, c in _product(high, tail, n, None).items():
            if sum(k) - k[iv] < order:
                r[k] = r.get(k, 0) + c
            else:
                exact = exact and not c
    return (Jet(f.ctx, order, q, exact) * v.truncate(order).invert_unit(),
            Jet(f.ctx, order, r, exact))


def _integer_jets(jets: Iterable[Jet], ctx: VarContext) -> bool:
    """True when every jet lies in ``ctx`` and has integer coefficients."""
    return all(e.ctx == ctx and all(type(v) is int for v in e.terms.values()) for e in jets)


def _below(t: Mapping[Exponents, Scalar], order: int) -> Dict[Exponents, Scalar]:
    return {k: c for k, c in t.items() if sum(k) < order}


def _norm(t: Mapping[Exponents, Scalar]) -> int:
    """``||f||_1``, the sum of the absolute values of integer coefficients."""
    return sum(map(abs, t.values()))


def _hadamard(norms: Sequence[Sequence[int]]) -> int:
    """A bound on every coefficient of every minor, on any rows and columns,
    of a square matrix whose entries have the 1-norms ``norms``: the product
    over all rows of ``max(1, row 2-norm)``; see :func:`minor_images`."""
    square = math.prod(max(1, sum(x * x for x in row)) for row in norms)
    # an integer coefficient at most sqrt(square) is at most isqrt(square)
    return math.isqrt(square)


def _images(ctx: VarContext, entries: Sequence[Mapping[Exponents, Scalar]], order,
            box: Optional[Sequence[int]], bound: int
            ) -> Tuple[List[int], Callable[[int], Jet], Optional[int]]:
    """The Kronecker images of term dicts with integer coefficients in
    ``ctx``, the map that reads a polynomial back from its image, and the
    mask of the ring the images live in (None for all of Z); the packing
    and the digit width of :func:`minor_images` and :func:`hankel_images`.

    The box is the one of :func:`_layout`.  With a ``box`` (``order`` is
    ``INFINITE_ORDER``), a value reads back exact.  With ``box`` None, the
    entries have no term of degree ``>= order``, the box is graded below
    ``order``, and a value reads back at ``order``, not exact.  The digits
    are signed and hold every magnitude up to ``bound``.
    """
    width = (bound.bit_length() + 8) // 8  # bytes per digit, sign bit included
    weights, window, read = _layout(len(ctx.names), entries, order, box)

    def pack(t: Mapping[Exponents, Scalar]) -> int:
        if not t:
            return 0
        slots = [sum(map(operator.mul, k, weights)) for k in t]
        return _pack(slots, list(t.values()), max(slots) + 1, width)

    def unpack(image: int) -> Jet:
        return Jet(ctx, order, read(image, window, width, 1), box is not None)

    mask = (1 << (8 * width * window)) - 1 if box is None else None
    return [pack(t) for t in entries], unpack, mask


def minor_images(rows: Sequence[Sequence[Jet]]
                 ) -> Optional[Tuple[List[List[int]], Callable[[int], Jet], Optional[int]]]:
    """The Kronecker images of a square matrix of integer polynomials, for
    a determinant pass on plain integers, the map that reads the
    determinant back from its image, and the mask of the ring the pass runs
    in (None for all of Z).  None unless
    every entry has integer coefficients, in one context, and one of two
    boxes applies: the exact box when every entry is exact at
    ``INFINITE_ORDER``, the graded box when the least order ``N`` is finite
    and at least 1 and an entry of the leading 2-by-2 block is not exact.

    An entry ``sum c_k x^k`` becomes the integer ``sum c_k 2^(8*w*slot(k))``
    with ``slot(k) = sum_v k_v*weight_v``: evaluation at
    ``x_v = 2^(8*w*weight_v)``, a ring homomorphism.  So a pass of sums and
    products on the images gives the image of the determinant, and it is
    read back from its signed digits (:func:`_digits`) when it lies in the
    box and its coefficients fit ``w`` bytes:

    * exact box: the images are in Z.  A minor on a subset of the rows
      sums products of one entry per row, so its degree in ``v`` is at
      most the sum over those rows of the row's greatest degree in ``v``;
      each variable's digit has room for that sum over all rows.  The
      minors are exact.
    * graded box: the box of :func:`_layout` graded below ``N``.  A
      monomial of degree ``>= N`` has a slot of at least the window, so
      evaluation followed by reduction modulo ``2^M``, ``M = 8*w*window``
      (the mask is ``2^M - 1``), is a ring homomorphism from
      ``Z[x]/(deg >= N)``: sums of products may be reduced, and wrap
      freely.  The pass keeps each sum as its balanced residue, in
      ``[-2^(M-1), 2^(M-1))`` (:func:`~equijet.pseudopoly._image_dot`):
      it is in the same class modulo ``2^M`` as the residue in
      ``[0, 2^M)``, so the homomorphism holds, and :func:`_digits` reads
      the lowest ``M`` bits, which every representative shares, so it
      reads the same minors.  A value whose image is negative then stays
      as wide as its degree, not as the window.  Only the terms below
      ``N`` are packed.
      The determinant is stated at ``N`` and is not exact: the pass on
      jets (:func:`~equijet.pseudopoly.berkowitz_det`) forms every product
      with an operand that is not exact, so a non-exact entry of the
      leading 2-by-2 block leaves the third entry of the characteristic
      vector of that block (its determinant) not exact; every later step
      keeps that entry (times the constant 1) and sums it, times a
      coefficient, into the block's determinant, so every minor from the
      second on, the determinant among them, is not exact.  When the leading 2-by-2 block is exact at a
      finite order, each product's own truncation decides its flag, and
      the matrix keeps the pass on jets.
    * digit width, both boxes: on the unit torus ``|M_ij| <= ||M_ij||_1``,
      and a coefficient of a polynomial is at most its greatest modulus
      there, so by Hadamard's bound every coefficient of the minor on the
      rows ``R`` and the columns ``C`` (in the graded box, of the
      polynomial minor of the packed entries, which agrees below ``N``) is
      at most ``prod_(i in R) sqrt(sum_(j in C) ||M_ij||_1^2)``, and so at
      most the product over all rows of ``max(1, sqrt(sum_j
      ||M_ij||_1^2))`` (:func:`_hadamard`); ``w`` holds that bound plus a
      sign bit.  An entry is a 1-by-1 minor, so its coefficients, packed
      one digit each, fit too.

    Only the determinant is read back.  The Berkowitz pass meets values
    that may overflow their digits and the box freely; every value that
    fraction-free elimination keeps is a minor, which fits
    (:func:`~equijet.pseudopoly._bareiss`).  Each entry is packed once.
    """
    ctx = rows[0][0].ctx
    if not _integer_jets((e for row in rows for e in row), ctx):
        return None
    order = min(e.order for row in rows for e in row)
    if order == INFINITE_ORDER:
        entries = [[e.terms for e in row] for row in rows]
        # per variable, the sum over rows of the row's greatest degree
        box = [sum(max((k[v] for t in row for k in t), default=0) for row in entries)
               for v in range(len(ctx.names))]
    elif order < 1 or all(e.exact for row in rows[:2] for e in row[:2]):
        return None
    else:
        entries = [[_below(e.terms, order) for e in row] for row in rows]
        box = None
    norms = [[_norm(t) for t in row] for row in entries]
    bound = _hadamard(norms)
    packed, unpack, mask = _images(ctx, [t for row in entries for t in row], order, box, bound)
    n = len(rows)
    return [packed[i * n:(i + 1) * n] for i in range(n)], unpack, mask


def hankel_images(coeffs: Sequence[Jet], k: int
                  ) -> Optional[Tuple[List[int], Callable[[int], Jet], Optional[int]]]:
    """The Kronecker images of the coefficients ``a_1..a_p`` of a monic
    polynomial, in a box and a digit width that hold the leading principal
    minors ``d_1..d_k`` of the Hankel matrix ``(s_(i+j))`` of its Newton
    power sums, with the map that reads a minor but the first back and the
    mask of the ring, as :func:`minor_images` gives them.  Newton's
    identities are division-free, so they run on the images, which
    :func:`minor_images` shows to be a ring, and the pass of the minors
    follows them there: the power sums are never read back, and only the
    minors of their Hankel matrix have to fit.  Each
    ``a_i`` is packed once.  None unless ``p >= 2``, every ``a_i`` has
    integer coefficients, in one context, and one of two boxes applies:

    * exact box: every ``a_i`` is exact at ``INFINITE_ORDER``, and so are
      the power sums and the minors;
    * graded box: the least order ``N`` is finite and at least 1, and
      ``a_1`` or ``a_2`` is not exact.  Then ``s_1 = -a_1`` or
      ``s_2 = -a_1*s_1 - 2*a_2`` is not exact, so the Hankel matrix of the
      power sums on jets, all at ``N``, takes the graded box of
      :func:`minor_images`, whose minors from the second on are not exact.
      Only the terms of the ``a_i`` below ``N`` are packed; the power sums
      and minors of the polynomials they make up agree below ``N`` with the
      truncated ones, and the bounds below are theirs.  Both passes keep
      each sum as its balanced residue modulo ``2^M``, as there: the same
      class, so the homomorphism and the reading by :func:`_digits` hold,
      and a power sum or minor whose image is negative stays as wide as
      its degree.

    Every other ``P`` (rational or ``Q(alpha)`` coefficients, ``p = 1``,
    or ``a_1`` and ``a_2`` exact at a finite order, where each product's
    own truncation decides its flag) gives None.

    Bounds, with ``||f||_1`` the sum of the absolute values of the
    coefficients of ``f``:

    * degree box: give ``a_i`` the weight ``i``.  By Newton's identity
      ``s_j = -(a_1*s_(j-1) + ... + a_m*s_(j-m)) - j*a_j`` (``m =
      min(j-1, p)``, the last term for ``j <= p`` only) and induction,
      ``s_j`` is isobaric of weight ``j``: a sum of products
      ``prod_i a_i^(e_i)`` with ``sum_i i*e_i = j``.  The m-by-m leading
      minor sums products ``prod_(i<m) s_(i+sigma(i))`` over permutations
      ``sigma``, of weight ``sum_(i<m) (i + sigma(i)) = m*(m-1)``, so it is
      isobaric of weight ``m*(m-1) <= k*(k-1)``.  So is every minor: one on
      ``m`` rows ``R`` and ``m`` columns ``C`` has the weight
      ``sum(R) + sum(C) <= m*(2*k-m-1) <= k*(k-1)``, the bordered minors
      that :func:`~equijet.pseudopoly._bareiss` keeps among them.  A
      product of weight ``W``
      has degree in ``v`` at most ``sum_i e_i*deg_v(a_i) <= W*delta_v``,
      with ``delta_v = max_i deg_v(a_i)/i``; so each variable's digit holds
      ``floor(k*(k-1)*delta_v)``, the greatest ``floor(k*(k-1)*deg_v(a_i)/i)``:
      about 2/3 of the row sums ``sum_(i<k) floor((i+k-1)*delta_v)`` that
      the rule of :func:`minor_images` would give.
    * digit width: let ``N_0 = p`` and ``N_j = sum_(i=1..min(j-1,p))
      ||a_i||_1*N_(j-i) + [j <= p]*j*||a_j||_1``.  By the triangle
      inequality and ``||f*g||_1 <= ||f||_1*||g||_1``, Newton's identity
      gives ``||s_j||_1 <= N_j`` by induction.  Hadamard's bound of
      :func:`minor_images`, on every minor, grows with the entries' norms,
      so it holds with ``N_(i+j)`` in place of ``||s_(i+j)||_1``.  ``w`` holds the largest of
      that bound, every ``||a_i||_1`` (each coefficient packs one digit)
      and ``p``, plus a sign bit.

    The first minor is ``s_0``, the constant ``p``, at the least order.
    """
    p = len(coeffs)
    if p < 2:
        return None
    ctx = coeffs[0].ctx
    if not _integer_jets(coeffs, ctx):
        return None
    order = min(a.order for a in coeffs)
    if order == INFINITE_ORDER:
        entries = [a.terms for a in coeffs]
        degrees = [[max((key[v] for key in t), default=0) for t in entries]
                   for v in range(len(ctx.names))]
        box = [max(k * (k - 1) * d // i for i, d in enumerate(degs, start=1))
               for degs in degrees]
    elif order < 1 or (coeffs[0].exact and coeffs[1].exact):
        return None
    else:
        entries = [_below(a.terms, order) for a in coeffs]
        box = None
    norms = [_norm(t) for t in entries]
    # N_j >= ||s_j||_1
    sums = [p]
    for j in range(1, 2 * k - 1):
        sums.append(sum(norms[i - 1] * sums[j - i] for i in range(1, min(j - 1, p) + 1))
                    + (j * norms[j - 1] if j <= p else 0))
    bound = max(_hadamard([[sums[i + j] for j in range(k)] for i in range(k)]), max(norms), p)
    return _images(ctx, entries, order, box, bound)


def jet_to_text(j: Jet) -> str:
    """Canonical display: graded-lex term order, parser-compatible syntax."""
    if not j.terms:
        return "0"
    pieces = []
    for key, coeff in j.graded_items():
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(j.ctx.names, key) if e)
        if scalar_is_rational(coeff):
            sign = "-" if coeff < 0 else "+"
            mag = abs(coeff)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
        else:
            sign = "+"
            body = f"({scalar_to_text(coeff)})" + (f"*{mono}" if mono else "")
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text

"""Weierstrass division and preparation at finite order.

The division ``g = q f + r`` is computed by the standard order-by-order
fixed-point iteration on jets; it converges within the certification order
because the low part of a regular series has positive valuation in the
remaining variables.  Its passes are jet products and differences around
one unit inverse, which keep integral coefficients as ``int``.

A series that is not regular in ``var`` is made so by an integer shear
``x_j -> x_j + c_j * var`` of a block of coordinates (:class:`LinearChange`),
found by a seeded search over the directions ``c``: the valuation of ``f``
on the line spanned by a direction is its regularity order after the shear.

Preparation carries one extra step worth calling out: the unit and the
distinguished polynomial produced by the finite-order iteration are, in
general, only known modulo the order.  Exact input is therefore not
divided but lifted, which certifies the factorization exact whenever it
is a factorization into polynomials; that is what later lets vanishing
claims about discriminants stay sound.  When ``var^p`` divides exact
input, as it does in every one-variable context, ``W = var^p`` and the
unit is the exact quotient.  Otherwise :func:`~equijet.jets.weierstrass_lift`
lifts ``f(0, var) = var^p * V0`` in the other variables ``x'``:

1. ``t = V0^-1 mod var^p`` and ``s = (1 - t*V0) / var^p`` give
   ``s*var^p + t*V0 = 1``;
2. from ``W = var^p`` and ``V = V0``, the part ``e_k`` of least degree
   ``k`` in ``x'`` of the error ``f - W*V`` is split as
   ``t*e_k = var^p*Q + R`` with ``deg_var R < p``, and ``W += R``,
   ``V += s*e_k + Q*V0``, so the error gains a degree in ``x'`` per step;
3. polynomial factors of ``f`` have ``x'``-degree at most that of ``f``, so
   the lift gives up, with None, once ``k`` exceeds it;
4. at a zero error ``W`` is monic of degree ``p``, ``W = var^p mod (x')``
   and ``V(0) != 0``: the unique Weierstrass polynomial and its unit, both
   exact polynomials below the order.

Exact input whose ``W`` is a genuine series, and truncated input, are
divided once, at the order.  A truncated series in one variable has the
distinguished polynomial ``var^p`` exactly, because a series in one
variable is a unit times a power of it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from .errors import (
    ConsistencyError,
    DegreeCapError,
    NoRegularDirectionError,
    NotRegularError,
    PreconditionError,
)
from .jets import INFINITE_ORDER, Jet, weierstrass_lift
from .pseudopoly import MAX_DEGREE, PseudoPolynomial

#: How many integer directions the regularizing search will try.
CHANGE_BUDGET = 200


@dataclass(frozen=True)
class LinearChange:
    """The integer shear ``x_j -> x_j + c_j * target`` of a block of variables.

    ``coeffs`` holds one ``c_j`` per block variable other than ``target``, in
    block order; the target and every variable outside the block are fixed,
    so parameters are never mixed into coordinates as long as the block
    stays inside the coordinate part.  All-zero coefficients give the
    identity, and the inverse shear negates them.
    """

    block: Tuple[str, ...]
    target: str
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "block", tuple(self.block))
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.target not in self.block:
            raise PreconditionError(f"shear target {self.target!r} not in block {self.block}")
        if len(self.coeffs) != len(self.block) - 1:
            raise PreconditionError("a shear needs one coefficient per block variable "
                                    "other than its target")

    @property
    def matrix(self) -> Tuple[Tuple[Fraction, ...], ...]:
        """``M`` with ``x_i -> sum_j M[i][j] x_j``: the identity except in
        the target column."""
        k, t = len(self.block), self.block.index(self.target)
        rows = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
        for i, c in zip((i for i in range(k) if i != t), self.coeffs):
            rows[i][t] = Fraction(c)
        return tuple(tuple(row) for row in rows)

    @property
    def is_identity(self) -> bool:
        return not any(self.coeffs)

    def inverse(self) -> "LinearChange":
        return LinearChange(self.block, self.target, tuple(-c for c in self.coeffs))

    def apply(self, f: Jet) -> Jet:
        if self.is_identity:
            return f
        t = Jet.variable(f.ctx, self.target, f.order)
        others = (name for name in self.block if name != self.target)
        return f.compose({name: Jet.variable(f.ctx, name, f.order) + t.scale(c)
                          for name, c in zip(others, self.coeffs) if c})

    def describe(self) -> dict:
        return {
            "block": list(self.block),
            "matrix": [[str(c) for c in row] for row in self.matrix],
        }


@dataclass(frozen=True)
class PreparedForm:
    """``unit * poly == source`` modulo the certification order."""

    unit: Jet
    poly: PseudoPolynomial
    order: int

    @property
    def exact(self) -> bool:
        return self.unit.exact and self.poly.exact


def regularity_order(f: Jet, var: str):
    """Valuation of ``f`` restricted to the axis of ``var``.

    INFINITE_ORDER means the restriction vanishes to the certification
    order (identically, when the jet is exact).
    """
    return f.valuation_along({var: 1})


def find_regular_change(f: Jet, var: str, block: Sequence[str], seed: int = 0) -> LinearChange:
    """Search for an integer shear making ``f`` regular in ``var``.

    Deterministic for a fixed seed: up to :data:`CHANGE_BUDGET` candidate
    directions are enumerated by growing maximal entry, each shell shuffled
    by the seeded generator, with the identity always tried first.  Among
    the tried candidates the lowest resulting regularity order wins (ties go
    to the earliest candidate); the search stops early once the valuation of
    ``f`` on the block is achieved, since no direction can do better.
    """
    if f.is_zero():
        raise PreconditionError("cannot regularize the zero jet")
    block = tuple(block)
    if var not in block:
        raise PreconditionError(f"target variable {var!r} not in block {block}")
    v_pos = block.index(var)
    floor = f.restrict({name: 0 for name in f.ctx.names if name not in block}).order_of()
    if floor == INFINITE_ORDER:
        raise NoRegularDirectionError(
            f"no term of f is supported in the block {block}; "
            f"tried 0 of {CHANGE_BUDGET} candidates")

    free = len(block) - 1
    rng = random.Random(seed)

    def candidates():
        yield (0,) * free
        bound = 1
        while free:
            shell = [c for c in itertools.product(range(-bound, bound + 1), repeat=free)
                     if max(abs(x) for x in c) == bound]
            rng.shuffle(shell)
            yield from shell
            bound += 1

    best_order, best = INFINITE_ORDER, None
    for cand in itertools.islice(candidates(), CHANGE_BUDGET):
        order = f.valuation_along(dict(zip(block, cand[:v_pos] + (1,) + cand[v_pos:])))
        if order < best_order:
            best_order, best = order, cand
            if order == floor:
                break
    if best is None:
        raise NoRegularDirectionError(
            f"no regular direction found within the budget of {CHANGE_BUDGET} candidates")
    return LinearChange(block, var, best)


def weierstrass_divide(g: Jet, f: Jet, var: str) -> Tuple[Jet, Jet]:
    """Divide ``g`` by a ``var``-regular series: ``g = q f + r`` mod the order,
    with deg_var(r) < p.  The order ``N`` is ``min(g.order, f.order)``,
    finite unless ``f`` is a constant.

    With ``f = f_low + var^p * w`` and ``w`` a unit, each pass sets
    ``q <- w^-1 * high``, ``high`` the part of ``g - q*f_low`` from
    ``var^p`` on, until ``q`` repeats, flag included (at most ``N + 1``
    passes; the flag only falls, so it costs at most one more pass).  ``r``
    is ``g - q*f`` itself, not the last low part, so that a failed division
    shows as ``deg_var r >= p`` and the flag of ``r`` is that of the
    identity."""
    p = regularity_order(f, var)
    if p == INFINITE_ORDER:
        raise NotRegularError(f"divisor is not regular in {var!r} to order {f.order}")
    order = min(g.order, f.order)
    g = g.truncate(order)
    f = f.truncate(order)
    if order == INFINITE_ORDER and f.total_degree():
        # only a constant divisor has a quotient known to every order
        raise PreconditionError("Weierstrass division needs a finite order")
    if p == 0:
        return g * f.invert_unit(), Jet.zero(f.ctx, order)
    f_low, w = f.split(var, p)
    winv = w.invert_unit()
    q = Jet.zero(f.ctx, order)
    for _ in range(order + 1):
        q_next = winv * (g - q * f_low).split(var, p)[1]
        if q_next == q:
            break
        q = q_next
    r = g - q * f
    if (r.degree_in(var) or 0) >= p:
        raise ConsistencyError("division iteration failed to reduce the remainder")
    return q, r


def weierstrass_prepare(f: Jet, var: str) -> PreparedForm:
    """Factor ``f = unit * W`` with ``W`` monic distinguished in ``var``.

    Requires finite regularity order ``p``, and a finite order unless p = 0.
    In a one-variable context ``W`` is exactly ``var^p``.

    Exact input whose low part ``f mod var^p`` is zero (``var^p`` divides
    it, in one variable always) is answered in closed form: ``W = var^p``
    with exact zero coefficients and the unit ``f / var^p`` at the order,
    since ``var^p`` is monic, distinguished and divides ``f`` exactly, and
    the quotient is a unit because ``p`` is the regularity order.

    Other exact input is lifted by :func:`~equijet.jets.weierstrass_lift`
    (the four steps of the module docstring).  When ``f = W * V`` for
    polynomials, ``W`` monic of degree ``p`` with ``W = var^p mod (x')``
    and ``V(0) != 0``, the lift finds them: ``W`` is the unique Weierstrass
    polynomial of ``f`` and ``V`` its unit, both exact, with total degree at
    most that of ``f``, so below the order, at which they are stated.

    Exact input that the lift leaves (its ``W`` is a genuine series) and
    truncated input are computed by dividing ``var^p`` by ``f`` once, at
    the order of ``f``; the result is not certified.  Truncated input in
    particular keeps the division even when ``var^p`` divides it: its unit
    is stated at the order of ``f`` although ``f / var^p`` is known only
    modulo ``order - p``.
    """
    p = regularity_order(f, var)
    if p == INFINITE_ORDER:
        raise NotRegularError(f"not regular in {var!r} to order {f.order}")
    order = f.order
    if p >= order:
        raise PreconditionError(
            f"regularity order {p} reaches the certification order {order}")
    if p > MAX_DEGREE:
        raise DegreeCapError(f"degree {p} exceeds the cap {MAX_DEGREE}")
    if p == 0:
        unit = f
        poly = PseudoPolynomial(var, (), ctx=f.ctx, order=order)
        return PreparedForm(unit=unit, poly=poly, order=order)
    if order == INFINITE_ORDER:
        raise PreconditionError("Weierstrass preparation needs a finite order")
    if f.exact:
        if f.split(var, p)[0].is_zero():
            # var^p divides f: W = var^p and the unit is the exact quotient
            zero = Jet.zero(f.ctx, order)
            return PreparedForm(unit=f.shift(var, -p).with_order(order),
                                poly=PseudoPolynomial(var, (zero,) * p), order=order)
        factors = weierstrass_lift(f, var, p)
        if factors is not None:
            w, unit = factors
            return PreparedForm(unit=unit, poly=PseudoPolynomial.from_jet(w, var), order=order)
    vp = Jet.variable(f.ctx, var, order) ** p
    q, r = weierstrass_divide(vp, f, var)
    poly = PseudoPolynomial.from_jet(vp - r, var)
    if not q.is_unit():
        raise ConsistencyError("division quotient is not a unit; input was not regular")
    if not poly.is_distinguished:
        raise ConsistencyError("prepared polynomial is not distinguished")
    if len(f.ctx.names) == 1:
        # a one-variable series is a unit times var^p; the coefficients hold
        # only terms below the order, so nothing is dropped
        poly = poly.map_coeffs(lambda c: Jet.polynomial(c.ctx, c.graded_items(), order))
    return PreparedForm(unit=q.invert_unit(), poly=poly, order=order)


def regularizing_change(f: Jet, var: str, block: Sequence[str],
                        seed: int = 0) -> LinearChange:
    """The identity when ``f`` is regular in ``var``, else a shear of the
    ``block`` variables found by :func:`find_regular_change`."""
    if regularity_order(f, var) == INFINITE_ORDER:
        return find_regular_change(f, var, block, seed=seed)
    return LinearChange(tuple(block), var, (0,) * (len(block) - 1))


def prepare_in(f: Jet, var: str, block: Sequence[str],
               seed: int = 0) -> Tuple[PreparedForm, LinearChange]:
    """Prepare ``f`` in ``var`` after :func:`regularizing_change`.

    Returns the prepared form of the changed series and the change used.
    """
    change = regularizing_change(f, var, block, seed)
    return weierstrass_prepare(change.apply(f), var), change

